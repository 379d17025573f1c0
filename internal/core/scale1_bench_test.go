package core

import (
	"testing"

	"apex/internal/datagen"
	"apex/internal/xmlgraph"
)

// ged03 loads the paper-scale GedML document the repository benchmark runs.
func ged03(tb testing.TB) *datagen.Dataset {
	tb.Helper()
	ds, err := datagen.LoadDataset("Ged03.xml", 1.0)
	if err != nil {
		tb.Fatal(err)
	}
	return ds
}

// walkWorkload draws n label paths of 2..4 labels by walking the data graph
// from seeded start nodes — a stand-in for the workload generator, which
// this package cannot import.
func walkWorkload(g *xmlgraph.Graph, n int) []xmlgraph.LabelPath {
	var res []xmlgraph.LabelPath
	for i := 0; len(res) < n && i < 50*n; i++ {
		v := xmlgraph.NID((i * 7919) % g.NumNodes())
		var p xmlgraph.LabelPath
		for len(p) < 2+i%3 {
			out := g.Out(v)
			if len(out) == 0 {
				break
			}
			he := out[(i+len(p))%len(out)]
			p = append(p, he.Label)
			v = he.To
		}
		if len(p) >= 2 {
			res = append(res, p)
		}
	}
	return res
}

// BenchmarkMaintenanceScale1 times the whole-graph maintenance passes on the
// benchmark document: the first Update from APEX⁰ and one RefreshData.
func BenchmarkMaintenanceScale1(b *testing.B) {
	g := ged03(b).Graph
	wl := walkWorkload(g, 1000)
	b.Run("FirstUpdate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			a := BuildAPEX0(g)
			a.ExtractFrequentPaths(wl, 0.005)
			b.StartTimer()
			a.Update()
		}
	})
	b.Run("RefreshData", func(b *testing.B) {
		a := BuildAPEX0(g)
		a.ExtractFrequentPaths(wl, 0.005)
		a.Update()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a.RefreshData()
		}
	})
}
