package apex

import (
	"testing"

	"apex/internal/datagen"
)

// BenchmarkWriteScale1 times one two-node Insert and the Delete that takes it
// out again on the repository benchmark's document at the benchmark's size —
// the write the e2e harness reports as write_ms.
func BenchmarkWriteScale1(b *testing.B) {
	ds, err := datagen.LoadDataset("Ged03.xml", 1.0)
	if err != nil {
		b.Fatal(err)
	}
	o := ds.Schema.BuildOptions()
	ix, err := FromGraph(ds.Graph, &Options{IDAttrs: o.IDAttrs, IDREFAttrs: o.IDREFAttrs, IDREFSAttrs: o.IDREFSAttrs})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ix.Insert("/", "<benchins><v>x</v></benchins>"); err != nil {
			b.Fatal(err)
		}
		if err := ix.Delete("//benchins"); err != nil {
			b.Fatal(err)
		}
	}
}
