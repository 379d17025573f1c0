package core

import (
	"runtime"
	"testing"

	"apex/internal/datagen"
	"apex/internal/metrics"
	"apex/internal/xmlgraph"
)

var movieRefs = &xmlgraph.BuildOptions{IDREFAttrs: []string{"director", "movie", "actor"}}

// TestApplyInsertClassifiesLikeARebuild appends a fragment with a reference
// to an existing element and a never-seen label under a frequent path, and
// checks the delta-maintained index against the reference extents.
func TestApplyInsertClassifiesLikeARebuild(t *testing.T) {
	g := movieGraph(t)
	a := BuildAPEX(g, paths("movie.title", "movie.title", "actor.name"), 0.5)
	first := xmlgraph.NID(g.NumNodes())
	frag := `<movie id="m9" director="d1"><title>Sequel</title><rating>PG</rating></movie>`
	if _, err := g.AppendFragment(g.Root(), frag, movieRefs); err != nil {
		t.Fatal(err)
	}
	st := a.ApplyInsert(g.Root(), first)
	if st.Seeds != 1 {
		t.Fatalf("the document root is reached through xroot alone, seeded at %d nodes", st.Seeds)
	}
	checkExtentsAgainstReference(t, a)
	checkSimulation(t, a)
	if r := a.Lookup(lp("rating")); r == nil || r.Extent.Len() != 1 {
		t.Fatalf("new label not indexed: %v", r)
	}
	if mt := a.Lookup(lp("movie.title")); mt == nil || mt.Extent.Len() != 3 {
		t.Fatalf("movie.title extent = %v", mt.Extent)
	}
}

// TestApplyDeleteRetractsAndPrunes removes the only subtree carrying a label
// and checks that its summary node is gone from G_APEX and H_APEX.
func TestApplyDeleteRetractsAndPrunes(t *testing.T) {
	g := movieGraph(t)
	a := BuildAPEX(g, paths("movie.title", "movie.title", "actor.name"), 0.5)
	first := xmlgraph.NID(g.NumNodes())
	if _, err := g.AppendFragment(g.Root(), `<award><year>1999</year></award>`, movieRefs); err != nil {
		t.Fatal(err)
	}
	a.ApplyInsert(g.Root(), first)
	rem, err := g.RemoveSubtreeDelta(first)
	if err != nil {
		t.Fatal(err)
	}
	st := a.ApplyDelete(rem.Edges)
	if st.Rederived || st.Pruned != 2 {
		t.Fatalf("want award and year pruned by the delta, got %+v", st)
	}
	if a.Lookup(lp("award")) != nil || a.XRoot().Child("award") != nil {
		t.Fatal("emptied summary node still addressed")
	}
	checkExtentsAgainstReference(t, a)
	checkSimulation(t, a)
}

// TestApplyDeleteRederivesOnReferencesOut pins the one fallback: a removed
// subtree with a reference edge into a surviving node.
func TestApplyDeleteRederivesOnReferencesOut(t *testing.T) {
	g := movieGraph(t)
	a := BuildAPEX(g, paths("actor.@movie.movie.title", "actor.@movie.movie.title"), 0.5)
	actor, ok := g.LookupID("a1")
	if !ok {
		t.Fatal("no a1")
	}
	before := metrics.Default.Snapshot().Counters["core.write.rederived_total"]
	rem, err := g.RemoveSubtreeDelta(actor)
	if err != nil {
		t.Fatal(err)
	}
	if st := a.ApplyDelete(rem.Edges); !st.Rederived {
		t.Fatalf("a1 references m1, which survives: want a re-derivation, got %+v", st)
	}
	if got := metrics.Default.Snapshot().Counters["core.write.rederived_total"]; got != before+1 {
		t.Fatalf("core.write.rederived_total moved by %d, want 1", got-before)
	}
	checkExtentsAgainstReference(t, a)
	checkSimulation(t, a)
}

// TestSmallWriteTouchesLittle is the write-side twin of the dirty-freeze
// test: a two-node insert and the delete that takes it out again touch a
// handful of summary nodes and republish a handful of extents, against the
// hundreds the index holds, and the counts reach the metrics registry.
func TestSmallWriteTouchesLittle(t *testing.T) {
	ds, err := datagen.LoadDataset("Ged02.xml", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	g := ds.Graph
	a := BuildAPEX0(g)
	a.ExtractFrequentPaths(walkWorkload(g, 200), 0.01)
	a.Update()
	before := metrics.Default.Snapshot().Counters

	first := xmlgraph.NID(g.NumNodes())
	if _, err := g.AppendFragment(g.Root(), `<benchins><v>x</v></benchins>`, nil); err != nil {
		t.Fatal(err)
	}
	ins := a.ApplyInsert(g.Root(), first)
	if ins != a.LastWrite() {
		t.Fatal("LastWrite does not return the stats of the last write")
	}
	rem, err := g.RemoveSubtreeDelta(first)
	if err != nil {
		t.Fatal(err)
	}
	del := a.ApplyDelete(rem.Edges)
	for name, st := range map[string]WriteStats{"insert": ins, "delete": del} {
		if st.Touched == 0 || st.Touched > 4 {
			t.Errorf("%s touched %d summary nodes, want xroot, benchins and v at most", name, st.Touched)
		}
		if st.Freeze.Total < 50 || st.Touched*10 > st.Freeze.Total {
			t.Errorf("%s: %d touched of %d is not a small share", name, st.Touched, st.Freeze.Total)
		}
		if st.Freeze.Refrozen > st.Touched || st.Freeze.Refrozen >= st.Freeze.Total {
			t.Errorf("%s republished %d of %d extents", name, st.Freeze.Refrozen, st.Freeze.Total)
		}
	}
	after := metrics.Default.Snapshot().Counters
	if got := after["core.write.touched_xnodes_total"] - before["core.write.touched_xnodes_total"]; got != int64(ins.Touched+del.Touched) {
		t.Errorf("core.write.touched_xnodes_total moved by %d, want %d", got, ins.Touched+del.Touched)
	}
	if after["core.write.seeds_total"] == before["core.write.seeds_total"] || after["core.write.pruned_xnodes_total"] == before["core.write.pruned_xnodes_total"] {
		t.Error("core.write.seeds_total or core.write.pruned_xnodes_total did not move")
	}
}

// chainGraph builds a root with one chain of depth nodes below it, labels
// alternating like an element → attribute → referenced element chain, so a
// maintenance pass walks depth labels deep.
func chainGraph(depth int) *xmlgraph.Graph {
	g := xmlgraph.NewGraph()
	prev := g.AddNode(xmlgraph.KindElement, "doc", "")
	g.SetRoot(prev)
	for i := 0; i < depth; i++ {
		kind, label := xmlgraph.KindElement, "n"
		if i%2 == 1 {
			kind, label = xmlgraph.KindAttribute, "@next"
		}
		v := g.AddNode(kind, label, "")
		g.AddEdge(prev, label, v)
		prev = v
	}
	return g
}

// TestMaintenanceAllocLinearInDepth guards the quadratic the path stack
// removed: carrying the root label path by copying it per call allocates
// depth² string headers, so doubling the depth of a chain quadrupled what
// Update and RefreshData allocate. Linear is 2×; the bound leaves room for
// slice growth steps.
func TestMaintenanceAllocLinearInDepth(t *testing.T) {
	allocated := func(fn func()) float64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc - before.TotalAlloc)
	}
	const depth = 2000
	measure := func(d int) (update, refresh float64) {
		a := BuildAPEX0(chainGraph(d))
		a.ExtractFrequentPaths(paths("n.@next.n", "n.@next.n", "@next.n"), 0.5)
		update = allocated(a.Update)
		refresh = allocated(a.RefreshData)
		return
	}
	u1, r1 := measure(depth)
	u2, r2 := measure(2 * depth)
	if u2/u1 > 2.5 {
		t.Errorf("Update allocated %.0f bytes at depth %d and %.0f at %d: %.1f×, want about 2×", u1, depth, u2, 2*depth, u2/u1)
	}
	if r2/r1 > 2.5 {
		t.Errorf("RefreshData allocated %.0f bytes at depth %d and %.0f at %d: %.1f×, want about 2×", r1, depth, r2, 2*depth, r2/r1)
	}
}
