package xmlgraph

import (
	"strings"
	"testing"
)

const cloneDoc = `<lib>
  <shelf id="s1"><book id="b1" loc="s1"><title>A</title></book></shelf>
  <shelf id="s2"><book id="b2" loc="s2"><title>B</title></book></shelf>
</lib>`

func buildCloneDoc(t *testing.T) *Graph {
	t.Helper()
	g, err := Build(strings.NewReader(cloneDoc), &BuildOptions{IDREFAttrs: []string{"loc"}})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func graphsEqual(a, b *Graph) bool {
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() || a.Root() != b.Root() {
		return false
	}
	for i := 0; i < a.NumNodes(); i++ {
		id := NID(i)
		if a.Node(id) != b.Node(id) || a.Removed(id) != b.Removed(id) {
			return false
		}
		ao, bo := a.Out(id), b.Out(id)
		if len(ao) != len(bo) {
			return false
		}
		for j := range ao {
			if ao[j] != bo[j] {
				return false
			}
		}
	}
	as, bs := a.Labels(), b.Labels()
	if len(as) != len(bs) {
		return false
	}
	for i := range as {
		if as[i] != bs[i] || a.LabelCount(as[i]) != b.LabelCount(bs[i]) {
			return false
		}
	}
	return true
}

func TestCloneIsDeep(t *testing.T) {
	g := buildCloneDoc(t)
	c := g.Clone()
	if !graphsEqual(g, c) {
		t.Fatal("clone differs from original before any mutation")
	}

	// Mutating the clone must leave the original untouched.
	before := g.Dump(0)
	if _, err := c.AppendFragment(c.Root(), `<shelf id="s3"><book id="b3"><title>C</title></book></shelf>`, nil); err != nil {
		t.Fatal(err)
	}
	var victim NID = NullNID
	for _, he := range c.Out(c.Root()) {
		if he.Label == "shelf" {
			victim = he.To
			break
		}
	}
	if victim == NullNID {
		t.Fatal("no shelf to remove")
	}
	if err := c.RemoveSubtree(victim); err != nil {
		t.Fatal(err)
	}
	if got := g.Dump(0); got != before {
		t.Fatalf("original mutated through clone:\nbefore:\n%s\nafter:\n%s", before, got)
	}
	if g.NumEdges() == c.NumEdges() && g.NumNodes() == c.NumNodes() {
		t.Fatal("clone mutation had no effect on the clone")
	}

	// And the original stays independently mutable too.
	if _, err := g.AppendFragment(g.Root(), `<annex/>`, nil); err != nil {
		t.Fatal(err)
	}
	if c.LabelCount("annex") != 0 {
		t.Fatal("original mutation leaked into the clone")
	}
}

func TestCloneIDRegistryIndependent(t *testing.T) {
	g := buildCloneDoc(t)
	c := g.Clone()
	// Removing a subtree unregisters its IDs only on the mutated graph.
	var shelf NID = NullNID
	for _, he := range c.Out(c.Root()) {
		if he.Label == "shelf" {
			shelf = he.To
			break
		}
	}
	if err := c.RemoveSubtree(shelf); err != nil {
		t.Fatal(err)
	}
	if _, ok := g.LookupID("b1"); !ok {
		t.Fatal("original lost an ID after clone mutation")
	}
}

// TestCloneSiblingsDoNotShareWrites is the copy-on-write hazard the deep copy
// never had: two clones of one graph share its rows, its pages and the free
// slots behind its node table. Each must end up exactly where a graph
// mutated alone would, and the original must not move — through chains of
// clones, as every publication makes one.
func TestCloneSiblingsDoNotShareWrites(t *testing.T) {
	alone := func(frags ...string) *Graph {
		g := buildCloneDoc(t)
		for _, f := range frags {
			if _, err := g.AppendFragment(g.Root(), f, &BuildOptions{IDREFAttrs: []string{"loc"}}); err != nil {
				t.Fatal(err)
			}
		}
		return g
	}
	opts := &BuildOptions{IDREFAttrs: []string{"loc"}}
	g := buildCloneDoc(t)
	before := g.Dump(0)
	a, b := g.Clone(), g.Clone()
	if _, err := a.AppendFragment(a.Root(), `<shelf id="sa"><book loc="s1"/></shelf>`, opts); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AppendFragment(b.Root(), `<annex id="sb"/>`, opts); err != nil {
		t.Fatal(err)
	}
	// A second generation on one side, and a removal of an old subtree.
	a2 := a.Clone()
	if _, err := a2.AppendFragment(a2.Root(), `<annex/>`, opts); err != nil {
		t.Fatal(err)
	}
	if _, err := a.AppendFragment(a.Root(), `<cellar/>`, opts); err != nil {
		t.Fatal(err)
	}
	shelf, _ := b.LookupID("s1")
	if err := b.RemoveSubtree(shelf); err != nil {
		t.Fatal(err)
	}

	if got := g.Dump(0); got != before {
		t.Fatalf("original moved:\n%s\nwas:\n%s", got, before)
	}
	if want := alone(`<shelf id="sa"><book loc="s1"/></shelf>`, `<cellar/>`); !graphsEqual(a, want) {
		t.Fatalf("first clone:\n%s\nwant:\n%s", a.Dump(0), want.Dump(0))
	}
	if want := alone(`<shelf id="sa"><book loc="s1"/></shelf>`, `<annex/>`); !graphsEqual(a2, want) {
		t.Fatalf("clone of the first clone:\n%s\nwant:\n%s", a2.Dump(0), want.Dump(0))
	}
	wantB := alone(`<annex id="sb"/>`)
	if err := wantB.RemoveSubtree(shelf); err != nil {
		t.Fatal(err)
	}
	if !graphsEqual(b, wantB) {
		t.Fatalf("second clone:\n%s\nwant:\n%s", b.Dump(0), wantB.Dump(0))
	}
	if _, ok := a.LookupID("sb"); ok {
		t.Fatal("an ID registered on one clone is visible on its sibling")
	}
	if _, ok := g.LookupID("s1"); !ok {
		t.Fatal("an ID dropped on a clone is gone from the original")
	}
}

// TestCloneSharesUntouchedRows pins what makes a small write cheap: after an
// append under the root, the clone still serves every other node's adjacency
// from the original's memory.
func TestCloneSharesUntouchedRows(t *testing.T) {
	g := buildCloneDoc(t)
	c := g.Clone()
	if _, err := c.AppendFragment(c.Root(), `<annex/>`, nil); err != nil {
		t.Fatal(err)
	}
	shared := 0
	for i := 0; i < g.NumNodes(); i++ {
		if o := g.Out(NID(i)); len(o) > 0 && &o[0] == &c.Out(NID(i))[0] {
			shared++
		}
	}
	if &g.Out(g.Root())[0] == &c.Out(c.Root())[0] {
		t.Fatal("the root's row was appended to in place")
	}
	if shared == 0 {
		t.Fatal("no adjacency row is shared after a one-edge write")
	}
	if &g.nodes[0] != &c.nodes[0] {
		t.Fatal("the node table was copied for an append")
	}
}

// TestRowTablePaging crosses page boundaries: rows land where at() looks for
// them, and a page filled by a clone stays out of its original.
func TestRowTablePaging(t *testing.T) {
	g := NewGraph()
	root := g.AddNode(KindElement, "r", "")
	g.SetRoot(root)
	for i := 1; i < rowPageSize+10; i++ {
		g.AddEdge(root, "c", g.AddNode(KindElement, "c", ""))
	}
	c := g.Clone()
	for i := 0; i < rowPageSize; i++ {
		c.AddEdge(root, "d", c.AddNode(KindElement, "d", ""))
	}
	if g.NumNodes() != rowPageSize+10 || len(g.Out(root)) != rowPageSize+9 {
		t.Fatalf("original grew to %d nodes, %d root edges", g.NumNodes(), len(g.Out(root)))
	}
	for i := 1; i < c.NumNodes(); i++ {
		want := "c"
		if i >= rowPageSize+10 {
			want = "d"
		}
		if in := c.In(NID(i)); len(in) != 1 || in[0].Label != want || in[0].To != root {
			t.Fatalf("node %d: in-edges %v", i, in)
		}
	}
}
