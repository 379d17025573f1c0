package apex

import (
	"fmt"
	"math/rand"
	"regexp"
	"slices"
	"strings"
	"testing"

	"apex/internal/core"
	"apex/internal/datagen"
	"apex/internal/query"
	"apex/internal/storage"
	"apex/internal/workload"
	"apex/internal/xmlgraph"
)

// The model-based differential harness for delta-maintained writes. A seeded
// sequence of inserts, deletes and adaptations runs through the facade; after
// every operation the published index is held against the oracle — a clone of
// it re-derived from the data by RefreshData — for the same summary graph,
// extents and hash tree (under a canonical renumbering of summary-node ids,
// which the two histories assign differently), and for position-identical
// answers to queries of every class.

var xnodeRef = regexp.MustCompile(`&\d+`)

// canonIndex renders idx with summary-node ids replaced by their position in
// the breadth-first dump of G_APEX, and without the hash tree's unbound
// remainder slots (lookups materialize them lazily, so which exist depends on
// history, and an unbound slot addresses nothing).
func canonIndex(idx *core.APEX) string {
	graph := idx.DumpGraph()
	canon := map[string]string{}
	for _, line := range strings.Split(graph, "\n") {
		if id := xnodeRef.FindString(line); id != "" {
			canon[id] = fmt.Sprintf("#%d", len(canon))
		}
	}
	rename := func(s string) string {
		return xnodeRef.ReplaceAllStringFunc(s, func(id string) string {
			if c, ok := canon[id]; ok {
				return c
			}
			return "#unreachable" + id
		})
	}
	var b strings.Builder
	b.WriteString(rename(graph))
	b.WriteString("--hash-tree--\n")
	for _, line := range strings.Split(idx.DumpHashTree(), "\n") {
		if strings.TrimSpace(line) != "remainder" {
			b.WriteString(rename(line))
			b.WriteString("\n")
		}
	}
	return b.String()
}

// firstDiff points at the first differing line of two renderings.
func firstDiff(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(la) || i < len(lb); i++ {
		var x, y string
		if i < len(la) {
			x = la[i]
		}
		if i < len(lb) {
			y = lb[i]
		}
		if x != y {
			return fmt.Sprintf("line %d:\n  delta:  %.300s\n  oracle: %.300s", i+1, x, y)
		}
	}
	return "no difference"
}

// checkAgainstOracle holds ix's published state against RefreshData of a
// clone, structure and answers.
func checkAgainstOracle(t testing.TB, ix *Index, qs []query.Query, step string) {
	t.Helper()
	cur, _, eval := ix.snapshot()
	og := cur.Graph().Clone()
	oracle := cur.CloneWithGraph(og)
	oracle.RefreshData()
	if got, want := canonIndex(cur), canonIndex(oracle); got != want {
		t.Fatalf("%s: delta-maintained index differs from RefreshData of a clone at %s", step, firstDiff(got, want))
	}
	odt, err := storage.BuildDataTable(og, 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	oeval := query.NewAPEXEvaluator(oracle, odt)
	for _, q := range qs {
		got, err := eval.Evaluate(q)
		if err != nil {
			t.Fatalf("%s: %s: %v", step, q, err)
		}
		want, err := oeval.Evaluate(q)
		if err != nil {
			t.Fatalf("%s: oracle %s: %v", step, q, err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: %s: delta index answers %d nodes, oracle %d (or in another order)", step, q, len(got), len(want))
		}
	}
}

// deltaModel drives one seeded operation sequence over an index.
type deltaModel struct {
	ix      *Index
	rng     *rand.Rand
	opts    *xmlgraph.BuildOptions
	qs      []query.Query // checked after every operation
	adaptTo []string      // QTYPE1 texts adaptations sample from
	serial  int           // makes fragment-local ids and unseen labels unique

	// Coverage of the cases the harness exists for.
	multiSeed, rederived, newLabels, refsOut, localRefs, targetDeletes int
}

func newDeltaModel(t testing.TB, g *xmlgraph.Graph, opts *xmlgraph.BuildOptions, seed int64) *deltaModel {
	t.Helper()
	ix, err := FromGraph(g, &Options{IDAttrs: opts.IDAttrs, IDREFAttrs: opts.IDREFAttrs, IDREFSAttrs: opts.IDREFSAttrs})
	if err != nil {
		t.Fatal(err)
	}
	m := &deltaModel{ix: ix, rng: rand.New(rand.NewSource(seed)), opts: opts}
	gen := workload.New(g, seed)
	q1 := gen.QType1(60)
	for _, q := range q1 {
		m.adaptTo = append(m.adaptTo, q.String())
	}
	m.qs = append(m.qs, q1[:30]...)
	m.qs = append(m.qs, gen.QType2(8)...)
	m.qs = append(m.qs, gen.QType3(12)...)
	m.qs = append(m.qs, gen.QMixed(8)...)
	return m
}

// liveElement draws a live element other than the root (nil graph rows make
// removed nodes easy to skip); ok is false when the document has run dry.
func (m *deltaModel) liveElement(g *xmlgraph.Graph) (xmlgraph.NID, bool) {
	for try := 0; try < 200; try++ {
		n := xmlgraph.NID(m.rng.Intn(g.NumNodes()))
		if n != g.Root() && !g.Removed(n) && g.Node(n).Kind == xmlgraph.KindElement && len(g.In(n)) > 0 {
			return n, true
		}
	}
	return 0, false
}

// declaredID draws the value and element of a live ID declaration.
func (m *deltaModel) declaredID(g *xmlgraph.Graph) (string, xmlgraph.NID, bool) {
	for try := 0; try < 400; try++ {
		n := xmlgraph.NID(m.rng.Intn(g.NumNodes()))
		nd := g.Node(n)
		if nd.Kind == xmlgraph.KindAttribute && slices.Contains(m.opts.IDAttrs, nd.Tag) && !g.Removed(n) {
			if el, ok := g.LookupID(nd.Value); ok {
				return nd.Value, el, true
			}
		}
	}
	return "", 0, false
}

// subtreeSize counts the document subtree under n, up to limit.
func subtreeSize(g *xmlgraph.Graph, n xmlgraph.NID, limit int) int {
	size := 1
	for _, he := range g.Out(n) {
		if p, _, ok := g.HierarchyParent(he.To); ok && p == n && size < limit {
			size += subtreeSize(g, he.To, limit-size)
		}
	}
	return size
}

// fragment copies a small subtree of the document as the fragment to insert
// — so the document keeps the regular shape its schema gives it — and varies
// it: declared IDs are renamed (they must stay unique) and references to them
// follow, which makes them fragment-local references; references to IDs
// outside the copy stay and point at pre-existing elements; some tags become
// labels the document has never seen. It returns the fragment and the tag of
// the element the copy hung under ("" for the root).
func (m *deltaModel) fragment(g *xmlgraph.Graph) (frag, parentTag string) {
	var src xmlgraph.NID
	for try := 0; ; try++ {
		n, ok := m.liveElement(g)
		if !ok || try > 50 {
			m.serial++
			m.newLabels++
			return fmt.Sprintf("<zz%d>v</zz%d>", m.serial%5, m.serial%5), ""
		}
		if subtreeSize(g, n, 41) <= 40 {
			src = n
			break
		}
	}
	if p, _, ok := g.HierarchyParent(src); ok && p != g.Root() {
		parentTag = g.Node(p).Tag
	}
	// Declared IDs of the copy, renamed.
	renamed := map[string]string{}
	var collect func(n xmlgraph.NID)
	collect = func(n xmlgraph.NID) {
		for _, he := range g.Out(n) {
			if p, _, ok := g.HierarchyParent(he.To); !ok || p != n {
				continue
			}
			c := g.Node(he.To)
			if c.Kind == xmlgraph.KindAttribute && slices.Contains(m.opts.IDAttrs, c.Tag) {
				m.serial++
				renamed[c.Value] = fmt.Sprintf("new%d", m.serial)
			}
			collect(he.To)
		}
	}
	collect(src)
	ref := func(id string) (string, bool) {
		if local, ok := renamed[id]; ok {
			m.localRefs++
			return local, true
		}
		if _, ok := g.LookupID(id); ok {
			m.refsOut++
			return id, true
		}
		return "", false // its target was deleted earlier in the sequence
	}
	var b strings.Builder
	var elem func(n xmlgraph.NID)
	elem = func(n xmlgraph.NID) {
		tag := g.Node(n).Tag
		if m.rng.Intn(8) == 0 {
			m.serial++
			m.newLabels++
			tag = fmt.Sprintf("zz%d", m.serial%5)
		}
		fmt.Fprintf(&b, "<%s", tag)
		var kids []xmlgraph.NID
		for _, he := range g.Out(n) {
			if p, _, ok := g.HierarchyParent(he.To); !ok || p != n {
				continue
			}
			c := g.Node(he.To)
			switch {
			case c.Kind == xmlgraph.KindElement:
				kids = append(kids, he.To)
			case c.Kind != xmlgraph.KindAttribute:
			case slices.Contains(m.opts.IDAttrs, c.Tag):
				fmt.Fprintf(&b, ` %s="%s"`, c.Tag, renamed[c.Value])
			case slices.Contains(m.opts.IDREFAttrs, c.Tag):
				if id, ok := ref(c.Value); ok {
					fmt.Fprintf(&b, ` %s="%s"`, c.Tag, id)
				}
			case slices.Contains(m.opts.IDREFSAttrs, c.Tag):
				var ids []string
				for _, v := range strings.Fields(c.Value) {
					if id, ok := ref(v); ok {
						ids = append(ids, id)
					}
				}
				if len(ids) > 0 {
					fmt.Fprintf(&b, ` %s="%s"`, c.Tag, strings.Join(ids, " "))
				}
			default:
				fmt.Fprintf(&b, ` %s="%s"`, c.Tag, c.Value)
			}
		}
		b.WriteString(">")
		if v := g.Node(n).Value; v != "" && len(kids) == 0 {
			b.WriteString(v)
		}
		for _, k := range kids {
			elem(k)
		}
		if n == src && len(renamed) > 0 && len(m.opts.IDREFAttrs) > 0 && m.rng.Intn(2) == 0 {
			// A reference from inside the fragment to an ID it declares.
			for _, local := range renamed {
				fmt.Fprintf(&b, `<zzlink %s="%s"/>`, m.opts.IDREFAttrs[0], local)
				m.localRefs++
				break
			}
		}
		fmt.Fprintf(&b, "</%s>", tag)
	}
	elem(src)
	return b.String(), parentTag
}

// elementTagged draws a live element with the given tag.
func (m *deltaModel) elementTagged(g *xmlgraph.Graph, tag string) (xmlgraph.NID, bool) {
	for try := 0; try < 2000; try++ {
		if n, ok := m.liveElement(g); ok && g.Node(n).Tag == tag {
			return n, true
		}
	}
	return 0, false
}

// step runs one random operation and reports what it did.
func (m *deltaModel) step(t testing.TB) string {
	t.Helper()
	g := m.ix.Graph()
	switch r := m.rng.Intn(10); {
	case r < 5: // insert
		frag, parentTag := m.fragment(g)
		parent, what := g.Root(), "the root"
		if parentTag != "" {
			// Under an element like the one the copy came from; half the
			// time one that is a reference target, which more than one
			// summary node reaches.
			if _, el, ok := m.declaredID(g); ok && m.rng.Intn(2) == 0 && g.Node(el).Tag == parentTag {
				parent, what = el, fmt.Sprintf("reference target %d (%s)", el, parentTag)
			} else if n, ok := m.elementTagged(g, parentTag); ok {
				parent, what = n, fmt.Sprintf("node %d (%s)", n, parentTag)
			}
		}
		var err error
		if parent == g.Root() {
			err = m.ix.Insert("/", frag)
		} else {
			err = m.ix.InsertAtNode(parent, frag)
		}
		if err != nil {
			t.Fatalf("insert %s under %s: %v", frag, what, err)
		}
		if m.ix.idx.LastWrite().Seeds > 1 {
			m.multiSeed++
		}
		return fmt.Sprintf("insert %s under %s", frag, what)
	case r < 8: // delete
		n, ok := m.liveElement(g)
		if m.rng.Intn(3) == 0 {
			if _, el, found := m.declaredID(g); found && el != g.Root() {
				n, ok = el, true
				m.targetDeletes++
			}
		}
		if !ok {
			return "delete skipped: nothing left"
		}
		if err := m.ix.DeleteNodes([]xmlgraph.NID{n}); err != nil {
			t.Fatalf("delete %d: %v", n, err)
		}
		if m.ix.idx.LastWrite().Rederived {
			m.rederived++
		}
		return fmt.Sprintf("delete subtree %d (%s)", n, g.Node(n).Tag)
	default: // adapt
		var sample []string
		for _, q := range m.adaptTo {
			if m.rng.Intn(3) == 0 {
				sample = append(sample, q)
			}
		}
		if len(sample) == 0 {
			sample = m.adaptTo[:1]
		}
		minSup := []float64{0.005, 0.05, 0.2}[m.rng.Intn(3)]
		if err := m.ix.AdaptTo(sample, minSup); err != nil {
			t.Fatalf("adapt: %v", err)
		}
		return fmt.Sprintf("adapt to %d queries at %.3f", len(sample), minSup)
	}
}

// run drives ops operations, checking the oracle after each.
func (m *deltaModel) run(t testing.TB, ops int) {
	t.Helper()
	checkAgainstOracle(t, m.ix, m.qs, "initial build")
	for i := 0; i < ops; i++ {
		what := m.step(t)
		checkAgainstOracle(t, m.ix, m.qs, fmt.Sprintf("op %d (%s)", i, what))
	}
}

// TestDeltaMaintenanceMatchesRefresh is the differential test over the nine
// Table 1 datasets.
func TestDeltaMaintenanceMatchesRefresh(t *testing.T) {
	var total deltaModel
	for i, name := range datagen.DatasetNames() {
		name := name
		ds, err := datagen.LoadDataset(name, 0.02)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			m := newDeltaModel(t, ds.Graph, ds.Schema.BuildOptions(), int64(7+i))
			m.run(t, 40)
			total.multiSeed += m.multiSeed
			total.rederived += m.rederived
			total.newLabels += m.newLabels
			total.refsOut += m.refsOut
			total.localRefs += m.localRefs
			total.targetDeletes += m.targetDeletes
		})
	}
	t.Logf("coverage: %d multi-seed inserts, %d re-derived deletes, %d unseen labels, %d references out of fragments, %d fragment-local references, %d deletes of reference targets",
		total.multiSeed, total.rederived, total.newLabels, total.refsOut, total.localRefs, total.targetDeletes)
	for what, n := range map[string]int{
		"inserts seeded at more than one summary node": total.multiSeed,
		"deletes that re-derived":                      total.rederived,
		"never-seen labels":                            total.newLabels,
		"references to pre-existing IDs":               total.refsOut,
		"fragment-local references":                    total.localRefs,
		"deletes of reference targets":                 total.targetDeletes,
	} {
		if n == 0 {
			t.Errorf("the operation sequences never exercised %s", what)
		}
	}
}

// TestDeltaMaintenanceScale1 is the same harness on the benchmark's document
// at the benchmark's size.
func TestDeltaMaintenanceScale1(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale document")
	}
	ds, err := datagen.LoadDataset("Ged03.xml", 1.0)
	if err != nil {
		t.Fatal(err)
	}
	m := newDeltaModel(t, ds.Graph, ds.Schema.BuildOptions(), 11)
	m.run(t, 10)
}

// FuzzDeltaMaintenance lets the fuzzer pick the seed and length of the
// operation sequence, on a document small enough for thousands of runs.
func FuzzDeltaMaintenance(f *testing.F) {
	ds, err := datagen.LoadDataset("Ged01.xml", 0.05)
	if err != nil {
		f.Fatal(err)
	}
	xml := datagen.RegenerateXML("Ged01.xml", 0.05)
	opts := ds.Schema.BuildOptions()
	f.Add(int64(1), uint8(6))
	f.Add(int64(42), uint8(12))
	f.Fuzz(func(t *testing.T, seed int64, ops uint8) {
		g, err := xmlgraph.BuildString(xml, opts)
		if err != nil {
			t.Fatal(err)
		}
		newDeltaModel(t, g, opts, seed).run(t, int(ops%16))
	})
}
