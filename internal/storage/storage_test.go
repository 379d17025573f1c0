package storage

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"apex/internal/xmlgraph"
)

func TestMemPagerRoundTrip(t *testing.T) {
	p := NewMemPager(16)
	id := p.AppendPage([]byte("hello"))
	data, err := p.ReadPage(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 16 || string(data[:5]) != "hello" {
		t.Fatalf("page = %q", data)
	}
	if p.Reads() != 1 {
		t.Fatalf("Reads = %d", p.Reads())
	}
	if _, err := p.ReadPage(99); err == nil {
		t.Fatal("want out-of-range error")
	}
}

func TestMemPagerDefaultSize(t *testing.T) {
	if NewMemPager(0).PageSize() != DefaultPageSize {
		t.Fatal("default page size not applied")
	}
}

func TestBufferPoolLRU(t *testing.T) {
	p := NewMemPager(8)
	for i := 0; i < 4; i++ {
		p.AppendPage([]byte{byte(i)})
	}
	bp := NewBufferPool(p, 2)
	read := func(id PageID) {
		if _, err := bp.ReadPage(id); err != nil {
			t.Fatal(err)
		}
	}
	read(0)
	read(1)
	read(0) // hit, keeps 0 hot
	read(2) // evicts 1
	read(1) // miss again
	s := bp.Stats()
	if s.Logical != 5 || s.Physical != 4 {
		t.Fatalf("stats = %+v, want logical=5 physical=4", s)
	}
	if bp.Len() != 2 {
		t.Fatalf("resident frames = %d", bp.Len())
	}
}

func TestBufferPoolZeroCapacity(t *testing.T) {
	p := NewMemPager(8)
	p.AppendPage([]byte{1})
	bp := NewBufferPool(p, 0)
	bp.ReadPage(0)
	bp.ReadPage(0)
	s := bp.Stats()
	if s.Physical != 2 {
		t.Fatalf("zero-capacity pool cached: %+v", s)
	}
	if s.HitRatio() != 0 {
		t.Fatalf("hit ratio = %f", s.HitRatio())
	}
}

func TestBufferPoolResetStats(t *testing.T) {
	p := NewMemPager(8)
	p.AppendPage(nil)
	bp := NewBufferPool(p, 1)
	bp.ReadPage(0)
	bp.ResetStats()
	if s := bp.Stats(); s.Logical != 0 || s.Physical != 0 {
		t.Fatalf("stats after reset = %+v", s)
	}
}

func TestIOStatsString(t *testing.T) {
	s := IOStats{Logical: 4, Physical: 1}
	if got := s.String(); got != "logical=4 physical=1 hit=0.75" {
		t.Fatalf("String = %q", got)
	}
	if (IOStats{}).HitRatio() != 0 {
		t.Fatal("empty stats hit ratio")
	}
}

func buildValueGraph(t *testing.T, values []string) *xmlgraph.Graph {
	t.Helper()
	var b strings.Builder
	b.WriteString("<r>")
	for _, v := range values {
		fmt.Fprintf(&b, "<e>%s</e>", v)
	}
	b.WriteString("</r>")
	g, err := xmlgraph.BuildString(b.String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestDataTableLookup(t *testing.T) {
	g := buildValueGraph(t, []string{"alpha", "beta", "gamma"})
	dt, err := BuildDataTable(g, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for i := 0; i < g.NumNodes(); i++ {
		if v, ok := dt.Lookup(xmlgraph.NID(i)); ok {
			found[v] = true
			if !dt.HasValue(xmlgraph.NID(i)) {
				t.Fatalf("HasValue disagrees with Lookup for node %d", i)
			}
		}
	}
	for _, want := range []string{"alpha", "beta", "gamma"} {
		if !found[want] {
			t.Fatalf("value %q not found; got %v", want, found)
		}
	}
	if _, ok := dt.Lookup(g.Root()); ok {
		t.Fatal("root has no value but Lookup returned one")
	}
	if _, ok := dt.Lookup(-1); ok {
		t.Fatal("negative nid")
	}
	if dt.Stats().Logical == 0 {
		t.Fatal("lookups did not count page reads")
	}
}

func TestDataTableSpillsAcrossPages(t *testing.T) {
	vals := make([]string, 50)
	for i := range vals {
		vals[i] = strings.Repeat("x", 20)
	}
	g := buildValueGraph(t, vals)
	dt, err := BuildDataTable(g, 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	if dt.NumPages() < 10 {
		t.Fatalf("NumPages = %d, expected many small pages", dt.NumPages())
	}
	for i := 0; i < g.NumNodes(); i++ {
		nid := xmlgraph.NID(i)
		if g.Value(nid) == "" {
			continue
		}
		if v, ok := dt.Lookup(nid); !ok || v != g.Value(nid) {
			t.Fatalf("node %d: got %q ok=%v", i, v, ok)
		}
	}
}

func TestDataTableOversizeValue(t *testing.T) {
	g := buildValueGraph(t, []string{strings.Repeat("y", 100)})
	if _, err := BuildDataTable(g, 32, 2); err == nil {
		t.Fatal("want oversize error")
	}
}

// Property: for random value assignments, every stored value round-trips.
func TestDataTableRoundTripProperty(t *testing.T) {
	f := func(raw []string) bool {
		vals := make([]string, 0, len(raw))
		for _, v := range raw {
			// keep values page-sized and XML-safe
			v = strings.Map(func(r rune) rune {
				if r < 32 || r == '<' || r == '&' || r == '>' || r > 126 {
					return 'a'
				}
				return r
			}, v)
			if len(v) > 100 {
				v = v[:100]
			}
			vals = append(vals, v)
		}
		g := xmlgraph.NewGraph()
		root := g.AddNode(xmlgraph.KindElement, "r", "")
		g.SetRoot(root)
		var want []string
		for _, v := range vals {
			n := g.AddNode(xmlgraph.KindElement, "e", v)
			g.AddEdge(root, "e", n)
			want = append(want, v)
		}
		dt, err := BuildDataTable(g, 256, 3)
		if err != nil {
			return false
		}
		i := 0
		for n := 1; n < g.NumNodes(); n++ {
			v, ok := dt.Lookup(xmlgraph.NID(n))
			expect := want[i]
			i++
			if expect == "" {
				if ok {
					return false
				}
				continue
			}
			if !ok || v != expect {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBufferPoolConcurrentReads(t *testing.T) {
	p := NewMemPager(8)
	for i := 0; i < 32; i++ {
		p.AppendPage([]byte{byte(i)})
	}
	bp := NewBufferPool(p, 8)
	const readers, reads = 8, 400
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				id := PageID((r*31 + i) % 32)
				data, err := bp.ReadPage(id)
				if err != nil {
					t.Error(err)
					return
				}
				if data[0] != byte(id) {
					t.Errorf("page %d returned %d", id, data[0])
					return
				}
			}
		}(r)
	}
	wg.Wait()
	if s := bp.Stats(); s.Logical != readers*reads {
		t.Fatalf("logical = %d, want %d", s.Logical, readers*reads)
	}
	if bp.Len() > 8 {
		t.Fatalf("resident frames = %d, capacity 8", bp.Len())
	}
}

// TestDataTableApply checks the incremental table against a rebuild: values
// of appended nodes are found, dropped nodes lose theirs, the old table keeps
// answering as before, and the old pages are shared, not copied.
func TestDataTableApply(t *testing.T) {
	g, err := xmlgraph.BuildString(`<r><a>one</a><b>two</b><c>three</c></r>`, nil)
	if err != nil {
		t.Fatal(err)
	}
	old, err := BuildDataTable(g, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	g2 := g.Clone()
	if _, err := g2.AppendFragment(g2.Root(), `<d>four</d>`, nil); err != nil {
		t.Fatal(err)
	}
	rem, err := g2.RemoveSubtreeDelta(g2.OutWithLabel(g2.Root(), "b")[0])
	if err != nil {
		t.Fatal(err)
	}
	got, err := old.Apply(g2, rem.Nodes)
	if err != nil {
		t.Fatal(err)
	}
	want, err := BuildDataTable(g2, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < g2.NumNodes(); i++ {
		gv, gok := got.Lookup(xmlgraph.NID(i))
		wv, wok := want.Lookup(xmlgraph.NID(i))
		if gv != wv || gok != wok || got.HasValue(xmlgraph.NID(i)) != wok {
			t.Fatalf("node %d: applied table has (%q, %v), a rebuild (%q, %v)", i, gv, gok, wv, wok)
		}
	}
	if v, ok := old.Lookup(g.OutWithLabel(g.Root(), "b")[0]); !ok || v != "two" {
		t.Fatalf("the table applied from lost a value: %q, %v", v, ok)
	}
	if old.NumPages() != 1 || got.NumPages() != 2 || &old.pager.pages[0][0] != &got.pager.pages[0][0] {
		t.Fatal("value pages are not shared with the table applied from")
	}
}
