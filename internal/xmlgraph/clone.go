package xmlgraph

import (
	"slices"
	"sync/atomic"
)

// Clone returns a copy of the graph that behaves as a deep one: mutating the
// copy (AppendFragment, RemoveSubtree) never touches the original, and vice
// versa. This is the substrate of the index facade's shadow-build
// publication — a data update mutates a private clone while readers keep
// serving from the original, and the finished clone is swapped in atomically.
//
// The copy is copy-on-write, so that a write pays for what it touches and
// not for |V|:
//
//   - The adjacency tables are paged (rowTable). The clone copies the page
//     directory and shares every page and every row; a writer first takes a
//     private copy of the page it writes a row header into and of the row it
//     appends to or compacts (RemoveSubtree compacts rows in place).
//   - The node table is append-only once built — a removed node keeps its
//     entry and is masked by its tombstone — so original and clone share one
//     backing array. Whoever appends first claims the free slots behind the
//     shared length through nodesTail and writes them in place, invisible to
//     every graph with a shorter length; a graph that finds them taken moves
//     to an array of its own. A write into the shared entries (SetOrder,
//     SetValue on an old node) moves too.
//   - The ID map is shared until one side registers or drops an ID.
//   - The tombstones (one byte per node) and the label counts are copied.
//
// Both graphs come out of Clone in the sharing state: the original must not
// assume it still owns what the clone can see. Clone may run concurrently
// with readers of g and with other Clone calls, not with a mutation of g.
func (g *Graph) Clone() *Graph {
	g.cowMu.Lock()
	g.idsShared = true
	g.out.seal()
	g.in.seal()
	if g.nodesTail == nil {
		g.nodesTail = new(atomic.Int64)
		g.nodesTail.Store(int64(len(g.nodes)))
	}
	g.nodesShared = len(g.nodes)
	g.cowMu.Unlock()
	c := &Graph{
		nodes:       g.nodes,
		out:         g.out.share(),
		in:          g.in.share(),
		root:        g.root,
		edgeCount:   g.edgeCount,
		maxOrder:    g.maxOrder,
		labels:      make(map[string]int, len(g.labels)),
		idrefLabels: make(map[string]bool, len(g.idrefLabels)),
		ids:         g.ids,
		removed:     slices.Clone(g.removed),
		idsShared:   true,
		nodesTail:   g.nodesTail,
		nodesShared: len(g.nodes),
	}
	c.docDepth.Store(g.docDepth.Load())
	for l, n := range g.labels {
		c.labels[l] = n
	}
	for l := range g.idrefLabels {
		c.idrefLabels[l] = true
	}
	return c
}

// appendNode adds n to the node table, in place where the graph owns or can
// claim the next slot of the backing array.
func (g *Graph) appendNode(n Node) {
	if l := len(g.nodes); g.nodesTail != nil && (l == cap(g.nodes) || !g.nodesTail.CompareAndSwap(int64(l), int64(l)+1)) {
		g.ownNodes()
	}
	g.nodes = append(g.nodes, n)
}

// ownNode makes sure g may write node id's entry.
func (g *Graph) ownNode(id NID) {
	if g.nodesTail != nil && int(id) < g.nodesShared {
		g.ownNodes()
	}
}

// ownNodes moves the node table to a backing array private to g, with room
// to grow so a run of appends moves once.
func (g *Graph) ownNodes() {
	l := len(g.nodes)
	g.nodes = slices.Grow(g.nodes[:l:l], l/16+64)
	g.nodesTail, g.nodesShared = nil, 0
}

// ownIDs makes the ID map private to g before a write.
func (g *Graph) ownIDs() {
	if !g.idsShared {
		return
	}
	ids := make(map[string]NID, len(g.ids)+1)
	for v, n := range g.ids {
		ids[v] = n
	}
	g.ids, g.idsShared = ids, false
}

// rowTable holds one adjacency row per node, in pages of rowPageSize rows so
// that a clone shares all of them and a writer copies only the pages and
// rows it touches. While cow is set, pages and rows may be shared with
// another table unless ownPage and ownRow list them as private copies.
type rowTable struct {
	pages   [][][]HalfEdge
	cow     bool
	ownPage map[int]struct{}
	ownRow  map[NID]struct{}
}

// seal puts t in the sharing state, owning nothing. It leaves the page
// directory alone: readers of the graph being cloned are reading it.
func (t *rowTable) seal() {
	t.cow, t.ownPage, t.ownRow = true, nil, nil
}

// share returns a sealed table with a page directory of its own that shares
// every page and row with t.
func (t *rowTable) share() rowTable {
	return rowTable{pages: slices.Clone(t.pages), cow: true}
}

// A page of 2048 row headers is 48 KB: six whole 8 KB runtime pages with no
// size-class rounding (a pointerful allocation between 512 B and 32 KB also
// carries an 8-byte header, which pushed a 512-row page into the next size
// class and cost 10% on the tables), yet small against the |V| headers a
// flat table would copy.
const (
	rowPageBits = 11
	rowPageSize = 1 << rowPageBits
)

// emptyRows returns a table of n empty rows.
func emptyRows(n int) rowTable {
	var t rowTable
	for i := 0; i < n; i++ {
		t.grow(i)
	}
	return t
}

// at returns the row of node id. The returned slice must not be modified.
func (t *rowTable) at(id NID) []HalfEdge {
	return t.pages[id>>rowPageBits][id&(rowPageSize-1)]
}

// ownPageOf makes page p private to t.
func (t *rowTable) ownPageOf(p int) {
	if !t.cow {
		return
	}
	if _, ok := t.ownPage[p]; !ok {
		if t.ownPage == nil {
			t.ownPage = make(map[int]struct{})
		}
		t.ownPage[p] = struct{}{}
		t.pages[p] = append(make([][]HalfEdge, 0, rowPageSize), t.pages[p]...)
	}
}

// slot returns where node id's row header lives, on a page private to t, for
// the caller to overwrite.
func (t *rowTable) slot(id NID) *[]HalfEdge {
	p := int(id >> rowPageBits)
	t.ownPageOf(p)
	return &t.pages[p][id&(rowPageSize-1)]
}

// edit is slot with the row's backing array made private too, so the caller
// may append to the row or compact it in place.
func (t *rowTable) edit(id NID) *[]HalfEdge {
	row := t.slot(id)
	if t.cow {
		if _, ok := t.ownRow[id]; !ok {
			if t.ownRow == nil {
				t.ownRow = make(map[NID]struct{})
			}
			t.ownRow[id] = struct{}{}
			*row = append(make([]HalfEdge, 0, len(*row)+1), *row...)
		}
	}
	return row
}

// grow appends an empty row for node n, the current number of rows. A partly
// filled last page may be shared, and its free slots belong to whoever
// copies it first.
func (t *rowTable) grow(n int) {
	p := n >> rowPageBits
	if p == len(t.pages) {
		t.pages = append(t.pages, make([][]HalfEdge, 0, rowPageSize))
	}
	t.ownPageOf(p)
	t.pages[p] = append(t.pages[p], nil)
}
