package storage

import (
	"encoding/binary"
	"fmt"
	"slices"

	"apex/internal/xmlgraph"
)

// DataTable is the paper's "data table which keeps all node identifiers
// (nid) and corresponding data values" (Section 6.1, QTYPE3 evaluation).
// Values are packed into pages; every lookup reads its page through a
// buffer pool so value-validation I/O is observable, exactly the cost the
// strong DataGuide and APEX pay in the Figure 15 experiment while the Index
// Fabric does not.
type DataTable struct {
	pager *MemPager
	pool  *BufferPool
	// loc[nid] packs page id (high 32 bits) and in-page offset (low 32);
	// -1 means the node has no value.
	loc []int64
}

const noValue = int64(-1)

// BuildDataTable packs the values of every value-bearing node of g into a
// fresh paged store. poolFrames sizes the buffer pool (<=0 means a pool of
// 64 frames). Values longer than a page are rejected — the generators never
// produce them and real XML leaf text under 8 KB is the common case the
// paper assumes.
func BuildDataTable(g *xmlgraph.Graph, pageSize, poolFrames int) (*DataTable, error) {
	if poolFrames <= 0 {
		poolFrames = 64
	}
	d := &DataTable{pager: NewMemPager(pageSize)}
	if err := d.pack(g, poolFrames); err != nil {
		return nil, err
	}
	return d, nil
}

// Apply returns the data table of g given d, the table of the graph g was
// cloned from before a write: the values of the nodes appended since are
// packed into fresh pages behind d's, and the dropped (removed) nodes lose
// theirs. The value pages — immutable once written — are shared with d, which
// keeps serving its own readers; only the per-node locator is copied. The
// new table starts with a cold buffer pool of d's capacity.
func (d *DataTable) Apply(g *xmlgraph.Graph, dropped []xmlgraph.NID) (*DataTable, error) {
	nd := &DataTable{
		pager: &MemPager{pageSize: d.pager.pageSize, pages: slices.Clip(d.pager.pages)},
		loc:   slices.Clone(d.loc),
	}
	for _, n := range dropped {
		if int(n) < len(nd.loc) {
			nd.loc[n] = noValue
		}
	}
	if err := nd.pack(g, d.pool.capacity); err != nil {
		return nil, err
	}
	return nd, nil
}

// pack appends the values of g's nodes from len(d.loc) upward to d's pager,
// extends the locator over them and (re)creates the buffer pool.
func (d *DataTable) pack(g *xmlgraph.Graph, poolFrames int) error {
	pager := d.pager
	first := len(d.loc)
	d.loc = slices.Grow(d.loc, g.NumNodes()-first)[:g.NumNodes()]
	loc := d.loc
	for i := first; i < len(loc); i++ {
		loc[i] = noValue
	}

	cur := make([]byte, 0, pager.PageSize())
	flush := func() {
		if len(cur) > 0 {
			pager.AppendPage(cur)
			cur = cur[:0]
		}
	}
	for i := first; i < g.NumNodes(); i++ {
		v := g.Value(xmlgraph.NID(i))
		if v == "" {
			continue
		}
		// Entry layout: uvarint length followed by the bytes.
		var hdr [binary.MaxVarintLen32]byte
		n := binary.PutUvarint(hdr[:], uint64(len(v)))
		need := n + len(v)
		if need > pager.PageSize() {
			return fmt.Errorf("storage: value of node %d (%d bytes) exceeds page size %d", i, len(v), pager.PageSize())
		}
		if len(cur)+need > pager.PageSize() {
			flush()
		}
		page := int64(pager.NumPages()) // page the entry will land on
		off := int64(len(cur))
		cur = append(cur, hdr[:n]...)
		cur = append(cur, v...)
		loc[i] = page<<32 | off
	}
	flush()
	d.pool = NewBufferPool(pager, poolFrames)
	return nil
}

// Lookup returns the value of nid and whether it has one. Each hit costs one
// logical page read.
func (d *DataTable) Lookup(nid xmlgraph.NID) (string, bool) {
	if int(nid) >= len(d.loc) || nid < 0 {
		return "", false
	}
	l := d.loc[nid]
	if l == noValue {
		return "", false
	}
	page, off := PageID(l>>32), int(int32(l))
	data, err := d.pool.ReadPage(page)
	if err != nil {
		// Internal invariant violation: loc always references valid pages.
		panic(fmt.Sprintf("storage: data table corrupt: %v", err))
	}
	length, n := binary.Uvarint(data[off:])
	return string(data[off+n : off+n+int(length)]), true
}

// HasValue reports whether nid has character data without touching pages.
func (d *DataTable) HasValue(nid xmlgraph.NID) bool {
	return nid >= 0 && int(nid) < len(d.loc) && d.loc[nid] != noValue
}

// Stats returns the buffer-pool traffic accumulated by lookups.
func (d *DataTable) Stats() IOStats { return d.pool.Stats() }

// ResetStats zeroes the traffic counters.
func (d *DataTable) ResetStats() { d.pool.ResetStats() }

// NumPages returns the number of value pages.
func (d *DataTable) NumPages() int { return d.pager.NumPages() }
