// Package core implements APEX, the adaptive path index of Min, Chung and
// Shim (SIGMOD 2002). APEX couples a structural-summary graph G_APEX, whose
// nodes carry extents (target edge sets T^R of required label paths,
// Definitions 7–9), with a hash tree H_APEX that maps label-path suffixes to
// G_APEX nodes in reverse label order. The index keeps every label path of
// length ≤ 2 plus the paths frequently used by the query workload, and is
// updated incrementally when the workload drifts (Figures 6, 8 and 11 of the
// paper).
package core

import (
	"slices"
	"sort"
	"strings"

	"apex/internal/extentblock"
	"apex/internal/xmlgraph"
)

// EdgeSet is a set of <parentNid, nid> pairs — the extent representation of
// Definition 7. The zero value is not usable; call NewEdgeSet.
//
// An EdgeSet has three states:
//
//   - Mutable (building): membership is a map, pairs accumulate in a slice.
//     This is the state builds, updates, and refreshes work in.
//   - Frozen flat (serving): the pairs live in two deduplicated sorted
//     columns — byFrom ordered by (From, To) and byTo ordered by (To, From)
//     — plus a precomputed distinct-ends slice. The map and staging slice
//     are dropped; Contains becomes a binary search, scans read the sorted
//     column, and the merge-join kernel in internal/query consumes byFrom
//     and ends directly.
//   - Frozen compressed (serving): the same three columns packed into
//     delta-encoded, bit-packed blocks with a per-block skip index
//     (internal/extentblock), selected by APEX.SetCompressExtents. Logical
//     content and ordering are identical to the flat form; the merge kernel
//     switches to block cursors and everything else decodes on demand.
//
// Extents are append-only between adaptation rounds, so the index freezes
// every extent once at each publication point (after BuildAPEX0, Update,
// RefreshData, a data delta, Decode — the moments a maintenance pass ends).
// A few pairs added to a frozen set wait in a small overlay (pend) that the
// next publication merges into the sorted columns in one linear pass; only a
// delta too large for the overlay thaws the set back to the mutable state.
// Both happen on a maintenance pass's private copy only — a published set
// never carries an overlay.
type EdgeSet struct {
	m     map[xmlgraph.EdgePair]struct{} // nil while frozen
	pairs []xmlgraph.EdgePair            // staging, insertion order; nil while frozen

	frozen bool
	// pend holds the pairs added since the columns were built, in insertion
	// order, disjoint from the columns and from each other. Non-empty only
	// between an Add on a frozen set and the next publication (or the next
	// accessor that needs whole columns, which settles it first).
	pend []xmlgraph.EdgePair
	// shared marks a frozen set whose columns alias another EdgeSet's (a
	// structure-sharing clone, see CloneShared): thawing such a set must copy
	// before mutating, because the original may still be serving readers.
	shared bool
	byFrom []xmlgraph.EdgePair // sorted by (From, To), deduplicated; nil while compressed
	byTo   []xmlgraph.EdgePair // sorted by (To, From), deduplicated; nil while compressed
	ends   []xmlgraph.NID      // distinct To values, ascending; nil while compressed

	// Compressed frozen form: block-packed equivalents of the three flat
	// columns. Exactly one of (byFrom, byTo, ends) and (cFrom, cTo, cEnds)
	// is populated while frozen.
	cFrom *extentblock.PairColumn
	cTo   *extentblock.PairColumn
	cEnds *extentblock.NIDColumn

	// starts is the distinct From count, computed once when the columns are
	// built and carried across form conversions — the per-extent statistic
	// the query planner's backward-direction estimate reads without touching
	// any column. 0 while mutable (the count is a publication-time artifact)
	// and for compressed sets loaded straight from segments, where counting
	// would mean a full decode (stats consumers treat 0 as unknown).
	starts int
}

// NewEdgeSet returns an empty edge set.
func NewEdgeSet() *EdgeSet {
	return &EdgeSet{m: make(map[xmlgraph.EdgePair]struct{})}
}

// maxPending bounds the overlay of a frozen set. Membership in the overlay
// is a linear scan, so it stays small; a delta that outgrows it pays the
// thaw (map rebuild, full re-sort at publication) that bulk changes always
// paid.
const maxPending = 64

// Add inserts pair, reporting whether it was new. Adding to a frozen set
// parks the pair in the overlay, or thaws the set back to the mutable state
// once the overlay is full.
func (s *EdgeSet) Add(p xmlgraph.EdgePair) bool {
	if s.frozen {
		if s.Contains(p) {
			return false
		}
		if len(s.pend) < maxPending {
			if s.Compressed() {
				// The merge at publication needs flat columns anyway;
				// decoding now keeps the overlay a flat-form-only state.
				s.unpackColumns()
				s.shared = false
			}
			s.pend = append(s.pend, p)
			return true
		}
		s.thaw()
	}
	if _, ok := s.m[p]; ok {
		return false
	}
	s.m[p] = struct{}{}
	s.pairs = append(s.pairs, p)
	return true
}

// AddAll inserts every pair of batch and filters batch in place down to the
// pairs that were new, in their original order.
func (s *EdgeSet) AddAll(batch []xmlgraph.EdgePair) []xmlgraph.EdgePair {
	k := 0
	for _, p := range batch {
		if s.Add(p) {
			batch[k] = p
			k++
		}
	}
	return batch[:k]
}

// RemoveAll deletes the pairs of batch that the set holds and returns how
// many it held. A frozen set stays frozen: its columns are rebuilt without
// the pairs in one linear pass (as flat columns — the next publication
// repacks a set that should be compressed), never in place, because a
// structure-sharing clone's original may still be serving them.
func (s *EdgeSet) RemoveAll(batch []xmlgraph.EdgePair) int {
	dead := make(map[xmlgraph.EdgePair]struct{}, len(batch))
	for _, p := range batch {
		if s.Contains(p) {
			dead[p] = struct{}{}
		}
	}
	if len(dead) == 0 {
		return 0
	}
	gone := func(p xmlgraph.EdgePair) bool { _, ok := dead[p]; return ok }
	if !s.frozen {
		for p := range dead {
			delete(s.m, p)
		}
		s.pairs = slices.DeleteFunc(s.pairs, gone)
		return len(dead)
	}
	s.settle()
	if s.Compressed() {
		s.unpackColumns()
	}
	s.setColumns(slices.DeleteFunc(slices.Clone(s.byFrom), gone), slices.DeleteFunc(slices.Clone(s.byTo), gone))
	return len(dead)
}

// Freeze publishes the set in its flat columnar serving form. Idempotent; a
// frozen set (flat or compressed) stays frozen until the next Add. The
// publication points use FreezeAs instead, which also honors the index's
// compression setting.
func (s *EdgeSet) Freeze() {
	if s == nil {
		return
	}
	if s.frozen {
		s.settle()
		return
	}
	s.sortColumns()
	s.frozen = true
}

// PackThreshold is the minimum pair count at which FreezeAs(true) actually
// block-packs an extent. Below it the per-block metadata (two pair-column
// block headers plus the ends header) outweighs the bit-packed savings —
// a one-pair extent would cost ~3× its flat 20 bytes — so tiny extents
// serve flat even under CompressExtents. Every consumer dispatches on the
// actual per-set form, so the mix is invisible to queries.
const PackThreshold = 32

// FreezeAs publishes the set in the requested serving form, converting an
// already-frozen set whose form disagrees (the adaptation path when
// CompressExtents flips, and the recovery path when segment form and options
// disagree). Conversion builds fresh columns, so a structure-sharing clone's
// aliased original is never disturbed.
func (s *EdgeSet) FreezeAs(compress bool) {
	if s == nil {
		return
	}
	if !s.frozen {
		s.sortColumns()
		s.frozen = true
	}
	s.settle()
	switch want := compress && s.Len() >= PackThreshold; {
	case want && !s.Compressed():
		s.packColumns()
		s.shared = false
	case !want && s.Compressed():
		s.unpackColumns()
		s.shared = false
	}
}

// FormStale reports whether republishing under the given compression policy
// would change the set's serving form — the dirty check FreezeExtents uses
// when Options.CompressExtents flips or recovery loads a mismatched form.
func (s *EdgeSet) FormStale(compress bool) bool {
	if !s.Frozen() {
		return true
	}
	return s.Compressed() != (compress && s.Len() >= PackThreshold)
}

// sortColumns builds the flat columns from the mutable staging state.
func (s *EdgeSet) sortColumns() {
	keys := make([]uint64, len(s.pairs))
	byFrom := sortedPairs(s.pairs, false, keys)
	byTo := sortedPairs(s.pairs, true, keys)
	s.setColumns(byFrom, byTo)
	s.m = nil
	s.pairs = nil
}

// setColumns installs freshly built private flat columns — byFrom sorted by
// (From, To), byTo by (To, From) — and derives the ends column and the
// distinct-starts count from them.
func (s *EdgeSet) setColumns(byFrom, byTo []xmlgraph.EdgePair) {
	s.byFrom, s.byTo = byFrom, byTo
	s.ends = make([]xmlgraph.NID, 0, len(s.ends))
	for i, p := range byTo {
		if i == 0 || p.To != byTo[i-1].To {
			s.ends = append(s.ends, p.To)
		}
	}
	s.starts = countStarts(byFrom)
	s.shared = false
}

// sortedPairs returns a fresh copy of ps sorted by (From, To), or by
// (To, From) when byTo is set, using keys (len(ps) words) as scratch. Each
// pair is packed into one uint64 whose integer order is the pair order
// (flipping the sign bit maps int32 order onto uint32 order, NullNID = -1
// included), which lets the sort run on plain machine words with no
// comparison callback.
func sortedPairs(ps []xmlgraph.EdgePair, byTo bool, keys []uint64) []xmlgraph.EdgePair {
	const signBit = 1 << 31
	for i, p := range ps {
		hi, lo := p.From, p.To
		if byTo {
			hi, lo = lo, hi
		}
		keys[i] = uint64(uint32(hi)^signBit)<<32 | uint64(uint32(lo)^signBit)
	}
	slices.Sort(keys)
	out := make([]xmlgraph.EdgePair, len(ps))
	for i, k := range keys {
		hi, lo := xmlgraph.NID(uint32(k>>32)^signBit), xmlgraph.NID(uint32(k)^signBit)
		if byTo {
			hi, lo = lo, hi
		}
		out[i] = xmlgraph.EdgePair{From: hi, To: lo}
	}
	return out
}

// settle merges the overlay into the columns: the overlay is sorted (it is
// small) and merged into each flat column in one linear pass, into fresh
// slices (Add already decoded a compressed set; the next publication
// repacks it). No-op for a set without an overlay, which is every
// published set — accessors that need whole columns call it first, and on a
// set readers can reach it never writes.
func (s *EdgeSet) settle() {
	if s != nil && len(s.pend) > 0 {
		s.mergePending()
	}
}

func (s *EdgeSet) mergePending() {
	add := s.pend
	s.pend = nil
	keys := make([]uint64, len(add))
	byFrom := mergePairs(s.byFrom, sortedPairs(add, false, keys), lessFromTo)
	byTo := mergePairs(s.byTo, sortedPairs(add, true, keys), lessToFrom)
	s.setColumns(byFrom, byTo)
}

// mergePairs merges two disjoint runs sorted under less into a fresh slice.
func mergePairs(a, b []xmlgraph.EdgePair, less func(x, y xmlgraph.EdgePair) bool) []xmlgraph.EdgePair {
	out := make([]xmlgraph.EdgePair, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if less(b[0], a[0]) {
			out = append(out, b[0])
			b = b[1:]
		} else {
			out = append(out, a[0])
			a = a[1:]
		}
	}
	out = append(out, a...)
	return append(out, b...)
}

// countStarts counts the distinct From values of a (From, To)-sorted column.
func countStarts(byFrom []xmlgraph.EdgePair) int {
	n := 0
	for i, p := range byFrom {
		if i == 0 || p.From != byFrom[i-1].From {
			n++
		}
	}
	return n
}

// packColumns converts the flat frozen columns to the block-compressed form.
func (s *EdgeSet) packColumns() {
	s.cFrom = extentblock.Pack(s.byFrom, false)
	s.cTo = extentblock.Pack(s.byTo, true)
	s.cEnds = extentblock.PackNIDs(s.ends)
	s.byFrom, s.byTo, s.ends = nil, nil, nil
}

// unpackColumns decodes the block-compressed columns back to the flat form.
func (s *EdgeSet) unpackColumns() {
	s.byFrom = s.cFrom.AppendAll(make([]xmlgraph.EdgePair, 0, s.cFrom.Len()))
	s.byTo = s.cTo.AppendAll(make([]xmlgraph.EdgePair, 0, s.cTo.Len()))
	s.ends = s.cEnds.AppendAll(make([]xmlgraph.NID, 0, s.cEnds.Len()))
	s.cFrom, s.cTo, s.cEnds = nil, nil, nil
}

// thaw rebuilds the mutable state from the frozen columns. The staging order
// after a thaw is the (From, To) sorted order. A shared flat set copies its
// column first: the aliased original may be serving concurrent readers, and
// the staging slice is about to be appended to. A compressed set decodes,
// which is inherently a private copy. Overlay pairs follow the column pairs.
func (s *EdgeSet) thaw() {
	pend := s.pend
	s.pend = nil
	switch {
	case s.Compressed():
		s.pairs = s.cFrom.AppendAll(make([]xmlgraph.EdgePair, 0, s.cFrom.Len()))
		s.cFrom, s.cTo, s.cEnds = nil, nil, nil
		s.shared = false
	case s.shared:
		s.pairs = append([]xmlgraph.EdgePair(nil), s.byFrom...)
		s.shared = false
	default:
		s.pairs = s.byFrom
	}
	s.pairs = append(s.pairs, pend...)
	s.m = make(map[xmlgraph.EdgePair]struct{}, len(s.pairs))
	for _, p := range s.pairs {
		s.m[p] = struct{}{}
	}
	s.byFrom, s.byTo, s.ends = nil, nil, nil
	s.frozen = false
	s.starts = 0
}

// CloneShared returns a copy of the set for shadow maintenance. A frozen set
// clones in O(1) by sharing the columnar storage (copy-on-thaw: the first Add
// to the clone copies before mutating); a mutable set is deep-copied. Either
// way, no subsequent operation on the clone can be observed through the
// original.
func (s *EdgeSet) CloneShared() *EdgeSet {
	if s == nil {
		return nil
	}
	s.settle()
	if s.frozen {
		return &EdgeSet{
			frozen: true, shared: true,
			byFrom: s.byFrom, byTo: s.byTo, ends: s.ends,
			cFrom: s.cFrom, cTo: s.cTo, cEnds: s.cEnds,
		}
	}
	c := &EdgeSet{
		m:     make(map[xmlgraph.EdgePair]struct{}, len(s.m)),
		pairs: append([]xmlgraph.EdgePair(nil), s.pairs...),
	}
	for p := range s.m {
		c.m[p] = struct{}{}
	}
	return c
}

// Frozen reports whether the set is in a columnar serving form (flat or
// compressed) with nothing waiting in the overlay.
func (s *EdgeSet) Frozen() bool { return s != nil && s.frozen && len(s.pend) == 0 }

// Compressed reports whether the set is in the block-compressed frozen form.
func (s *EdgeSet) Compressed() bool { return s != nil && s.cFrom != nil }

// CompressedColumns exposes the block-packed columns of a compressed frozen
// set — the merge kernel's block-cursor inputs. ok is false for mutable and
// flat-frozen sets.
func (s *EdgeSet) CompressedColumns() (byFrom, byTo *extentblock.PairColumn, ends *extentblock.NIDColumn, ok bool) {
	s.settle()
	if !s.Compressed() {
		return nil, nil, nil, false
	}
	return s.cFrom, s.cTo, s.cEnds, true
}

// FrozenColumns exposes the three serving columns of a frozen set for
// serialization. For a flat set the slices are the set's own backing store —
// read-only; a compressed set decodes fresh private slices (the checkpoint
// writer consumes one extent at a time, so the transient flat copy is
// bounded by the largest extent, never the whole index). ok is false while
// the set is mutable.
func (s *EdgeSet) FrozenColumns() (byFrom, byTo []xmlgraph.EdgePair, ends []xmlgraph.NID, ok bool) {
	s.settle()
	if s == nil || !s.frozen {
		return nil, nil, nil, false
	}
	if s.Compressed() {
		return s.cFrom.AppendAll(make([]xmlgraph.EdgePair, 0, s.cFrom.Len())),
			s.cTo.AppendAll(make([]xmlgraph.EdgePair, 0, s.cTo.Len())),
			s.cEnds.AppendAll(make([]xmlgraph.NID, 0, s.cEnds.Len())), true
	}
	return s.byFrom, s.byTo, s.ends, true
}

// NewFrozenEdgeSet constructs a set directly in its frozen serving form from
// externally decoded columns (the segment loader's path): byFrom sorted by
// (From, To), byTo sorted by (To, From), ends the distinct To values
// ascending. The caller owns validation — the decoder enforces order and
// cross-column consistency before this is reached — and cedes the slices.
func NewFrozenEdgeSet(byFrom, byTo []xmlgraph.EdgePair, ends []xmlgraph.NID) *EdgeSet {
	return &EdgeSet{frozen: true, byFrom: byFrom, byTo: byTo, ends: ends, starts: countStarts(byFrom)}
}

// NewCompressedEdgeSet constructs a set directly in its block-compressed
// frozen form from externally packed columns — the segment loader's path
// when CompressExtents is on, which feeds decoded segment pairs straight
// into block packers without ever materializing the flat slices. The caller
// owns validation, exactly as for NewFrozenEdgeSet.
func NewCompressedEdgeSet(byFrom, byTo *extentblock.PairColumn, ends *extentblock.NIDColumn) *EdgeSet {
	return &EdgeSet{frozen: true, cFrom: byFrom, cTo: byTo, cEnds: ends}
}

func lessFromTo(a, b xmlgraph.EdgePair) bool {
	if a.From != b.From {
		return a.From < b.From
	}
	return a.To < b.To
}

func lessToFrom(a, b xmlgraph.EdgePair) bool {
	if a.To != b.To {
		return a.To < b.To
	}
	return a.From < b.From
}

// Contains reports membership of pair: a map hit while mutable, a binary
// search over the (To, From) column while frozen — over the block directory
// plus one in-place block scan in the compressed form, never decoding into
// a buffer.
func (s *EdgeSet) Contains(p xmlgraph.EdgePair) bool {
	if s == nil {
		return false
	}
	if !s.frozen {
		_, ok := s.m[p]
		return ok
	}
	if slices.Contains(s.pend, p) {
		return true
	}
	if s.Compressed() {
		return s.cTo.Contains(p)
	}
	i := sort.Search(len(s.byTo), func(i int) bool { return !lessToFrom(s.byTo[i], p) })
	return i < len(s.byTo) && s.byTo[i] == p
}

// Len returns the number of edges in the set.
func (s *EdgeSet) Len() int {
	if s == nil {
		return 0
	}
	if s.Compressed() {
		return s.cFrom.Len()
	}
	if s.frozen {
		return len(s.byFrom) + len(s.pend)
	}
	return len(s.m)
}

// Each calls fn for every pair: in (From, To) order when frozen, in
// insertion order while mutable.
func (s *EdgeSet) Each(fn func(xmlgraph.EdgePair)) {
	if s == nil {
		return
	}
	for _, p := range s.Pairs() {
		fn(p)
	}
}

// Pairs returns the pairs — the frozen (From, To) column, or the staging
// slice in insertion order while mutable. For flat forms the slice is the
// set's own backing store (callers must treat it as read-only); a compressed
// set decodes a fresh copy per call, so hot paths should use the block
// cursors (CompressedColumns) instead.
func (s *EdgeSet) Pairs() []xmlgraph.EdgePair {
	s.settle()
	if s == nil {
		return nil
	}
	if s.Compressed() {
		return s.cFrom.AppendAll(make([]xmlgraph.EdgePair, 0, s.cFrom.Len()))
	}
	if s.frozen {
		return s.byFrom
	}
	return s.pairs
}

// PairsByFrom returns the pairs sorted by (From, To) — the flat frozen
// column when available (no copy, read-only), a freshly built copy
// otherwise. The merge-join kernel requires this order; on compressed sets
// it consumes the block cursors instead of this decoded copy.
func (s *EdgeSet) PairsByFrom() []xmlgraph.EdgePair {
	s.settle()
	if s == nil {
		return nil
	}
	if s.Compressed() {
		return s.cFrom.AppendAll(make([]xmlgraph.EdgePair, 0, s.cFrom.Len()))
	}
	if s.frozen {
		return s.byFrom
	}
	return sortedPairs(s.pairs, false, make([]uint64, len(s.pairs)))
}

// Ends returns the distinct end nids of all pairs. Flat frozen sets serve
// the precomputed ascending slice (no copy, read-only); compressed sets
// decode a fresh ascending copy; mutable sets pay one map pass per call, in
// first-seen order.
func (s *EdgeSet) Ends() []xmlgraph.NID {
	s.settle()
	if s == nil {
		return nil
	}
	if s.Compressed() {
		return s.cEnds.AppendAll(make([]xmlgraph.NID, 0, s.cEnds.Len()))
	}
	if s.frozen {
		return s.ends
	}
	seen := make(map[xmlgraph.NID]bool, len(s.m))
	var res []xmlgraph.NID
	for _, p := range s.pairs {
		if !seen[p.To] {
			seen[p.To] = true
			res = append(res, p.To)
		}
	}
	return res
}

// EndsAppend appends the distinct end nids to dst and returns the grown
// slice. The appended ids never alias the set's own storage — for every
// form they are copied into dst's backing array — which is the ownership
// rule the query fast path relies on: the caller owns the result
// unconditionally, whatever the extent does next. Frozen sets (either form)
// append in ascending order without heap allocation beyond dst's growth.
func (s *EdgeSet) EndsAppend(dst []xmlgraph.NID) []xmlgraph.NID {
	s.settle()
	if s == nil {
		return dst
	}
	if s.Compressed() {
		return s.cEnds.AppendAll(dst)
	}
	if s.frozen {
		return append(dst, s.ends...)
	}
	return append(dst, s.Ends()...)
}

// FrozenEnds exposes the flat precomputed ends slice (read-only, the set's
// own backing store). ok is false for mutable and compressed sets, whose
// ends are not held as one flat slice.
func (s *EdgeSet) FrozenEnds() ([]xmlgraph.NID, bool) {
	s.settle()
	if s == nil || !s.frozen || s.Compressed() {
		return nil, false
	}
	return s.ends, true
}

// EndsLen returns the number of distinct end nids of a frozen set without
// decoding anything. Mutable sets return 0 — the count is only precomputed
// at publication points.
func (s *EdgeSet) EndsLen() int {
	s.settle()
	if s == nil || !s.frozen {
		return 0
	}
	if s.Compressed() {
		return s.cEnds.Len()
	}
	return len(s.ends)
}

// StartsLen returns the number of distinct From nids of a frozen set without
// decoding anything, or 0 when the count is unknown (mutable sets, and
// compressed sets loaded straight from segments).
func (s *EdgeSet) StartsLen() int {
	s.settle()
	if s == nil || !s.frozen {
		return 0
	}
	return s.starts
}

// PairsByTo returns the pairs sorted by (To, From) — the flat frozen column
// when available (no copy, read-only), a freshly built copy otherwise. The
// planner's backward join pass requires this order; on compressed sets it
// consumes the (To, From) block cursor instead of this decoded copy.
func (s *EdgeSet) PairsByTo() []xmlgraph.EdgePair {
	s.settle()
	if s == nil {
		return nil
	}
	if s.Compressed() {
		return s.cTo.AppendAll(make([]xmlgraph.EdgePair, 0, s.cTo.Len()))
	}
	if s.frozen {
		return s.byTo
	}
	return sortedPairs(s.pairs, true, make([]uint64, len(s.pairs)))
}

// ExtentStats is the O(1) per-extent statistics record the query planner
// reads at plan time: everything here is precomputed at freeze/publication
// and never touches a column. Starts is 0 when unknown (segment-loaded
// compressed extents); consumers fall back to Pairs as an upper bound.
type ExtentStats struct {
	Pairs  int  // total (From, To) pairs
	Starts int  // distinct From values; 0 = unknown
	Ends   int  // distinct To values
	Packed bool // block-compressed serving form
	Blocks int  // packed blocks across the three columns (0 when flat)
}

// Stats returns the set's precomputed statistics. All fields are zero for
// mutable sets — statistics are a property of the published serving form.
func (s *EdgeSet) Stats() ExtentStats {
	if s == nil || !s.frozen {
		return ExtentStats{}
	}
	return ExtentStats{
		Pairs:  s.Len(),
		Starts: s.starts,
		Ends:   s.EndsLen(),
		Packed: s.Compressed(),
		Blocks: s.FootprintBlocks(),
	}
}

// Sorted returns a copy of the pairs ordered by (From, To); used by tests,
// dumps, and the serializer.
func (s *EdgeSet) Sorted() []xmlgraph.EdgePair {
	s.settle()
	if s == nil {
		return nil
	}
	if s.Compressed() {
		if s.cFrom.Len() == 0 {
			return nil
		}
		return s.cFrom.AppendAll(make([]xmlgraph.EdgePair, 0, s.cFrom.Len()))
	}
	if s.frozen {
		if len(s.byFrom) == 0 {
			return nil
		}
		return append([]xmlgraph.EdgePair(nil), s.byFrom...)
	}
	return sortedPairs(s.pairs, false, make([]uint64, len(s.pairs)))
}

// FootprintBytes approximates the serving-form heap bytes of a frozen set:
// the two pair columns plus the ends column, packed words and block
// directories included for the compressed form. Mutable sets return 0 —
// footprint is a property of the published form.
func (s *EdgeSet) FootprintBytes() int {
	s.settle()
	if s == nil || !s.frozen {
		return 0
	}
	if s.Compressed() {
		return s.cFrom.Bytes() + s.cTo.Bytes() + s.cEnds.Bytes()
	}
	return len(s.byFrom)*pairBytes + len(s.byTo)*pairBytes + len(s.ends)*nidBytes
}

// FlatFootprintBytes is what the set's frozen columns would occupy in the
// flat form, whatever form it is actually in — the denominator of the
// compression-ratio accounting.
func (s *EdgeSet) FlatFootprintBytes() int {
	s.settle()
	if s == nil || !s.frozen {
		return 0
	}
	return 2*s.Len()*pairBytes + s.EndsLen()*nidBytes
}

// FootprintBlocks returns the number of packed blocks across the set's
// three columns (0 for flat and mutable forms).
func (s *EdgeSet) FootprintBlocks() int {
	s.settle()
	if !s.Compressed() {
		return 0
	}
	return s.cFrom.NumBlocks() + s.cTo.NumBlocks() + s.cEnds.NumBlocks()
}

// pairBytes and nidBytes size the flat column elements (EdgePair is two
// int32 NIDs).
const (
	pairBytes = 8
	nidBytes  = 4
)

// Equal reports whether s and t contain the same pairs, in any mix of
// frozen and mutable states.
func (s *EdgeSet) Equal(t *EdgeSet) bool {
	if s.Len() != t.Len() {
		return false
	}
	for _, p := range s.Pairs() {
		if !t.Contains(p) {
			return false
		}
	}
	return true
}

// String renders the set in the paper's {<u,v>, …} notation, sorted.
func (s *EdgeSet) String() string {
	pairs := s.Sorted()
	parts := make([]string, len(pairs))
	for i, p := range pairs {
		parts[i] = p.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
