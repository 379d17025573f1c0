package core

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"apex/internal/xmlgraph"
)

// APEX is the adaptive path index: the summary graph G_APEX rooted at xroot
// plus the hash tree H_APEX rooted at head, both over one data graph.
type APEX struct {
	g      *xmlgraph.Graph
	head   *HNode // HashHead
	xroot  *XNode
	nextID int
	run    int // update-round counter backing the visited flags
	// workers bounds the goroutines maintenance fans out (data-graph scans
	// in updateNode, extent freezing). 0 or 1 keeps every pass
	// fully serial; parallel passes produce bit-identical structures, so the
	// setting is pure throughput. See SetWorkers.
	workers int
	// lastFreeze records what the most recent FreezeExtents actually did —
	// how many extents it (re)sorted and how many subtree caches it
	// recollected versus the totals — pinning that incremental maintenance
	// touches strictly less than everything.
	lastFreeze FreezeStats
	// compress selects the frozen extent form FreezeExtents publishes:
	// block-compressed columns when true, flat columns when false. See
	// SetCompressExtents.
	compress bool
	// epoch counts publication points on this index instance — it is bumped
	// once at the end of every FreezeExtents pass. Query-side caches that
	// hold planner decisions or rewriting legs stamp the epoch they were
	// computed under and flush on mismatch, so in-place maintenance (Update,
	// RefreshData, a compression flip) can never serve a stale plan. Atomic
	// because queries read it concurrently with a publication bump.
	epoch atomic.Int64
	// statsView is the aggregate extent-statistics snapshot recorded by the
	// most recent FreezeExtents pass; see StatsView.
	statsView StatsView

	// Per-pass scratch of the delta propagation (see propagate): scan and
	// batch are stacks the recursion pushes and pops, ends is overwritten by
	// every deltaEnds call. They hold no state between passes.
	scan  []labeledPair
	batch []xmlgraph.EdgePair
	ends  []xmlgraph.NID
	// touched collects the summary nodes a data delta created or changed
	// (extent or out-edges); nil outside ApplyInsert/ApplyDelete.
	touched map[*XNode]struct{}
	// lastWrite records what the most recent data delta did; see WriteStats.
	lastWrite WriteStats
}

// touch records x as changed by the running data delta.
func (a *APEX) touch(x *XNode) {
	if a.touched != nil {
		a.touched[x] = struct{}{}
	}
}

// Graph returns the underlying data graph.
func (a *APEX) Graph() *xmlgraph.Graph { return a.g }

// SetWorkers bounds the worker goroutines maintenance passes may fan out to
// (n <= 1 keeps builds, updates, and freezes fully serial; the default). The
// parallel passes partition pure scans and merge per-worker buffers in
// deterministic order, so the resulting index is bit-identical to a serial
// build. Not safe to call while a maintenance pass is running.
func (a *APEX) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	a.workers = n
}

// Workers returns the configured maintenance fan-out bound (≥ 1).
func (a *APEX) Workers() int {
	if a.workers < 1 {
		return 1
	}
	return a.workers
}

// SetCompressExtents selects the frozen form the next FreezeExtents pass
// publishes: block-compressed delta/bit-packed columns (true) or flat sorted
// slices (false, the default). Flipping the flag does not convert anything
// by itself — FreezeExtents treats a frozen extent in the wrong form as
// needing republication, so the next publication point converts every extent
// (and only form flips pay that full pass; steady-state freezes stay
// dirty-guided). Not safe to call while a maintenance pass is running.
func (a *APEX) SetCompressExtents(on bool) { a.compress = on }

// CompressExtents reports the frozen form publications use.
func (a *APEX) CompressExtents() bool { return a.compress }

// XRoot returns the root node of G_APEX (incoming pseudo-label 'xroot').
func (a *APEX) XRoot() *XNode { return a.xroot }

func (a *APEX) newXNode(path string) *XNode {
	x := newXNodeValue(a.nextID, path)
	a.nextID++
	return x
}

// BuildAPEX0 constructs the initial index APEX⁰ (Figure 6): one G_APEX node
// per distinct label (all required paths have length one), extents grouping
// the data edges by incoming label, built by depth-first delta propagation
// so cyclic data terminates.
func BuildAPEX0(g *xmlgraph.Graph) *APEX { return BuildAPEX0Workers(g, 1) }

// BuildAPEX0Workers is BuildAPEX0 with the maintenance fan-out bound set
// before the build runs, so the data-graph scans of the initial delta
// propagation already use the worker pool. The built structure is
// bit-identical to the serial build for every workers value.
func BuildAPEX0Workers(g *xmlgraph.Graph, workers int) *APEX {
	return BuildAPEX0Opts(g, workers, false)
}

// BuildAPEX0Opts is BuildAPEX0Workers with the frozen extent form chosen up
// front, so the build's own publication pass already freezes into the
// requested form instead of freezing flat and converting afterwards.
func BuildAPEX0Opts(g *xmlgraph.Graph, workers int, compress bool) *APEX {
	start := time.Now()
	a := &APEX{g: g, head: newHNode(), compress: compress}
	a.SetWorkers(workers)
	a.xroot = a.newXNode("xroot")
	rootPair := xmlgraph.EdgePair{From: xmlgraph.NullNID, To: g.Root()}
	a.xroot.Extent.Add(rootPair)
	// With an empty H_APEX every lookup misses and creates the label's
	// HashHead entry, so the delta propagation of Figure 11 builds exactly
	// Figure 6's one-node-per-label summary.
	a.updateNode(a.xroot, []xmlgraph.EdgePair{rootPair}, nil, false)
	a.FreezeExtents()
	observeSince(mBuildNS, start)
	a.observeStructure()
	return a
}

// FreezeStats records what one FreezeExtents pass did: Refrozen of Total
// extents were (re)sorted into columnar form, and Recollected of Subtrees
// hnode caches were rebuilt. On an incremental update that touches a strict
// subset of the index, both ratios are strictly below one — the dirty bits
// confine the publication cost to what maintenance actually changed.
type FreezeStats struct {
	Refrozen    int
	Total       int
	Recollected int
	Subtrees    int
}

// LastFreeze returns the stats of the most recent FreezeExtents pass.
func (a *APEX) LastFreeze() FreezeStats { return a.lastFreeze }

// Epoch returns the publication epoch of this index instance: the number of
// FreezeExtents passes that have completed on it. Every maintenance entry
// point (build, update, refresh, decode) ends in FreezeExtents, so a changed
// epoch means the structures a query-side cache captured may be gone.
func (a *APEX) Epoch() int64 { return a.epoch.Load() }

// StatsView is the aggregate extent-statistics snapshot of one publication
// point, summed from the O(1) ExtentStats each frozen extent carries. The
// planner and /stats read it with zero graph traversal.
type StatsView struct {
	Extents    int // live extents considered by the freeze walk
	Pairs      int // total extent pairs across them
	Compressed int // extents serving in block-compressed form
	Blocks     int // packed blocks across all compressed extents
}

// StatsView returns the snapshot recorded by the most recent FreezeExtents.
func (a *APEX) StatsView() StatsView { return a.statsView }

// FreezeExtents publishes every extent in its columnar serving form (sorted,
// deduplicated, distinct-ends precomputed — see EdgeSet.Freeze). It walks
// both the live summary graph and the hash tree, because lookups can land on
// remainder nodes that are not reachable from xroot. The walk is
// dirty-guided: only extents thawed by the maintenance pass are re-sorted
// (Add thaws, so an untouched extent stays frozen and costs nothing), and
// only hnodes whose entry set changed — or with a changed descendant, since
// a subtree cache spans the whole subtree — have their LookupAll cache
// recollected. Extent sorting fans out over the configured worker bound.
// Every build and maintenance entry point calls this last, so the query
// processor always sees frozen extents between adaptation rounds.
func (a *APEX) FreezeExtents() FreezeStats {
	start := time.Now()
	var st FreezeStats
	seen := make(map[*XNode]bool)
	var toFreeze []*EdgeSet
	consider := func(x *XNode) {
		if x == nil || seen[x] {
			return
		}
		seen[x] = true
		st.Total++
		// An extent needs publication when it is thawed, or frozen in the
		// wrong form (the compress flag flipped, or a recovered segment
		// loaded in a different form than the index is configured for).
		if x.Extent.FormStale(a.compress) {
			toFreeze = append(toFreeze, x.Extent)
		}
	}
	a.EachNode(consider)
	// Post-order over H_APEX: collect freezable extents, and recollect the
	// subtree caches along dirty spines (an hnode must recollect when itself
	// or any descendant changed, because its cache includes the descendants'
	// xnodes).
	var walkH func(h *HNode) bool
	walkH = func(h *HNode) bool {
		changed := h.dirty
		for _, e := range h.entries {
			consider(e.XNode)
			if e.Next != nil && walkH(e.Next) {
				changed = true
			}
		}
		if h.remainder != nil {
			consider(h.remainder.XNode)
		}
		st.Subtrees++
		if changed || h.subtree == nil {
			h.subtree = collectSubtree(h, make([]*XNode, 0))
			h.dirty = false
			st.Recollected++
			changed = true
		}
		return changed
	}
	walkH(a.head)
	st.Refrozen = len(toFreeze)
	freezeAll(toFreeze, a.Workers(), a.compress)
	// Record the aggregate stats snapshot from the per-extent statistics the
	// freeze just published — one O(1) read per extent, no column access —
	// then bump the epoch so plan caches keyed on it invalidate by identity.
	var sv StatsView
	for x := range seen {
		es := x.Extent.Stats()
		sv.Extents++
		sv.Pairs += es.Pairs
		sv.Blocks += es.Blocks
		if es.Packed {
			sv.Compressed++
		}
	}
	a.statsView = sv
	a.lastFreeze = st
	a.epoch.Add(1)
	observeSince(mFreezeNS, start)
	mFrozenExtents.Add(int64(st.Refrozen))
	mFreezeConsidered.Add(int64(st.Total))
	mSubtreesRecollected.Add(int64(st.Recollected))
	mSubtreesConsidered.Add(int64(st.Subtrees))
	return st
}

// BuildAPEX builds APEX⁰ and immediately adapts it to a workload: extract
// frequently used paths at minSup, then incrementally update. This is the
// whole Figure 4 pipeline in one call.
func BuildAPEX(g *xmlgraph.Graph, workload []xmlgraph.LabelPath, minSup float64) *APEX {
	a := BuildAPEX0(g)
	a.ExtractFrequentPaths(workload, minSup)
	a.Update()
	return a
}

// outgoingByLabel groups the data edges leaving the given nodes by label —
// the data-graph scan that dominates build, update, and refresh cost. Large
// scans fan out over the configured worker bound with per-worker buffers
// merged in chunk order, which keeps the per-label pair order (and hence the
// whole built structure) identical to the serial scan.
func (a *APEX) outgoingByLabel(ends []xmlgraph.NID) map[string][]xmlgraph.EdgePair {
	if a.workers > 1 && len(ends) >= parallelScanThreshold {
		return a.outgoingByLabelParallel(ends)
	}
	res := make(map[string][]xmlgraph.EdgePair)
	for _, v := range ends {
		for _, he := range a.g.Out(v) {
			res[he.Label] = append(res[he.Label], xmlgraph.EdgePair{From: v, To: he.To})
		}
	}
	return res
}

// Stats describes the live (reachable from xroot) portion of G_APEX, in the
// shape of the paper's Table 2, plus the total extent volume.
type Stats struct {
	Nodes       int
	Edges       int
	ExtentEdges int
}

func (s Stats) String() string {
	return fmt.Sprintf("nodes=%d edges=%d extent=%d", s.Nodes, s.Edges, s.ExtentEdges)
}

// Stats computes reachable node/edge counts of G_APEX. Nodes abandoned by
// incremental updates are excluded, as they no longer serve queries.
func (a *APEX) Stats() Stats {
	var s Stats
	seen := make(map[*XNode]bool)
	stack := []*XNode{a.xroot}
	seen[a.xroot] = true
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		s.Nodes++
		s.ExtentEdges += x.Extent.Len()
		for _, l := range x.OutLabels() {
			s.Edges++
			y := x.out[l]
			if !seen[y] {
				seen[y] = true
				stack = append(stack, y)
			}
		}
	}
	return s
}

// FootprintStats aggregates the serving-form memory of every live extent —
// the columns a query can touch, summed over the xroot-reachable summary
// graph and the hash tree's remainder nodes.
type FootprintStats struct {
	// Extents and Edges count the frozen extents and their pairs.
	Extents int
	Edges   int
	// Bytes is the actual serving-column footprint; FlatBytes is what the
	// same columns would occupy in the flat frozen form (the compression
	// denominator). Equal when nothing is compressed.
	Bytes     int
	FlatBytes int
	// Blocks counts packed blocks and Compressed the extents in compressed
	// form; both are zero for a flat index.
	Blocks     int
	Compressed int
}

// BytesPerEdge is the headline footprint number: serving bytes per extent
// pair (0 for an empty index).
func (f FootprintStats) BytesPerEdge() float64 {
	if f.Edges == 0 {
		return 0
	}
	return float64(f.Bytes) / float64(f.Edges)
}

// Footprint sums the serving-form footprint of every live extent, walking
// the same node set FreezeExtents publishes (summary graph plus hash-tree
// remainder nodes). Mutable extents contribute edges but no bytes — call it
// between publication points for meaningful numbers.
func (a *APEX) Footprint() FootprintStats {
	var f FootprintStats
	seen := make(map[*XNode]bool)
	consider := func(x *XNode) {
		if x == nil || seen[x] {
			return
		}
		seen[x] = true
		f.Extents++
		f.Edges += x.Extent.Len()
		f.Bytes += x.Extent.FootprintBytes()
		f.FlatBytes += x.Extent.FlatFootprintBytes()
		f.Blocks += x.Extent.FootprintBlocks()
		if x.Extent.Compressed() {
			f.Compressed++
		}
	}
	a.EachNode(consider)
	var walkH func(h *HNode)
	walkH = func(h *HNode) {
		for _, e := range h.entries {
			consider(e.XNode)
			if e.Next != nil {
				walkH(e.Next)
			}
		}
		if h.remainder != nil {
			consider(h.remainder.XNode)
		}
	}
	walkH(a.head)
	return f
}

// EachNode visits every live G_APEX node once, in BFS order from xroot.
func (a *APEX) EachNode(fn func(*XNode)) {
	seen := map[*XNode]bool{a.xroot: true}
	queue := []*XNode{a.xroot}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		fn(x)
		for _, l := range x.OutLabels() {
			y := x.out[l]
			if !seen[y] {
				seen[y] = true
				queue = append(queue, y)
			}
		}
	}
}

// DumpGraph renders the live G_APEX adjacency with extents; examples use it
// to print the paper's Figure 2/5 structures.
func (a *APEX) DumpGraph() string {
	var b strings.Builder
	a.EachNode(func(x *XNode) {
		fmt.Fprintf(&b, "&%d (%s) extent=%s", x.ID, x.Path, x.Extent.String())
		for _, l := range x.OutLabels() {
			fmt.Fprintf(&b, " -%s->&%d", l, x.out[l].ID)
		}
		b.WriteString("\n")
	})
	return b.String()
}
