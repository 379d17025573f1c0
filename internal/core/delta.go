package core

import (
	"slices"
	"time"

	"apex/internal/metrics"
	"apex/internal/xmlgraph"
)

// Data updates as ΔEdges. The paper leaves data updates to future work, but
// its own update machinery covers them: Figure 11's updateNode propagates a
// set of new extent pairs down G_APEX, classifying each data edge it reaches
// through H_APEX. An appended fragment is such a set, seeded at the summary
// nodes whose extents hold an edge ending at the fragment's parent
// (ApplyInsert); a removed subtree is the inverse, a set of pairs to retract
// (ApplyDelete). Both touch the summary nodes the delta reaches and leave
// every other extent frozen and shared with the index they were cloned from.
//
// What makes seeding sound is that G_APEX is deterministic under a suffix-
// and subpath-closed required-path set: the node classifying the data edges
// labelled l that leave an end node of x depends only on x and l, never on
// which root label path reached x (lookup(p.l) is determined by lookup(p) and
// l). So any one G_APEX path from xroot to a seed serves as the root label
// path updateNode carries, and the result is what a whole-graph rebuild under
// the same H_APEX — RefreshData, the oracle the differential tests hold this
// against — would produce, up to the numbering of summary nodes.

// WriteStats records what the most recent data delta did. On a small write
// Touched is a handful of summary nodes against the Freeze.Total the index
// holds, and Freeze.Refrozen stays far below Freeze.Total — the write cost
// what it changed.
type WriteStats struct {
	// Seeds is the number of summary nodes an insert was seeded at: those
	// holding an edge that ends at the fragment's parent.
	Seeds int
	// Touched counts the summary nodes created or changed (extent or
	// out-edges) by the delta, pruned ones included.
	Touched int
	// Pruned counts the summary nodes a delete emptied and unlinked.
	Pruned int
	// Rederived is set when a delete fell back to RefreshData because the
	// removed subtree held reference edges into surviving nodes.
	Rederived bool
	// Freeze is the publication pass that ended the write.
	Freeze FreezeStats
}

// LastWrite returns the stats of the most recent ApplyInsert or ApplyDelete.
func (a *APEX) LastWrite() WriteStats { return a.lastWrite }

// ApplyInsert brings the index up to date with a fragment appended to the
// data graph under parent, whose nodes are the nids from first upward (what
// xmlgraph.AppendFragment just added). The new edge out of parent is seeded
// at every summary node through which parent is reached; updateNode carries
// it from there, so T^R remainders, labels H_APEX has never seen, and
// reference edges out of the fragment that open new paths through existing
// nodes are all classified exactly as a rebuild would. A parent no extent
// reaches (an isolated node of a shard graph) seeds nothing, as a rebuild
// would index nothing.
func (a *APEX) ApplyInsert(parent, first xmlgraph.NID) WriteStats {
	start := time.Now()
	var st WriteStats
	a.touched = make(map[*XNode]struct{})
	a.run++
	seeds := a.holders(parent)
	paths := a.rootPaths(seeds)
	base := len(a.scan)
	for _, he := range a.g.Out(parent) {
		if he.To >= first {
			a.scan = append(a.scan, labeledPair{he.Label, xmlgraph.EdgePair{From: parent, To: he.To}})
		}
	}
	for _, x := range seeds {
		if path, ok := paths[x]; ok {
			st.Seeds++
			a.classifyScanned(x, base, path, false)
		}
	}
	a.scan = a.scan[:base]
	return a.finishWrite(st, mInsertNS, start)
}

// ApplyDelete brings the index up to date with subtrees removed from the
// data graph; removed is every edge the removal detached (what
// xmlgraph.RemoveSubtreeDelta reported). Each edge's pair is retracted from
// the extents holding it, summary nodes left with an empty extent are
// unlinked from G_APEX and unbound from H_APEX, and a summary edge is dropped
// where no end node of its source carries the label any more.
//
// Retraction needs no support counting because every retracted pair ends at
// a removed node: a pair derived from it starts at a removed node, so it ends
// at one too and is in the delta itself. The one case where that fails — a
// removed node with a reference edge into a surviving node, whose pairs
// further down may or may not have another derivation — is decided from the
// delta, re-derives everything with RefreshData, and is counted.
func (a *APEX) ApplyDelete(removed []xmlgraph.Edge) WriteStats {
	start := time.Now()
	var st WriteStats
	a.touched = make(map[*XNode]struct{})
	for _, e := range removed {
		if a.g.Removed(e.From) && !a.g.Removed(e.To) {
			a.touched = nil
			a.RefreshData()
			mRederived.Inc()
			a.lastWrite = WriteStats{Rederived: true, Freeze: a.lastFreeze}
			observeSince(mDeleteNS, start)
			return a.lastWrite
		}
	}

	// Who holds what, read off the index before anything is retracted.
	var order []*XNode // holders in discovery order, for a deterministic pass
	retract := make(map[*XNode][]xmlgraph.EdgePair)
	holdersOf := make(map[xmlgraph.NID][]*XNode)
	for _, e := range removed {
		p := xmlgraph.EdgePair{From: e.From, To: e.To}
		nodes, _ := a.LookupAll(xmlgraph.LabelPath{e.Label})
		for _, x := range nodes {
			if x.Extent.Contains(p) {
				if _, seen := retract[x]; !seen {
					order = append(order, x)
				}
				retract[x] = append(retract[x], p)
				if !slices.Contains(holdersOf[e.To], x) {
					holdersOf[e.To] = append(holdersOf[e.To], x)
				}
			}
		}
	}
	// A summary edge x --l--> y may have lost its last witness where an end
	// node of x lost an l-edge: x holds the removed edge's source.
	type edgeKey struct {
		x *XNode
		l string
	}
	var suspects []edgeKey
	for _, e := range removed {
		hs, ok := holdersOf[e.From]
		if !ok && !a.g.Removed(e.From) {
			hs = a.holders(e.From)
			holdersOf[e.From] = hs
		}
		for _, x := range hs {
			if k := (edgeKey{x, e.Label}); !slices.Contains(suspects, k) {
				suspects = append(suspects, k)
			}
		}
	}

	emptied := make(map[*XNode]struct{})
	for _, x := range order {
		x.Extent.RemoveAll(retract[x])
		a.touch(x)
		if x.Extent.Len() == 0 {
			emptied[x] = struct{}{}
		}
	}
	if len(emptied) > 0 {
		a.prune(emptied)
		st.Pruned = len(emptied)
	}
	for _, k := range suspects {
		if _, gone := emptied[k.x]; gone || k.x.out[k.l] == nil {
			continue
		}
		if !a.endsCarry(k.x, k.l) {
			delete(k.x.out, k.l)
			a.touch(k.x)
		}
	}
	return a.finishWrite(st, mDeleteNS, start)
}

// finishWrite publishes the extents a data delta touched and records its
// stats.
func (a *APEX) finishWrite(st WriteStats, h *metrics.Histogram, start time.Time) WriteStats {
	st.Touched = len(a.touched)
	a.touched = nil
	st.Freeze = a.FreezeExtents()
	a.lastWrite = st
	mWriteSeeds.Add(int64(st.Seeds))
	mWriteTouched.Add(int64(st.Touched))
	mWritePruned.Add(int64(st.Pruned))
	h.Observe(time.Since(start).Nanoseconds())
	a.observeStructure()
	return st
}

// holders returns the summary nodes whose extent holds an edge ending at n —
// the nodes through which n is reached — found through H_APEX: every node
// whose path ends with an incoming label of n is a candidate, and Contains
// decides. xroot holds the document root's <NULL, root>.
func (a *APEX) holders(n xmlgraph.NID) []*XNode {
	var res []*XNode
	if n == a.g.Root() {
		res = append(res, a.xroot)
	}
	for _, he := range a.g.In(n) {
		nodes, _ := a.LookupAll(xmlgraph.LabelPath{he.Label})
		for _, x := range nodes {
			if !slices.Contains(res, x) && x.Extent.Contains(xmlgraph.EdgePair{From: he.To, To: n}) {
				res = append(res, x)
			}
		}
	}
	return res
}

// rootPaths returns, for each of the wanted summary nodes reachable from
// xroot, the labels of one G_APEX path leading to it (the shortest), with
// room to grow so updateNode can use it as its path stack.
func (a *APEX) rootPaths(want []*XNode) map[*XNode]xmlgraph.LabelPath {
	type step struct {
		prev  *XNode
		label string
	}
	paths := make(map[*XNode]xmlgraph.LabelPath, len(want))
	if len(want) == 0 {
		return paths
	}
	from := map[*XNode]step{a.xroot: {}}
	queue := []*XNode{a.xroot}
	for missing := len(want); len(queue) > 0 && missing > 0; queue = queue[1:] {
		x := queue[0]
		if slices.Contains(want, x) {
			var rev xmlgraph.LabelPath
			for y := x; y != a.xroot; y = from[y].prev {
				rev = append(rev, from[y].label)
			}
			slices.Reverse(rev)
			paths[x] = slices.Grow(rev, 16)
			missing--
		}
		for _, l := range x.OutLabels() {
			if y := x.out[l]; y != nil {
				if _, seen := from[y]; !seen {
					from[y] = step{x, l}
					queue = append(queue, y)
				}
			}
		}
	}
	return paths
}

// prune unlinks the emptied summary nodes: a rebuild would never have
// created them, so no hash entry may address them and no summary edge may
// lead to them.
func (a *APEX) prune(emptied map[*XNode]struct{}) {
	var walkH func(h *HNode)
	walkH = func(h *HNode) {
		for _, e := range h.entries {
			if _, gone := emptied[e.XNode]; gone {
				h.setEntryXNode(e, nil)
			}
			if e.Next != nil {
				walkH(e.Next)
			}
		}
		if h.remainder != nil {
			if _, gone := emptied[h.remainder.XNode]; gone {
				h.setEntryXNode(h.remainder, nil)
			}
		}
	}
	walkH(a.head)
	a.EachNode(func(x *XNode) {
		for l, y := range x.out {
			if _, gone := emptied[y]; gone {
				delete(x.out, l)
				a.touch(x)
			}
		}
	})
}

// endsCarry reports whether any end node of x's extent still has an outgoing
// data edge labelled l — the witness a summary edge x --l--> needs.
func (a *APEX) endsCarry(x *XNode, l string) bool {
	for _, v := range x.Extent.Ends() {
		for _, he := range a.g.Out(v) {
			if he.Label == l {
				return true
			}
		}
	}
	return false
}
