package core

import (
	"slices"
	"sort"
	"strings"
	"time"

	"apex/internal/xmlgraph"
)

// Update incrementally reshapes G_APEX to match the required paths stored
// in H_APEX (Section 5.3, Figure 11). It traverses the live summary graph
// carrying the root label path, validates every child against the hash
// tree's lookup, and where the lookup disagrees — a required path appeared
// or disappeared — creates the proper node and recomputes its extent by
// delta propagation over the data graph. Nodes no longer referenced simply
// become unreachable.
func (a *APEX) Update() {
	start := time.Now()
	a.run++ // fresh visited-flag generation; no global reset needed
	a.updateNode(a.xroot, nil, nil, true)
	a.FreezeExtents()
	observeSince(mUpdateNS, start)
	a.observeStructure()
}

// updateNode is Figure 11's procedure. path is the root label path of x and
// is one stack shared by the whole traversal: a call appends its child's
// label in place, so a frame only ever reads its own prefix and the
// traversal costs what it visits, not what it visits times its depth
// (reference cycles keep the walk hundreds of labels deep). verify selects
// Update's behaviour on a node reached with nothing new: re-check every
// child against H_APEX, whose required paths may have changed. Passes that
// only propagate data edges under an unchanged H_APEX (build, RefreshData,
// data deltas) have nothing to re-check and stop there.
func (a *APEX) updateNode(x *XNode, delta []xmlgraph.EdgePair, path xmlgraph.LabelPath, verify bool) {
	if len(delta) > 0 {
		// The extent of x grew: propagate the new edges' outgoing data
		// edges into the children, rewiring against H_APEX (lines 23–37).
		x.visitedRun = a.run
		a.propagate(x, a.deltaEnds(delta), path, verify)
		return
	}
	if !verify || x.visitedRun == a.run {
		return // nothing new to propagate, nothing left to verify
	}
	x.visitedRun = a.run
	// Newly visited with an unchanged extent: verify each existing child
	// against H_APEX (Figure 11, lines 4–22).
	var byLabel map[string][]xmlgraph.EdgePair // computed lazily, lines 10–13
	for _, l := range x.OutLabels() {
		end := x.out[l]
		newpath := append(path, l)
		xchild, entry, owner := a.resolveChild(newpath)
		var childDelta []xmlgraph.EdgePair
		if xchild != end {
			if byLabel == nil {
				byLabel = a.outgoingByLabel(x.Extent.Ends())
			}
			childDelta = xchild.Extent.AddAll(byLabel[l])
			a.makeEdge(x, l, xchild)
			owner.setEntryXNode(entry, xchild) // hash.append
		}
		a.updateNode(xchild, childDelta, newpath, true)
	}
}

// smallScan is the number of scanned data edges up to which propagate groups
// them by sorting a region of the shared scan stack; beyond it the map-based
// grouping (and, over parallelScanThreshold sources, the worker pool) is
// cheaper. Both produce the same groups in the same order.
const smallScan = 64

// labeledPair is one scanned data edge awaiting classification.
type labeledPair struct {
	label string
	pair  xmlgraph.EdgePair
}

// propagate classifies the data edges leaving ends — end nodes of pairs new
// to x's extent — under x's children: per label in sorted order, resolve the
// child against H_APEX, add the label's pairs to its extent, wire the edge
// and recurse with what was new. Nearly every call of a maintenance pass
// scans a handful of edges, so those are grouped on scratch shared by the
// whole pass (a.scan and a.batch, used as stacks by the recursion) with no
// per-call map.
func (a *APEX) propagate(x *XNode, ends []xmlgraph.NID, path xmlgraph.LabelPath, verify bool) {
	edges := 0
	for _, v := range ends {
		if edges += len(a.g.Out(v)); edges > smallScan {
			byLabel := a.outgoingByLabel(ends)
			labels := make([]string, 0, len(byLabel))
			for l := range byLabel {
				labels = append(labels, l)
			}
			sort.Strings(labels)
			for _, l := range labels {
				a.classify(x, l, byLabel[l], path, verify)
			}
			return
		}
	}
	base := len(a.scan)
	for _, v := range ends {
		for _, he := range a.g.Out(v) {
			a.scan = append(a.scan, labeledPair{he.Label, xmlgraph.EdgePair{From: v, To: he.To}})
		}
	}
	a.classifyScanned(x, base, path, verify)
	a.scan = a.scan[:base]
}

// classifyScanned groups the scanned edges a.scan[base:] by label and
// classifies each group under x. The region stays on the stack, sorted, for
// the caller to pop (or to classify again under another node).
func (a *APEX) classifyScanned(x *XNode, base int, path xmlgraph.LabelPath, verify bool) {
	end := len(a.scan)
	// Stable, so the pairs of one label keep the scan order — the order the
	// map-based grouping appends them in.
	slices.SortStableFunc(a.scan[base:end], func(p, q labeledPair) int { return strings.Compare(p.label, q.label) })
	for i := base; i < end; {
		// Deeper calls push onto a.scan and a.batch and may move them;
		// index afresh, and hold no sub-slice across classify except the
		// batch region this frame owns.
		l := a.scan[i].label
		mark := len(a.batch)
		for ; i < end && a.scan[i].label == l; i++ {
			a.batch = append(a.batch, a.scan[i].pair)
		}
		a.classify(x, l, a.batch[mark:], path, verify)
		a.batch = a.batch[:mark]
	}
}

// classify files the data edges of one label leaving x's extent: batch is
// filtered in place down to the pairs new to the child's extent, and must
// stay untouched by the caller until classify returns.
func (a *APEX) classify(x *XNode, l string, batch []xmlgraph.EdgePair, path xmlgraph.LabelPath, verify bool) {
	newpath := append(path, l)
	xchild, entry, owner := a.resolveChild(newpath)
	childDelta := xchild.Extent.AddAll(batch)
	if len(childDelta) > 0 {
		a.touch(xchild)
	}
	a.makeEdge(x, l, xchild)
	owner.setEntryXNode(entry, xchild) // hash.append
	a.updateNode(xchild, childDelta, newpath, verify)
}

// makeEdge installs the summary edge x --l--> y, recording x as touched when
// that changes x.
func (a *APEX) makeEdge(x *XNode, l string, y *XNode) {
	if x.out[l] != y {
		x.makeEdge(l, y)
		a.touch(x)
	}
}

// resolveChild finds (or creates) the G_APEX node that edges with root
// label path newpath must be classified under, along with the hash entry
// addressing it and the hnode owning that entry (so callers can mark the
// owner dirty when rebinding the entry). Only the last labels of newpath —
// as many as H_APEX is deep — are read.
func (a *APEX) resolveChild(newpath xmlgraph.LabelPath) (*XNode, *Entry, *HNode) {
	entry, start, owner := a.lookupEntryLoc(newpath)
	if entry == nil {
		// A label the data graph carries and H_APEX has never seen (a
		// fresh build, or a fragment introducing it): every data label is a
		// required path of length one.
		start, owner = len(newpath)-1, a.head
		entry, _ = a.head.getOrCreate(newpath[start])
	}
	if entry.XNode == nil {
		name := newpath[start:].String()
		if entry.isRemainder() {
			name = "~" + name
		}
		x := a.newXNode(name)
		a.touch(x)
		owner.setEntryXNode(entry, x)
	}
	return entry.XNode, entry, owner
}

// deltaEnds returns the distinct end nodes of the pairs in first-seen order,
// on scratch that the next call overwrites (propagate consumes it before it
// recurses).
func (a *APEX) deltaEnds(delta []xmlgraph.EdgePair) []xmlgraph.NID {
	res := a.ends[:0]
	if len(delta) <= 16 {
		for _, p := range delta {
			if !slices.Contains(res, p.To) {
				res = append(res, p.To)
			}
		}
	} else {
		seen := make(map[xmlgraph.NID]struct{}, len(delta))
		for _, p := range delta {
			if _, ok := seen[p.To]; !ok {
				seen[p.To] = struct{}{}
				res = append(res, p.To)
			}
		}
	}
	a.ends = res
	return res
}
