package core

import (
	"time"

	"apex/internal/xmlgraph"
)

// RefreshData re-derives every extent and every summary edge from the
// (possibly mutated) data graph while keeping the hash tree — and hence the
// required path set — intact: it scrubs every hash entry's node, restarts
// from a fresh xroot and runs the delta propagation over the whole graph, so
// new edges, new labels and new paths through existing nodes are classified
// exactly as a fresh build under the same required paths would.
//
// It costs one pass over the data, like building APEX⁰, and is no longer how
// data updates are applied: ApplyInsert and ApplyDelete maintain the index at
// a cost proportional to the delta. RefreshData stays as their oracle — the
// differential tests hold every delta-maintained index against it — and as
// the re-derivation ApplyDelete falls back to when a removed subtree held
// reference edges into surviving nodes. Abandoned summary nodes become
// unreachable and are collected by the runtime.
func (a *APEX) RefreshData() {
	start := time.Now()
	// Detach every hash entry from its summary node: the coming update
	// pass re-creates nodes with freshly computed extents.
	var scrub func(h *HNode)
	scrub = func(h *HNode) {
		for _, e := range h.entries {
			h.setEntryXNode(e, nil)
			if e.Next != nil {
				scrub(e.Next)
			}
		}
		if h.remainder != nil {
			h.setEntryXNode(h.remainder, nil)
		}
	}
	scrub(a.head)
	// Fresh root, full delta: updateNode's branch for grown extents
	// discovers every label group from the data graph itself.
	rootPair := xmlgraph.EdgePair{From: xmlgraph.NullNID, To: a.g.Root()}
	a.xroot = a.newXNode("xroot")
	a.xroot.Extent.Add(rootPair)
	a.run++
	a.updateNode(a.xroot, []xmlgraph.EdgePair{rootPair}, nil, false)
	a.FreezeExtents()
	observeSince(mRefreshNS, start)
	a.observeStructure()
}
