package core

import (
	"time"

	"apex/internal/metrics"
)

// Index-maintenance instruments on the process-wide registry: build and
// adaptation timings, the H_APEX walk depth per query lookup, and the
// structure sizes the paper's Table 2 reports.
var (
	mBuildNS   = metrics.Default.Histogram("core.build_ns")
	mExtractNS = metrics.Default.Histogram("core.adapt.extract_ns")
	mUpdateNS  = metrics.Default.Histogram("core.adapt.update_ns")
	mRefreshNS = metrics.Default.Histogram("core.refresh_ns")

	// Extent freezing: time spent building the columnar serving form at
	// each publication point, how many extents were actually (re)frozen
	// versus considered, and how many hnode subtree caches were recollected
	// versus walked. The frozen/considered and recollected/walked ratios are
	// the dirty-guided freeze's effectiveness: well below 1 on incremental
	// maintenance, exactly 1 on a fresh build.
	mFreezeNS            = metrics.Default.Histogram("core.freeze_ns")
	mFrozenExtents       = metrics.Default.Counter("core.gapex.frozen_extents_total")
	mFreezeConsidered    = metrics.Default.Counter("core.gapex.freeze_considered_total")
	mSubtreesRecollected = metrics.Default.Counter("core.hapex.subtrees_recollected_total")
	mSubtreesConsidered  = metrics.Default.Counter("core.hapex.subtrees_considered_total")

	// Data deltas (ApplyInsert/ApplyDelete): time per write, the summary
	// nodes an insert was seeded at, the nodes a write created or changed
	// (against core.gapex.freeze_considered_total, a handful on a small
	// write), the nodes a delete emptied and unlinked, and the deletes that
	// had to re-derive the whole index because the removed subtree held
	// reference edges into surviving nodes.
	mInsertNS     = metrics.Default.Histogram("core.write.insert_ns")
	mDeleteNS     = metrics.Default.Histogram("core.write.delete_ns")
	mWriteSeeds   = metrics.Default.Counter("core.write.seeds_total")
	mWriteTouched = metrics.Default.Counter("core.write.touched_xnodes_total")
	mWritePruned  = metrics.Default.Counter("core.write.pruned_xnodes_total")
	mRederived    = metrics.Default.Counter("core.write.rederived_total")

	// mLookupDepth is the number of hash-tree levels a LookupAll walk
	// visited — 1 for a plain label, more when required paths cover a
	// longer suffix of the query.
	mLookupDepth = metrics.Default.Histogram("core.hapex.lookup_depth")

	mExtentSize  = metrics.Default.Histogram("core.gapex.extent_size")
	mNodes       = metrics.Default.Gauge("core.gapex.nodes")
	mEdges       = metrics.Default.Gauge("core.gapex.edges")
	mExtentEdges = metrics.Default.Gauge("core.gapex.extent_edges")

	// Serving-form footprint of the live extents: total column bytes, the
	// pairs they hold, and how many packed blocks back them (0 while extents
	// are flat). bytes/edges is the headline bytes-per-edge number surfaced
	// by /stats and Explain.
	mExtentBytes  = metrics.Default.Gauge("apex.extent_bytes")
	mExtentPairs  = metrics.Default.Gauge("apex.extent_edges")
	mExtentBlocks = metrics.Default.Gauge("apex.extent_blocks")
)

// observeSince records the elapsed nanoseconds since start.
func observeSince(h *metrics.Histogram, start time.Time) {
	h.Observe(time.Since(start).Nanoseconds())
}

// observeStructure publishes the live structure sizes and the per-node
// extent-size distribution; called after builds and maintenance rounds (not
// on the query path).
func (a *APEX) observeStructure() {
	st := a.Stats()
	mNodes.Set(int64(st.Nodes))
	mEdges.Set(int64(st.Edges))
	mExtentEdges.Set(int64(st.ExtentEdges))
	a.EachNode(func(x *XNode) { mExtentSize.Observe(int64(x.Extent.Len())) })
	fp := a.Footprint()
	mExtentBytes.Set(int64(fp.Bytes))
	mExtentPairs.Set(int64(fp.Edges))
	mExtentBlocks.Set(int64(fp.Blocks))
}
