package xmlgraph

// HierarchyParent returns the containment parent of v — the far end of its
// first incoming edge, which builders and AppendFragment always insert
// before any reference edge — together with the edge label. The root (and
// any node with no incoming edges) has no hierarchy parent.
func (g *Graph) HierarchyParent(v NID) (parent NID, label string, ok bool) {
	if v < 0 || int(v) >= len(g.nodes) || len(g.in.at(v)) == 0 {
		return NullNID, "", false
	}
	he := g.in.at(v)[0]
	return he.To, he.Label, true
}

// IsHierarchyEdge reports whether e is the containment edge of its target:
// the edge RemoveSubtree follows when collecting a document subtree, and the
// one that must stay first in the target's incoming adjacency.
func (g *Graph) IsHierarchyEdge(e Edge) bool {
	in := g.in.at(e.To)
	return len(in) > 0 && in[0].To == e.From && in[0].Label == e.Label
}

// EdgeSubgraph returns a graph with the same node table as g — identical
// NIDs, document orders, tags, values, tombstones, registered identifiers,
// and IDREF label markings — but only the edges accepted by keep. Nodes none
// of whose edges are kept stay in the table as isolated vertices: they can
// never appear in an extent (extents are derived from edges), yet their NIDs
// remain valid, so identifier resolution and fragment splicing behave
// exactly as they do on g.
//
// Edges are inserted in two passes, hierarchy edges first, so that for every
// kept node the first incoming edge is its containment edge — the invariant
// RemoveSubtree and document-path reconstruction rely on. Keeping a node's
// hierarchy edge is the caller's responsibility: a subgraph that keeps a
// reference edge into a node but drops its containment edge would promote
// the reference to a hierarchy position.
func (g *Graph) EdgeSubgraph(keep func(Edge) bool) *Graph {
	c := &Graph{
		nodes:       append([]Node(nil), g.nodes...),
		out:         emptyRows(len(g.nodes)),
		in:          emptyRows(len(g.nodes)),
		root:        g.root,
		maxOrder:    g.maxOrder,
		labels:      make(map[string]int),
		idrefLabels: make(map[string]bool, len(g.idrefLabels)),
		ids:         make(map[string]NID, len(g.ids)),
		removed:     append([]bool(nil), g.removed...),
	}
	for l := range g.idrefLabels {
		c.idrefLabels[l] = true
	}
	for v, n := range g.ids {
		c.ids[v] = n
	}
	g.EachEdge(func(e Edge) {
		if g.IsHierarchyEdge(e) && keep(e) {
			c.AddEdge(e.From, e.Label, e.To)
		}
	})
	g.EachEdge(func(e Edge) {
		if !g.IsHierarchyEdge(e) && keep(e) {
			c.AddEdge(e.From, e.Label, e.To)
		}
	})
	return c
}
