package xmlgraph

import (
	"fmt"
	"strings"
)

// AppendFragment parses an XML fragment and attaches its root element as a
// child of parent, returning the new element's NID. New nodes receive
// document orders after all existing ones (an append at the end of the
// parent's children, the common XML update in the APEX setting, where the
// paper itself leaves data updates to future work).
//
// ID attributes in the fragment register new identifiers; IDREF attributes
// may reference both pre-existing and fragment-local IDs.
func (g *Graph) AppendFragment(parent NID, fragment string, opts *BuildOptions) (NID, error) {
	if parent < 0 || int(parent) >= len(g.nodes) {
		return NullNID, fmt.Errorf("xmlgraph: append: parent %d out of range", parent)
	}
	if g.nodes[parent].Kind != KindElement {
		return NullNID, fmt.Errorf("xmlgraph: append: parent %d is not an element", parent)
	}
	// Parse the fragment into a scratch graph, then splice it in. The
	// scratch parse reuses the exact builder logic (attributes, IDREFS,
	// text handling); fragment-local references resolve inside the scratch
	// graph, and unresolved ones are retried against this graph's IDs.
	sub, pending, err := buildPartial(strings.NewReader(fragment), opts)
	if err != nil {
		return NullNID, err
	}
	// Validate everything before touching the host graph so a failed
	// append leaves no orphaned nodes behind.
	for idVal := range sub.ids {
		if prev, dup := g.ids[idVal]; dup {
			return NullNID, fmt.Errorf("xmlgraph: append: duplicate ID %q (already node %d)", idVal, prev)
		}
	}
	for _, p := range pending {
		if _, ok := g.ids[p.targetID]; !ok {
			return NullNID, fmt.Errorf("xmlgraph: append: dangling IDREF %q", p.targetID)
		}
	}
	// Splice: copy nodes with an offset, preserving relative order.
	offset := NID(len(g.nodes))
	order := g.maxOrder + 1
	for i := 0; i < sub.NumNodes(); i++ {
		n := sub.Node(NID(i))
		id := g.AddNode(n.Kind, n.Tag, n.Value)
		g.SetOrder(id, order)
		order++
	}
	// Containment edges first — the parent's edge to the fragment root, then
	// the fragment's own — so that every spliced node's first incoming edge
	// is its hierarchy edge even when a fragment-local reference to it leaves
	// a node with a smaller nid.
	root := sub.Root() + offset
	g.AddEdge(parent, g.nodes[root].Tag, root)
	contains := func(e Edge) bool { return e.To != sub.Root() && sub.IsHierarchyEdge(e) }
	sub.EachEdge(func(e Edge) {
		if contains(e) {
			g.AddEdge(e.From+offset, e.Label, e.To+offset)
		}
	})
	sub.EachEdge(func(e Edge) {
		if !contains(e) {
			g.AddEdge(e.From+offset, e.Label, e.To+offset)
		}
	})
	for _, l := range sub.IDREFLabels() {
		g.MarkIDREFLabel(l)
	}
	for idVal, nid := range sub.ids {
		g.registerID(idVal, nid+offset)
	}
	// References that pointed outside the fragment resolve against the
	// host graph's identifiers.
	for _, p := range pending {
		target, _ := g.ids[p.targetID]
		g.AddEdge(p.attrNode+offset, g.Node(target).Tag, target)
	}
	if cached := g.docDepth.Load(); cached > 0 {
		if d := int32(g.hierarchyDepth(parent) + 1 + sub.DocDepth()); d+1 > cached {
			g.docDepth.Store(d + 1)
		}
	}
	return root, nil
}

// RemoveSubtree deletes the document subtree rooted at v: v, every node
// whose first-parent chain runs through v, and every edge touching the
// removed nodes — including reference edges from surviving nodes into the
// subtree (their '@attr' nodes survive with the textual value but no longer
// dereference, like an unvalidated document). Removed nodes become inert:
// no edges, no value, excluded from Stats. The root cannot be removed.
func (g *Graph) RemoveSubtree(v NID) error {
	_, err := g.RemoveSubtreeDelta(v)
	return err
}

// Removal is what one RemoveSubtree took out of the graph: the removed
// nodes, and every edge it detached (each once) — the delta an index or a
// value table over the graph has to retract.
type Removal struct {
	Nodes []NID
	Edges []Edge
}

// RemoveSubtreeDelta is RemoveSubtree reporting what it removed.
func (g *Graph) RemoveSubtreeDelta(v NID) (Removal, error) {
	if v < 0 || int(v) >= len(g.nodes) {
		return Removal{}, fmt.Errorf("xmlgraph: remove: node %d out of range", v)
	}
	if v == g.root {
		return Removal{}, fmt.Errorf("xmlgraph: remove: cannot remove the document root")
	}
	if g.removed[v] {
		return Removal{}, fmt.Errorf("xmlgraph: remove: node %d already removed", v)
	}
	// Collect the document subtree: children are the outgoing-edge targets
	// whose first (hierarchy) in-edge comes from the node being removed.
	var list []NID
	type frame struct {
		n     NID
		depth int
	}
	stack := []frame{{v, g.hierarchyDepth(v)}}
	deepest := 0
	detached := len(g.in.at(v)) == 0
	g.removed[v] = true
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		list = append(list, f.n)
		deepest = max(deepest, f.depth)
		for _, he := range g.out.at(f.n) {
			c := he.To
			if in := g.in.at(c); !g.removed[c] && len(in) > 0 && in[0].To == f.n && in[0].Label == he.Label {
				g.removed[c] = true
				stack = append(stack, frame{c, f.depth + 1})
			}
		}
	}
	if int32(deepest)+1 >= g.docDepth.Load() {
		g.docDepth.Store(0) // the deepest node may be gone: recompute on demand
	}
	// Detach every edge with a removed endpoint, charging each edge once.
	var edges []Edge
	dropEdge := func(from NID, label string, to NID) {
		edges = append(edges, Edge{From: from, Label: label, To: to})
		g.labels[label]--
		if g.labels[label] == 0 {
			delete(g.labels, label)
		}
		g.edgeCount--
	}
	for _, n := range list {
		for _, he := range g.out.at(n) {
			dropEdge(n, he.Label, he.To)
			if !g.removed[he.To] {
				row := g.in.edit(he.To)
				*row = filterHalfEdges(*row, he.Label, n)
			}
		}
		for _, he := range g.in.at(n) {
			if !g.removed[he.To] {
				dropEdge(he.To, he.Label, n)
				row := g.out.edit(he.To)
				*row = filterHalfEdges(*row, he.Label, n)
			}
		}
	}
	// Unregister the identifiers declared inside the subtree. A declaration
	// is an attribute node carrying the ID value under the declaring element
	// (the builder keeps ID attributes as data), so the removed attribute
	// values are the only candidates — no scan of every declared ID. The
	// exception is a node with no incoming edge: a shard graph keeps every
	// node but only its own units' edges, so there the declaring attribute
	// of v may be out of reach, and every ID is checked as before.
	if detached {
		for val, el := range g.ids {
			if g.removed[el] {
				g.ownIDs()
				delete(g.ids, val)
			}
		}
	}
	for _, n := range list {
		if nd := g.nodes[n]; nd.Kind == KindAttribute && nd.Value != "" {
			if el, ok := g.ids[nd.Value]; ok && g.removed[el] {
				g.ownIDs()
				delete(g.ids, nd.Value)
			}
		}
		*g.out.slot(n) = nil
		*g.in.slot(n) = nil
	}
	return Removal{Nodes: list, Edges: edges}, nil
}

// filterHalfEdges removes the (label, to) entry, preserving order — the
// first entry stays the hierarchy edge for surviving nodes.
func filterHalfEdges(hes []HalfEdge, label string, to NID) []HalfEdge {
	out := hes[:0]
	for _, he := range hes {
		if he.Label == label && he.To == to {
			continue
		}
		out = append(out, he)
	}
	return out
}

// Removed reports whether node v was deleted by RemoveSubtree.
func (g *Graph) Removed(v NID) bool {
	return v >= 0 && int(v) < len(g.nodes) && g.removed[v]
}
