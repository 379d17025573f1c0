// Package xmlgraph models XML documents as edge-labeled directed graphs,
// following the data model of the APEX paper (Min, Chung, Shim; SIGMOD 2002),
// which itself follows the OEM model: G_XML = (V, E, root, A) where V is
// partitioned into non-leaf nodes and leaf (value) nodes, E ⊆ V × A × V is a
// set of labeled edges, and every node carries a unique node identifier (nid)
// and its document order.
//
// ID/IDREF attributes turn documents into general graphs: an IDREF-typed
// attribute becomes an edge labeled "@attr" from the element to an attribute
// node, and the attribute node gets a reference edge to the target element
// labeled with the target element's tag (Section 3 of the paper).
package xmlgraph

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// NID is a node identifier. NIDs are dense: they index directly into the
// graph's node table. NullNID stands for the paper's NULL parent in the
// root extent edge <NULL, root>.
type NID int32

// NullNID is the absent-parent marker used in root extents.
const NullNID NID = -1

// NodeKind distinguishes the three flavors of graph nodes produced from an
// XML document.
type NodeKind uint8

const (
	// KindElement is an XML element node.
	KindElement NodeKind = iota
	// KindAttribute is an attribute node (reached by an "@name" edge).
	KindAttribute
	// KindText is a standalone text node (used for mixed content).
	KindText
)

func (k NodeKind) String() string {
	switch k {
	case KindElement:
		return "element"
	case KindAttribute:
		return "attribute"
	case KindText:
		return "text"
	default:
		return fmt.Sprintf("NodeKind(%d)", uint8(k))
	}
}

// Node is a vertex of G_XML. Leaf nodes (V_a in the paper) carry raw
// character data in Value; composite nodes have outgoing edges.
type Node struct {
	ID    NID
	Kind  NodeKind
	Tag   string // element tag, attribute name (without '@'), or "" for text
	Value string // character data for leaves; "" otherwise
	Order int32  // document order, assigned in parse order
}

// HalfEdge is an outgoing or incoming edge with the far endpoint.
type HalfEdge struct {
	Label string
	To    NID
}

// Edge is a fully-qualified labeled edge of G_XML.
type Edge struct {
	From  NID
	Label string
	To    NID
}

// EdgePair is the <parentNid, nid> pair stored in index extents
// (Definition 7: an edge set is a set of pairs of nids for the incoming
// edges to the last nodes reachable by a label path).
type EdgePair struct {
	From NID
	To   NID
}

func (p EdgePair) String() string {
	if p.From == NullNID {
		return fmt.Sprintf("<NULL,%d>", p.To)
	}
	return fmt.Sprintf("<%d,%d>", p.From, p.To)
}

// Graph is an immutable-after-build edge-labeled directed graph for one XML
// document (or one synthetic dataset).
type Graph struct {
	nodes []Node
	out   rowTable
	in    rowTable
	root  NID

	edgeCount   int
	maxOrder    int32          // highest document order assigned so far; -1 when empty
	labels      map[string]int // label -> number of edges carrying it
	idrefLabels map[string]bool
	ids         map[string]NID // declared ID value -> element
	removed     []bool         // tombstones left by RemoveSubtree

	// docDepth caches DocDepth()+1 (0 = not computed): every published
	// snapshot gets a fresh evaluator that asks for it, and the whole-graph
	// walk would be the one O(|V|) step left on a small write. The mutators
	// keep it current, or reset it when a removal may have lowered it.
	docDepth atomic.Int32

	// Copy-on-write state, see Clone (the adjacency tables carry their own).
	// The ids map may be shared while idsShared is set, and is copied before
	// a write. While nodesTail is set, the node
	// table's backing array is shared: its first nodesShared entries are
	// visible to other graphs and never written, and the slots behind a
	// graph's own length are claimed through the tail before an append
	// writes them. cowMu orders the bookkeeping writes of concurrent Clones.
	cowMu       sync.Mutex
	idsShared   bool
	nodesTail   *atomic.Int64
	nodesShared int
}

// NewGraph returns an empty graph. Use AddNode/AddEdge/SetRoot to populate;
// builders in this package and in datagen do this for you.
func NewGraph() *Graph {
	return &Graph{
		root:        NullNID,
		maxOrder:    -1,
		labels:      make(map[string]int),
		idrefLabels: make(map[string]bool),
		ids:         make(map[string]NID),
	}
}

// registerID records an element identifier for ID/IDREF resolution.
func (g *Graph) registerID(value string, node NID) {
	g.ownIDs()
	g.ids[value] = node
}

// LookupID returns the element declared with the given ID value.
func (g *Graph) LookupID(value string) (NID, bool) {
	n, ok := g.ids[value]
	return n, ok
}

// AddNode appends a node and returns its NID. Document order is assigned in
// insertion order unless the caller sets it explicitly afterwards via
// SetOrder.
func (g *Graph) AddNode(kind NodeKind, tag, value string) NID {
	id := NID(len(g.nodes))
	g.out.grow(len(g.nodes))
	g.in.grow(len(g.nodes))
	g.appendNode(Node{ID: id, Kind: kind, Tag: tag, Value: value})
	g.SetOrder(id, int32(id))
	g.removed = append(g.removed, false)
	return id
}

// SetOrder overrides the document order of node id.
func (g *Graph) SetOrder(id NID, order int32) {
	g.ownNode(id)
	g.nodes[id].Order = order
	if order > g.maxOrder {
		g.maxOrder = order
	}
}

// SetValue overrides the character data of node id.
func (g *Graph) SetValue(id NID, value string) {
	g.ownNode(id)
	g.nodes[id].Value = value
}

// SetRoot designates the root node of the graph.
func (g *Graph) SetRoot(id NID) { g.root = id }

// AddEdge inserts a labeled edge from -> to. Duplicate (from,label,to)
// triples are ignored so builders can be idempotent about references.
func (g *Graph) AddEdge(from NID, label string, to NID) {
	for _, he := range g.out.at(from) {
		if he.Label == label && he.To == to {
			return
		}
	}
	g.addEdgeTrusted(from, label, to)
}

// addEdgeTrusted is AddEdge without the duplicate scan, for callers that know
// the edge is new — the decoder above all: the encoder wrote from a graph
// whose adjacency lists were already duplicate-free, so re-checking would
// make decode quadratic in fan-out.
func (g *Graph) addEdgeTrusted(from NID, label string, to NID) {
	row := g.out.edit(from)
	*row = append(*row, HalfEdge{Label: label, To: to})
	row = g.in.edit(to)
	*row = append(*row, HalfEdge{Label: label, To: from})
	g.labels[label]++
	g.edgeCount++
}

// MarkIDREFLabel records that label (an "@attr" label) is IDREF-typed; used
// for the Table 1 statistics.
func (g *Graph) MarkIDREFLabel(label string) { g.idrefLabels[label] = true }

// Root returns the root NID (NullNID if unset).
func (g *Graph) Root() NID { return g.root }

// NumNodes returns the size of the node table, including tombstones left
// by RemoveSubtree (nids are never reused); Stats reports live nodes.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int { return g.edgeCount }

// Node returns the node with the given nid; a removed node has no value.
func (g *Graph) Node(id NID) Node {
	n := g.nodes[id]
	if g.removed[id] {
		n.Value = ""
	}
	return n
}

// Out returns the outgoing half-edges of id. The returned slice must not be
// modified.
func (g *Graph) Out(id NID) []HalfEdge { return g.out.at(id) }

// In returns the incoming half-edges of id. The returned slice must not be
// modified.
func (g *Graph) In(id NID) []HalfEdge { return g.in.at(id) }

// OutWithLabel returns the endpoints of id's outgoing edges labeled label.
func (g *Graph) OutWithLabel(id NID, label string) []NID {
	var res []NID
	for _, he := range g.out.at(id) {
		if he.Label == label {
			res = append(res, he.To)
		}
	}
	return res
}

// Labels returns the distinct edge labels in sorted order.
func (g *Graph) Labels() []string {
	res := make([]string, 0, len(g.labels))
	for l := range g.labels {
		res = append(res, l)
	}
	sort.Strings(res)
	return res
}

// NumLabels returns the number of distinct edge labels.
func (g *Graph) NumLabels() int { return len(g.labels) }

// IDREFLabels returns the distinct IDREF-typed "@attr" labels, sorted.
func (g *Graph) IDREFLabels() []string {
	res := make([]string, 0, len(g.idrefLabels))
	for l := range g.idrefLabels {
		res = append(res, l)
	}
	sort.Strings(res)
	return res
}

// LabelCount returns how many edges carry label.
func (g *Graph) LabelCount(label string) int { return g.labels[label] }

// Value returns the character data of node id ("" for non-leaves and for
// removed nodes).
func (g *Graph) Value(id NID) string {
	if g.removed[id] {
		return ""
	}
	return g.nodes[id].Value
}

// SortByDocumentOrder sorts nids in place by each node's document order,
// the post-processing step Section 3 prescribes for query results.
func (g *Graph) SortByDocumentOrder(nids []NID) {
	sort.Slice(nids, func(i, j int) bool {
		return g.nodes[nids[i]].Order < g.nodes[nids[j]].Order
	})
}

// EachEdge calls fn for every edge in the graph, in from-nid order.
func (g *Graph) EachEdge(fn func(Edge)) {
	for from := range g.nodes {
		for _, he := range g.out.at(NID(from)) {
			fn(Edge{From: NID(from), Label: he.Label, To: he.To})
		}
	}
}

// Stats summarizes the graph in the shape of the paper's Table 1.
type Stats struct {
	Nodes       int
	Edges       int
	Labels      int
	IDREFLabels int
}

// Stats computes the Table 1 row for this graph (live nodes only).
func (g *Graph) Stats() Stats {
	live := 0
	for _, r := range g.removed {
		if !r {
			live++
		}
	}
	return Stats{
		Nodes:       live,
		Edges:       g.NumEdges(),
		Labels:      len(g.labels),
		IDREFLabels: len(g.idrefLabels),
	}
}

func (s Stats) String() string {
	return fmt.Sprintf("nodes=%d edges=%d labels=%d(%d)", s.Nodes, s.Edges, s.Labels, s.IDREFLabels)
}

// Dump renders a human-readable adjacency listing, useful in examples and
// debugging. Large graphs are truncated to maxNodes (0 means no limit).
func (g *Graph) Dump(maxNodes int) string {
	var b strings.Builder
	n := len(g.nodes)
	if maxNodes > 0 && n > maxNodes {
		n = maxNodes
	}
	for i := 0; i < n; i++ {
		nd := g.Node(NID(i))
		fmt.Fprintf(&b, "%d [%s %s", nd.ID, nd.Kind, nd.Tag)
		if nd.Value != "" {
			fmt.Fprintf(&b, " %q", nd.Value)
		}
		b.WriteString("]")
		for _, he := range g.out.at(NID(i)) {
			fmt.Fprintf(&b, " -%s->%d", he.Label, he.To)
		}
		b.WriteString("\n")
	}
	if n < len(g.nodes) {
		fmt.Fprintf(&b, "... (%d more nodes)\n", len(g.nodes)-n)
	}
	return b.String()
}
