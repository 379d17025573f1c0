package xmlgraph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
)

// The graph wire format is a hand-rolled binary encoding rather than gob:
// the graph is the largest component of a durable checkpoint, and decoding
// it dominates restart time, so the format is built for decode speed — a
// string table interning the (heavily repeated) tags and edge labels,
// varint-delta node orders and edge sources, and no reflection anywhere.
//
// Layout after the 8-byte magic:
//
//	strings   uvarint count, then per string: uvarint length + bytes
//	nodes     uvarint count, then per node:
//	          kind byte, uvarint tag index, string value, varint order-id delta
//	edges     uvarint count, then per edge (ascending From):
//	          uvarint From delta, uvarint label index, uvarint To
//	root      varint (NullNID when unset)
//	idrefs    uvarint count + label indexes
//	ids       uvarint count, then per entry: string value + uvarint nid
//	removed   uvarint count + ascending uvarint nid deltas
//
// Integrity is the storage layer's job (checkpoint files are CRC-framed);
// the decoder only validates structure: indexes in range, counts sane.
const graphMagic = "APEXGRF1"

// graphMaxString bounds one decoded string (a tag, label, value, or ID).
const graphMaxString = 1 << 28

type graphWriter struct {
	w   *bufio.Writer
	tmp [binary.MaxVarintLen64]byte
}

func (gw *graphWriter) uvarint(v uint64) {
	n := binary.PutUvarint(gw.tmp[:], v)
	gw.w.Write(gw.tmp[:n])
}

func (gw *graphWriter) varint(v int64) {
	n := binary.PutVarint(gw.tmp[:], v)
	gw.w.Write(gw.tmp[:n])
}

func (gw *graphWriter) str(s string) {
	gw.uvarint(uint64(len(s)))
	gw.w.WriteString(s)
}

// Encode writes the graph in the binary wire form. The encoding is
// self-contained: decoding does not need the original document or parser
// options. Output is deterministic for a given graph (maps are emitted in
// sorted order).
func (g *Graph) Encode(w io.Writer) error {
	gw := &graphWriter{w: bufio.NewWriter(w)}
	gw.w.WriteString(graphMagic)

	// String table: every tag, edge label, and IDREF label, interned in
	// first-sight order.
	strIdx := make(map[string]int)
	var strs []string
	intern := func(s string) int {
		i, ok := strIdx[s]
		if !ok {
			i = len(strs)
			strIdx[s] = i
			strs = append(strs, s)
		}
		return i
	}
	for i := range g.nodes {
		intern(g.nodes[i].Tag)
	}
	for from := range g.nodes {
		for _, he := range g.out.at(NID(from)) {
			intern(he.Label)
		}
	}
	for _, l := range g.IDREFLabels() {
		intern(l)
	}
	gw.uvarint(uint64(len(strs)))
	for _, s := range strs {
		gw.str(s)
	}

	// Nodes, in nid order. Order is usually equal to the nid, so the delta
	// is usually the single byte 0.
	gw.uvarint(uint64(len(g.nodes)))
	for i := range g.nodes {
		n := &g.nodes[i]
		gw.w.WriteByte(byte(n.Kind))
		gw.uvarint(uint64(strIdx[n.Tag]))
		gw.str(g.Value(n.ID))
		gw.varint(int64(n.Order) - int64(n.ID))
	}

	// Edges, grouped by source so From delta-encodes to mostly 0 and 1.
	gw.uvarint(uint64(g.edgeCount))
	prevFrom := 0
	for from := range g.nodes {
		for _, he := range g.out.at(NID(from)) {
			gw.uvarint(uint64(from - prevFrom))
			prevFrom = from
			gw.uvarint(uint64(strIdx[he.Label]))
			gw.uvarint(uint64(he.To))
		}
	}

	gw.varint(int64(g.root))

	idrefs := g.IDREFLabels()
	gw.uvarint(uint64(len(idrefs)))
	for _, l := range idrefs {
		gw.uvarint(uint64(strIdx[l]))
	}

	idKeys := make([]string, 0, len(g.ids))
	for v := range g.ids {
		idKeys = append(idKeys, v)
	}
	sort.Strings(idKeys)
	gw.uvarint(uint64(len(idKeys)))
	for _, v := range idKeys {
		gw.str(v)
		gw.uvarint(uint64(g.ids[v]))
	}

	var removed []int
	for i, r := range g.removed {
		if r {
			removed = append(removed, i)
		}
	}
	gw.uvarint(uint64(len(removed)))
	prev := 0
	for _, n := range removed {
		gw.uvarint(uint64(n - prev))
		prev = n
	}

	if err := gw.w.Flush(); err != nil {
		return fmt.Errorf("xmlgraph: encode: %w", err)
	}
	return nil
}

// byteScanner is what the decoder needs from its input. When the caller's
// reader already satisfies it (bufio.Reader, bytes.Reader, ...), it is used
// directly — wrapping would buffer ahead and over-read past the graph when
// the encoding is embedded in a larger stream (the legacy monolithic dump).
type byteScanner interface {
	io.Reader
	io.ByteReader
}

type graphReader struct {
	r byteScanner
}

func (gr *graphReader) uvarint() (uint64, error) {
	return binary.ReadUvarint(gr.r)
}

func (gr *graphReader) varint() (int64, error) {
	return binary.ReadVarint(gr.r)
}

func (gr *graphReader) str() (string, error) {
	n, err := gr.uvarint()
	if err != nil {
		return "", err
	}
	if n > graphMaxString {
		return "", fmt.Errorf("string length %d out of range", n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(gr.r, b); err != nil {
		return "", err
	}
	return string(b), nil
}

// DecodeGraph reads a graph written by Encode. It consumes exactly the
// encoded bytes when r is a byte reader, so the graph may be embedded in a
// larger stream.
func DecodeGraph(r io.Reader) (*Graph, error) {
	bs, ok := r.(byteScanner)
	if !ok {
		bs = bufio.NewReader(r)
	}
	gr := &graphReader{r: bs}
	magic := make([]byte, len(graphMagic))
	if _, err := io.ReadFull(gr.r, magic); err != nil {
		return nil, fmt.Errorf("xmlgraph: decode: %w", err)
	}
	if string(magic) != graphMagic {
		return nil, fmt.Errorf("xmlgraph: decode: bad magic %q", magic)
	}
	g, err := decodeGraphBody(gr)
	if err != nil {
		return nil, fmt.Errorf("xmlgraph: decode: %w", err)
	}
	return g, nil
}

func decodeGraphBody(gr *graphReader) (*Graph, error) {
	nStrs, err := gr.uvarint()
	if err != nil {
		return nil, err
	}
	if nStrs > graphMaxString {
		return nil, fmt.Errorf("string table size %d out of range", nStrs)
	}
	strs := make([]string, nStrs)
	for i := range strs {
		if strs[i], err = gr.str(); err != nil {
			return nil, err
		}
	}
	str := func(what string) (string, error) {
		i, err := gr.uvarint()
		if err != nil {
			return "", err
		}
		if i >= uint64(len(strs)) {
			return "", fmt.Errorf("%s index %d out of range", what, i)
		}
		return strs[i], nil
	}

	nNodes, err := gr.uvarint()
	if err != nil {
		return nil, err
	}
	if nNodes > graphMaxString {
		return nil, fmt.Errorf("node count %d out of range", nNodes)
	}
	g := NewGraph()
	for i := uint64(0); i < nNodes; i++ {
		kind, err := gr.r.ReadByte()
		if err != nil {
			return nil, err
		}
		tag, err := str("tag")
		if err != nil {
			return nil, err
		}
		value, err := gr.str()
		if err != nil {
			return nil, err
		}
		d, err := gr.varint()
		if err != nil {
			return nil, err
		}
		id := g.AddNode(NodeKind(kind), tag, value)
		g.SetOrder(id, int32(int64(id)+d))
	}

	nEdges, err := gr.uvarint()
	if err != nil {
		return nil, err
	}
	from := int64(0)
	for i := uint64(0); i < nEdges; i++ {
		d, err := gr.uvarint()
		if err != nil {
			return nil, err
		}
		from += int64(d)
		label, err := str("label")
		if err != nil {
			return nil, err
		}
		to, err := gr.uvarint()
		if err != nil {
			return nil, err
		}
		if from >= int64(len(g.nodes)) || to >= uint64(len(g.nodes)) {
			return nil, fmt.Errorf("edge %d->%d out of range", from, to)
		}
		g.addEdgeTrusted(NID(from), label, NID(to))
	}

	root, err := gr.varint()
	if err != nil {
		return nil, err
	}
	if root != int64(NullNID) {
		if root < 0 || root >= int64(len(g.nodes)) {
			return nil, fmt.Errorf("root %d out of range", root)
		}
		g.SetRoot(NID(root))
	}

	nIDREF, err := gr.uvarint()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nIDREF; i++ {
		l, err := str("idref label")
		if err != nil {
			return nil, err
		}
		g.MarkIDREFLabel(l)
	}

	nIDs, err := gr.uvarint()
	if err != nil {
		return nil, err
	}
	if nIDs > graphMaxString {
		return nil, fmt.Errorf("id registry size %d out of range", nIDs)
	}
	for i := uint64(0); i < nIDs; i++ {
		v, err := gr.str()
		if err != nil {
			return nil, err
		}
		n, err := gr.uvarint()
		if err != nil {
			return nil, err
		}
		if n >= uint64(len(g.nodes)) {
			return nil, fmt.Errorf("id target %d out of range", n)
		}
		g.registerID(v, NID(n))
	}

	nRemoved, err := gr.uvarint()
	if err != nil {
		return nil, err
	}
	prev := uint64(0)
	for i := uint64(0); i < nRemoved; i++ {
		d, err := gr.uvarint()
		if err != nil {
			return nil, err
		}
		prev += d
		if prev >= uint64(len(g.removed)) {
			return nil, fmt.Errorf("removed nid %d out of range", prev)
		}
		g.removed[prev] = true
	}
	return g, nil
}
