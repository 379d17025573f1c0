package xmlgraph

import "strings"

// LabelPath is a sequence of edge labels (Definition 2). The paper writes
// label paths dot-separated, e.g. "movie.title"; String renders that form.
type LabelPath []string

// ParseLabelPath splits a dot-separated label path. Empty input yields nil.
func ParseLabelPath(s string) LabelPath {
	if s == "" {
		return nil
	}
	return LabelPath(strings.Split(s, "."))
}

func (p LabelPath) String() string { return strings.Join(p, ".") }

// Len returns the number of labels in the path.
func (p LabelPath) Len() int { return len(p) }

// Equal reports whether p and q are the same label sequence.
func (p LabelPath) Equal(q LabelPath) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// ContainedIn reports whether p is a subpath of q (Definition 5): p occurs
// as a contiguous subsequence of q.
func (p LabelPath) ContainedIn(q LabelPath) bool {
	if len(p) == 0 {
		return true
	}
	if len(p) > len(q) {
		return false
	}
outer:
	for i := 0; i+len(p) <= len(q); i++ {
		for j := range p {
			if q[i+j] != p[j] {
				continue outer
			}
		}
		return true
	}
	return false
}

// SuffixOf reports whether p is a suffix of q (Definition 5, the m = i+n-1
// case).
func (p LabelPath) SuffixOf(q LabelPath) bool {
	if len(p) > len(q) {
		return false
	}
	off := len(q) - len(p)
	for j := range p {
		if q[off+j] != p[j] {
			return false
		}
	}
	return true
}

// Concat returns p followed by label, as a fresh slice.
func (p LabelPath) Concat(label string) LabelPath {
	res := make(LabelPath, len(p)+1)
	copy(res, p)
	res[len(p)] = label
	return res
}

// Subpaths calls fn for every contiguous subpath of p (all i ≤ j windows),
// in increasing start then increasing length order. This is the enumeration
// the naïve one-scan workload miner performs per query (Section 5.2).
func (p LabelPath) Subpaths(fn func(LabelPath)) {
	for i := 0; i < len(p); i++ {
		for j := i + 1; j <= len(p); j++ {
			fn(p[i:j])
		}
	}
}

// Suffixes calls fn for every non-empty suffix of p, longest first.
func (p LabelPath) Suffixes(fn func(LabelPath)) {
	for i := 0; i < len(p); i++ {
		fn(p[i:])
	}
}

// DocDepth returns the maximum document-hierarchy depth of the graph: the
// longest first-parent chain over all nodes. The first incoming edge of a
// node is its document parent (builders append reference edges last), so
// this bounds the length of any label path that avoids reference edges.
func (g *Graph) DocDepth() int {
	if d := g.docDepth.Load(); d > 0 {
		return int(d) - 1
	}
	const unvisited, inProgress = 0, -1
	depth := make([]int, len(g.nodes)) // root and orphans resolve to 1 internally
	var visit func(v NID) int
	visit = func(v NID) int {
		switch {
		case v == g.root || len(g.in.at(v)) == 0:
			return 1 // stored depth is 1-based to distinguish from unvisited
		case depth[v] == inProgress:
			return 1 // defensive: malformed first-parent cycle
		case depth[v] != unvisited:
			return depth[v]
		}
		depth[v] = inProgress
		d := visit(g.in.at(v)[0].To) + 1
		depth[v] = d
		return d
	}
	maxd := 0
	for v := range g.nodes {
		if d := visit(NID(v)) - 1; d > maxd {
			maxd = d
		}
	}
	g.docDepth.Store(int32(maxd) + 1)
	return maxd
}

// hierarchyDepth returns the length of v's first-parent chain, DocDepth's
// measure for a single node.
func (g *Graph) hierarchyDepth(v NID) int {
	d := 0
	for v != g.root && len(g.in.at(v)) > 0 && d <= len(g.nodes) {
		v = g.in.at(v)[0].To
		d++
	}
	return d
}

// LabelPathsOf enumerates, without duplicates, the label paths of node o up
// to maxLen labels (Definition 2: sequences traversable from o). Cyclic
// graphs have infinitely many label paths, so a length cap is required; the
// traversal additionally never expands the same (node, depth) pair twice,
// bounding work. The paths are reported via fn in DFS order.
func (g *Graph) LabelPathsOf(o NID, maxLen int, fn func(LabelPath)) {
	seen := make(map[string]bool)
	type frame struct {
		node NID
		path LabelPath
	}
	var rec func(f frame)
	rec = func(f frame) {
		if len(f.path) >= maxLen {
			return
		}
		for _, he := range g.out.at(f.node) {
			np := f.path.Concat(he.Label)
			key := np.String()
			if !seen[key] {
				seen[key] = true
				fn(np)
			}
			rec(frame{node: he.To, path: np})
		}
	}
	rec(frame{node: o, path: nil})
}

// RootPaths enumerates the distinct root label paths of the graph (label
// paths of the root node) up to maxLen, the set Q_XML of Definition 9,
// returning them in discovery order. The expansion is DataGuide-like: each
// distinct label path is expanded once from the set of all nodes it reaches,
// so shared prefixes are not re-traversed and cyclic graphs terminate at the
// length cap.
func (g *Graph) RootPaths(maxLen int) []LabelPath {
	type state struct {
		path    LabelPath
		targets []NID
	}
	var result []LabelPath
	frontier := []state{{path: nil, targets: []NID{g.root}}}
	for depth := 0; depth < maxLen && len(frontier) > 0; depth++ {
		var next []state
		for _, st := range frontier {
			byLabel := make(map[string][]NID)
			memb := make(map[string]map[NID]bool)
			var labelOrder []string
			for _, n := range st.targets {
				for _, he := range g.out.at(n) {
					m, ok := memb[he.Label]
					if !ok {
						m = make(map[NID]bool)
						memb[he.Label] = m
						labelOrder = append(labelOrder, he.Label)
					}
					if !m[he.To] {
						m[he.To] = true
						byLabel[he.Label] = append(byLabel[he.Label], he.To)
					}
				}
			}
			for _, l := range labelOrder {
				np := st.path.Concat(l)
				result = append(result, np)
				next = append(next, state{path: np, targets: byLabel[l]})
			}
		}
		frontier = next
	}
	return result
}

// EvalSimplePath returns the nodes reached from start by traversing the
// label path exactly (reference semantics used by tests to validate index
// answers). The result is deduplicated and sorted by document order.
func (g *Graph) EvalSimplePath(start NID, p LabelPath) []NID {
	cur := map[NID]bool{start: true}
	for _, l := range p {
		next := make(map[NID]bool)
		for n := range cur {
			for _, he := range g.out.at(n) {
				if he.Label == l {
					next[he.To] = true
				}
			}
		}
		cur = next
		if len(cur) == 0 {
			break
		}
	}
	res := make([]NID, 0, len(cur))
	for n := range cur {
		res = append(res, n)
	}
	g.SortByDocumentOrder(res)
	return res
}

// EvalPartialPath evaluates //l_1/l_2/…/l_n by brute force: every node whose
// incoming label path matches p anywhere in the graph. Used as the oracle in
// tests; O(V·E·|p|) and not meant for production evaluation.
func (g *Graph) EvalPartialPath(p LabelPath) []NID {
	if len(p) == 0 {
		return nil
	}
	// match[i] holds the nodes reachable by the prefix p[:i+1] starting at
	// any node of the graph.
	cur := make(map[NID]bool)
	for from := range g.nodes {
		for _, he := range g.out.at(NID(from)) {
			if he.Label == p[0] {
				cur[he.To] = true
			}
		}
	}
	for _, l := range p[1:] {
		next := make(map[NID]bool)
		for n := range cur {
			for _, he := range g.out.at(n) {
				if he.Label == l {
					next[he.To] = true
				}
			}
		}
		cur = next
	}
	res := make([]NID, 0, len(cur))
	for n := range cur {
		res = append(res, n)
	}
	g.SortByDocumentOrder(res)
	return res
}

// EvalMixed evaluates //s1//s2//…//sn by brute force: segment s1 matched
// anywhere, each following segment matched at or below the previous
// segment's matches. As in QTYPE2, descendant gaps do not traverse
// reference ('@'-labeled) edges when skipRefs is set, while labels inside
// segments may. Oracle for QMIXED tests.
func (g *Graph) EvalMixed(segments []LabelPath, skipRefs bool) []NID {
	if len(segments) == 0 {
		return nil
	}
	cur := map[NID]bool{}
	for _, n := range g.EvalPartialPath(segments[0]) {
		cur[n] = true
	}
	for _, seg := range segments[1:] {
		// Descendant-or-self closure over non-reference edges.
		reach := make(map[NID]bool)
		stack := make([]NID, 0, len(cur))
		for n := range cur {
			reach[n] = true
			stack = append(stack, n)
		}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, he := range g.out.at(n) {
				if skipRefs && strings.HasPrefix(he.Label, "@") {
					continue
				}
				if !reach[he.To] {
					reach[he.To] = true
					stack = append(stack, he.To)
				}
			}
		}
		// Match the segment starting at any child edge of a reached node.
		next := make(map[NID]bool)
		for n := range reach {
			for _, he := range g.out.at(n) {
				if he.Label == seg[0] {
					next[he.To] = true
				}
			}
		}
		for _, l := range seg[1:] {
			step := make(map[NID]bool)
			for n := range next {
				for _, he := range g.out.at(n) {
					if he.Label == l {
						step[he.To] = true
					}
				}
			}
			next = step
		}
		cur = next
		if len(cur) == 0 {
			break
		}
	}
	res := make([]NID, 0, len(cur))
	for n := range cur {
		res = append(res, n)
	}
	g.SortByDocumentOrder(res)
	return res
}

// EvalDescendantPair evaluates //a//b by brute force: nodes with incoming
// label b reachable (by zero or more further edges, the last labeled b)
// from a node with incoming label a. Oracle for QTYPE2 tests.
//
// Per Section 6.1 the QTYPE2 query processor "does not use the reference
// relationship": when skipRefs is true, edges whose label starts with '@'
// are not traversed (which also cuts the tag-labeled reference edge that
// only an attribute node can reach), restricting matches to the document
// hierarchy.
func (g *Graph) EvalDescendantPair(a, b string, skipRefs bool) []NID {
	skip := func(label string) bool { return skipRefs && strings.HasPrefix(label, "@") }
	// Start set: nodes with an incoming edge labeled a.
	start := make(map[NID]bool)
	for from := range g.nodes {
		for _, he := range g.out.at(NID(from)) {
			if he.Label == a {
				start[he.To] = true
			}
		}
	}
	// Forward reachability from the start set.
	reach := make(map[NID]bool)
	stack := make([]NID, 0, len(start))
	for n := range start {
		if !reach[n] {
			reach[n] = true
			stack = append(stack, n)
		}
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, he := range g.out.at(n) {
			if skip(he.Label) {
				continue
			}
			if !reach[he.To] {
				reach[he.To] = true
				stack = append(stack, he.To)
			}
		}
	}
	// Result: nodes in reach whose incoming edge from a reached node is
	// labeled b.
	resSet := make(map[NID]bool)
	for n := range reach {
		for _, he := range g.out.at(n) {
			if he.Label == b {
				resSet[he.To] = true
			}
		}
	}
	res := make([]NID, 0, len(resSet))
	for n := range resSet {
		res = append(res, n)
	}
	g.SortByDocumentOrder(res)
	return res
}
