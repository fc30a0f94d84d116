package sparse

// Nested dissection: recursively split the graph of A+Aᵀ with small vertex
// separators, order the two halves first and the separator last, and hand
// subgraphs below a size cutoff to minimum degree. On the 2D power-grid
// meshes the paper's method targets, the O(√n) separators bound fill growth
// where bandwidth orderings pay O(n) fronts, and each separator's columns
// share one pattern, so they amalgamate into the wide supernodal panels the
// blocked refactorization and substitution kernels stream most efficiently.

// ndLeafSize is the subgraph size below which recursion stops and minimum
// degree orders the leaf directly.
const ndLeafSize = 48

// NestedDissection returns a nested-dissection ordering of the pattern of
// a+aᵀ: column k of the permuted matrix is p[k] of the original.
func NestedDissection(a *CSC) []int {
	nd := newNDState(a)
	all := make([]int, a.Cols)
	for i := range all {
		all[i] = i
	}
	nd.dissect(all)
	return nd.perm
}

// newNDState returns the scratch for dissecting the pattern of a+aᵀ.
func newNDState(a *CSC) *ndState {
	n := a.Cols
	nd := &ndState{
		adj:   symPattern(a),
		perm:  make([]int, 0, n),
		level: make([]int32, n),
		inSet: make([]int32, n),
		queue: make([]int, 0, n),
	}
	for i := range nd.inSet {
		nd.inSet[i] = -1
	}
	return nd
}

// ndState is one dissection's scratch. The recursion allocates nothing of
// its own but dissectPair's second state: every node set it works on is a
// range of the one slice NestedDissection starts from, which components
// and split reorder in place, through queue, into the order the sets were
// found in.
type ndState struct {
	adj  adjacency
	perm []int
	// level and inSet are n-sized scratch shared across the recursion;
	// inSet stamps the node set of the current operation with a generation
	// counter so membership tests need no clearing between calls.
	level []int32
	inSet []int32
	gen   int32
	// queue is the breadth-first queue of components, bfsLast and split,
	// and where components and split lay a node set out before copying it
	// back; sizes holds split's level sizes; ends is a stack of component
	// ends, one frame per dissect on the recursion path.
	queue []int
	sizes []int
	ends  []int
	// leaf is leafOrder's induced subgraph, in local ids, and md the
	// minimum-degree scratch that orders it.
	leaf adjacency
	md   minDegree
	// forked is set once a bisection's halves went to two goroutines
	// (dissectPair), and on the second goroutine's state.
	forked bool
}

// mark stamps a node set with a fresh generation and returns the stamp.
func (nd *ndState) mark(nodes []int) int32 {
	nd.gen++
	g := nd.gen
	for _, v := range nodes {
		nd.inSet[v] = g
	}
	return g
}

// dissect recursively orders one node set into nd.perm.
func (nd *ndState) dissect(nodes []int) {
	if len(nodes) == 0 {
		return
	}
	if len(nodes) <= ndLeafSize {
		nd.leafOrder(nodes)
		return
	}
	// Split connected components first: each is dissected independently.
	g := nd.mark(nodes)
	frame := len(nd.ends)
	nd.components(nodes, g)
	start := 0
	for f := frame; f < len(nd.ends); f++ {
		comp := nodes[start:nd.ends[f]]
		start = nd.ends[f]
		if len(comp) <= ndLeafSize {
			nd.leafOrder(comp)
			continue
		}
		a, b, sep, ok := nd.split(comp)
		if !ok {
			// Degenerate level structure (e.g. a star): no useful bisection.
			nd.leafOrder(comp)
			continue
		}
		if !nd.forked && min(len(a), len(b)) >= splitMinCols {
			nd.dissectPair(a, b)
		} else {
			nd.dissect(a)
			nd.dissect(b)
		}
		// Separator last: its rows are the shared ancestors of both halves.
		if len(sep) > ndLeafSize {
			// Large separators (wide meshes) still benefit from a
			// fill-reducing internal order.
			nd.leafOrder(sep)
		} else {
			nd.perm = append(nd.perm, sep...)
		}
	}
	nd.ends = nd.ends[:frame]
}

// dissectPair dissects the two halves of the first bisection big enough
// (splitMinCols) at once, b on a goroutine of its own with its own queues
// and leaf scratch. No edge joins a to b, so each goroutine stamps and
// levels only its own half's entries of the shared inSet and level
// scratch, and the separator's stamps, older than both goroutines'
// generations, stay outside their sets. b's order follows a's, as when
// they run one after the other, and the generation then moves past both.
func (nd *ndState) dissectPair(a, b []int) {
	nd.forked = true
	half := &ndState{adj: nd.adj, level: nd.level, inSet: nd.inSet, gen: nd.gen,
		perm: make([]int, 0, len(b)), queue: make([]int, 0, len(b)), forked: true}
	done := make(chan struct{})
	go func() {
		half.dissect(b)
		close(done)
	}()
	nd.dissect(a)
	<-done
	nd.perm = append(nd.perm, half.perm...)
	nd.gen = max(nd.gen, half.gen)
}

// components reorders a stamped node set in place into its connected
// components, each in breadth-first order from its first node in the set,
// in the order they were found, and pushes each component's end onto
// nd.ends.
func (nd *ndState) components(nodes []int, g int32) {
	seen := nd.level // reuse as a visited flag: 0 = unseen this pass
	for _, v := range nodes {
		seen[v] = 0
	}
	q := nd.queue[:0]
	for _, root := range nodes {
		if seen[root] != 0 {
			continue
		}
		seen[root] = 1
		q = append(q, root)
		for head := len(q) - 1; head < len(q); head++ {
			for _, w := range nd.adj.nbrs(q[head]) {
				if nd.inSet[w] == g && seen[w] == 0 {
					seen[w] = 1
					q = append(q, int(w))
				}
			}
		}
		nd.ends = append(nd.ends, len(q))
	}
	nd.queue = q
	copy(nodes, q)
}

// split bisects one connected component with a level-structure vertex
// separator: BFS from a pseudo-peripheral root builds distance levels, the
// level closest to the halfway point becomes the separator, everything
// below it one half and everything above the other. Separator nodes with no
// neighbor in the near half are shed into the far half (they separate
// nothing). On success comp is reordered in place into a, b and sep, each
// in comp's order (b: the far half, then the nodes shed into it), and the
// three are returned as ranges of it. Returns ok=false, comp untouched,
// when the level structure is too shallow to give a nontrivial split.
func (nd *ndState) split(comp []int) (a, b, sep []int, ok bool) {
	g := nd.mark(comp)
	// Pseudo-peripheral root: the last node of a BFS from an arbitrary
	// start is (nearly) eccentric; one repetition sharpens it.
	root := comp[0]
	for pass := 0; pass < 2; pass++ {
		root = nd.bfsLast(root, g)
	}
	// Level structure from the root.
	level := nd.level
	for _, v := range comp {
		level[v] = -1
	}
	queue := append(nd.queue[:0], root)
	level[root] = 0
	nlev := int32(1)
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, w := range nd.adj.nbrs(v) {
			if nd.inSet[w] == g && level[w] == -1 {
				level[w] = level[v] + 1
				if level[w]+1 > nlev {
					nlev = level[w] + 1
				}
				queue = append(queue, int(w))
			}
		}
	}
	nd.queue = queue
	if nlev < 3 {
		return nil, nil, nil, false
	}
	// Cumulative level sizes pick the split level whose below-half is
	// closest to |comp|/2 among interior levels.
	sizes := nd.sizes[:0]
	for range nlev {
		sizes = append(sizes, 0)
	}
	nd.sizes = sizes
	for _, v := range comp {
		sizes[level[v]]++
	}
	half := len(comp) / 2
	below := 0
	cut := int32(1)
	bestDist := len(comp)
	for l := int32(1); l < nlev-1; l++ {
		below += sizes[l-1]
		d := below - half
		if d < 0 {
			d = -d
		}
		if d < bestDist {
			bestDist = d
			cut = l
		}
	}
	// Shrink: a cut-level node adjacent to no level-(cut-1) node cannot be
	// on any a↔b path through the cut, so it joins b; shedLevel marks it.
	const shedLevel = -2
	var na, nb, nshed int
	for _, v := range comp {
		switch {
		case level[v] < cut:
			na++
		case level[v] > cut:
			nb++
		default:
			connected := false
			for _, w := range nd.adj.nbrs(v) {
				if nd.inSet[w] == g && level[w] == cut-1 {
					connected = true
					break
				}
			}
			if !connected {
				level[v] = shedLevel
				nshed++
			}
		}
	}
	if na == 0 || nb+nshed == 0 {
		return nil, nil, nil, false
	}
	// Lay comp out as a, the far half, the shed nodes, sep.
	ia, ib, ished, isep := 0, na, na+nb, na+nb+nshed
	out := nd.queue[:len(comp)]
	for _, v := range comp {
		switch l := level[v]; {
		case l == shedLevel:
			out[ished] = v
			ished++
		case l < cut:
			out[ia] = v
			ia++
		case l > cut:
			out[ib] = v
			ib++
		default:
			out[isep] = v
			isep++
		}
	}
	copy(comp, out)
	return comp[:na], comp[na : na+nb+nshed], comp[na+nb+nshed:], true
}

// bfsLast returns the last node reached by a BFS over the stamped set.
func (nd *ndState) bfsLast(root int, g int32) int {
	level := nd.level
	// A fresh sub-generation would clobber g; reuse level as the visited
	// marker instead (any node of the set gets -2 first).
	last := root
	queue := append(nd.queue[:0], root)
	level[root] = -2
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		last = v
		for _, w := range nd.adj.nbrs(v) {
			if nd.inSet[w] == g && level[w] != -2 {
				level[w] = -2
				queue = append(queue, int(w))
			}
		}
	}
	nd.queue = queue
	// Reset the markers for the caller's level pass.
	for _, v := range queue {
		level[v] = -1
	}
	return last
}

// leafOrder appends a minimum-degree ordering of the induced subgraph.
func (nd *ndState) leafOrder(nodes []int) {
	if len(nodes) == 1 {
		nd.perm = append(nd.perm, nodes[0])
		return
	}
	g := nd.mark(nodes)
	// Local ids through the level scratch.
	local := nd.level
	for i, v := range nodes {
		local[v] = int32(i)
	}
	ptr, idx := append(nd.leaf.ptr[:0], 0), nd.leaf.idx[:0]
	for _, v := range nodes {
		for _, w := range nd.adj.nbrs(v) {
			if nd.inSet[w] == g {
				idx = append(idx, local[w])
			}
		}
		ptr = append(ptr, int32(len(idx)))
	}
	nd.leaf = adjacency{ptr: ptr, idx: idx}
	for _, li := range nd.md.order(nd.leaf) {
		nd.perm = append(nd.perm, nodes[li])
	}
}
