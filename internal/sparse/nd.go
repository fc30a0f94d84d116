package sparse

// Nested dissection: recursively split the graph of A+Aᵀ with small vertex
// separators, order the two halves first and the separator last, and hand
// subgraphs below a size cutoff to minimum degree. On the 2D power-grid
// meshes the paper's method targets, the O(√n) separators bound fill growth
// where bandwidth orderings pay O(n) fronts — and, just as important here,
// the separator tree is exactly the shape the parallel triangular solves
// want: the two halves share no factor rows below the separator, so the
// elimination-tree task cut finds balanced independent subtrees even on one
// strongly coupled mesh, where a bandwidth ordering's chain-like etree has
// none.

// ndLeafSize is the subgraph size below which recursion stops and minimum
// degree orders the leaf directly.
const ndLeafSize = 48

// NestedDissection returns a nested-dissection ordering of the pattern of
// a+aᵀ: column k of the permuted matrix is p[k] of the original.
func NestedDissection(a *CSC) []int {
	n := a.Cols
	nd := &ndState{
		adj:   symPattern(a),
		perm:  make([]int, 0, n),
		level: make([]int32, n),
		inSet: make([]int32, n),
		gen:   0,
	}
	for i := range nd.inSet {
		nd.inSet[i] = -1
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	nd.dissect(all)
	return nd.perm
}

type ndState struct {
	adj  [][]int
	perm []int
	// level and inSet are n-sized scratch shared across the recursion;
	// inSet stamps the node set of the current operation with a generation
	// counter so membership tests need no clearing between calls.
	level []int32
	inSet []int32
	gen   int32
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
	comps := nd.components(nodes, g)
	for _, comp := range comps {
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
		nd.dissect(a)
		nd.dissect(b)
		// Separator last: its rows are the shared ancestors of both halves.
		if len(sep) > ndLeafSize {
			// Large separators (wide meshes) still benefit from a
			// fill-reducing internal order.
			nd.leafOrder(sep)
		} else {
			nd.perm = append(nd.perm, sep...)
		}
	}
}

// components partitions a stamped node set into connected components of the
// induced subgraph.
func (nd *ndState) components(nodes []int, g int32) [][]int {
	seen := nd.level // reuse as a visited flag: 0 = unseen this pass
	for _, v := range nodes {
		seen[v] = 0
	}
	var comps [][]int
	for _, root := range nodes {
		if seen[root] != 0 {
			continue
		}
		comp := []int{root}
		seen[root] = 1
		for head := 0; head < len(comp); head++ {
			for _, w := range nd.adj[comp[head]] {
				if nd.inSet[w] == g && seen[w] == 0 {
					seen[w] = 1
					comp = append(comp, w)
				}
			}
		}
		comps = append(comps, comp)
	}
	return comps
}

// split bisects one connected component with a level-structure vertex
// separator: BFS from a pseudo-peripheral root builds distance levels, the
// level closest to the halfway point becomes the separator, everything
// below it one half and everything above the other. Separator nodes with no
// neighbor in the near half are shed into the far half (they separate
// nothing). Returns ok=false when the level structure is too shallow to
// give a nontrivial split.
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
	queue := make([]int, 0, len(comp))
	queue = append(queue, root)
	level[root] = 0
	nlev := int32(1)
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, w := range nd.adj[v] {
			if nd.inSet[w] == g && level[w] == -1 {
				level[w] = level[v] + 1
				if level[w]+1 > nlev {
					nlev = level[w] + 1
				}
				queue = append(queue, w)
			}
		}
	}
	if nlev < 3 {
		return nil, nil, nil, false
	}
	// Cumulative level sizes pick the split level whose below-half is
	// closest to |comp|/2 among interior levels.
	sizes := make([]int, nlev)
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
	for _, v := range comp {
		switch {
		case level[v] < cut:
			a = append(a, v)
		case level[v] > cut:
			b = append(b, v)
		}
	}
	// Shrink: a cut-level node adjacent to no level-(cut-1) node cannot be
	// on any a↔b path through the cut, so it joins b.
	for _, v := range comp {
		if level[v] != cut {
			continue
		}
		connected := false
		for _, w := range nd.adj[v] {
			if nd.inSet[w] == g && level[w] == cut-1 {
				connected = true
				break
			}
		}
		if connected {
			sep = append(sep, v)
		} else {
			b = append(b, v)
		}
	}
	if len(a) == 0 || len(b) == 0 {
		return nil, nil, nil, false
	}
	return a, b, sep, true
}

// bfsLast returns the last node reached by a BFS over the stamped set.
func (nd *ndState) bfsLast(root int, g int32) int {
	level := nd.level
	// A fresh sub-generation would clobber g; reuse level as the visited
	// marker instead (any node of the set gets -2 first).
	last := root
	queue := make([]int, 0, 64)
	queue = append(queue, root)
	level[root] = -2
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		last = v
		for _, w := range nd.adj[v] {
			if nd.inSet[w] == g && level[w] != -2 {
				level[w] = -2
				queue = append(queue, w)
			}
		}
	}
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
	sub := make([][]int, len(nodes))
	for i, v := range nodes {
		var row []int
		for _, w := range nd.adj[v] {
			if nd.inSet[w] == g {
				row = append(row, int(local[w]))
			}
		}
		sub[i] = row
	}
	for _, li := range minDegreeAdj(sub) {
		nd.perm = append(nd.perm, nodes[li])
	}
}
