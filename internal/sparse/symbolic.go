package sparse

import "fmt"

// Symbolic is the once-per-pattern analysis of a symmetric matrix for LDLᵀ
// factorization: the fill-reducing ordering, the elimination tree, the exact
// static nonzero pattern of L (per-column counts and row indices, Gilbert/
// Ng/Peierls style), and the supernodal panel layout built on top of it —
// column partition, input scatter map and descendant-update records.
//
// An analysis depends only on the sparsity pattern (and ordering), never on
// values: every scalar shift C + γG of one base pattern shares a single
// Symbolic, and Refactor fills a factorization numerically in O(flops) with
// no appends, no per-column elimination-tree reach, and no heap allocation
// beyond the factor itself. Symbolic is immutable after construction and
// safe for concurrent use by any number of Refactor calls.
type Symbolic struct {
	n    int
	lnz  int
	perm []int // column k of the factorization is column perm[k] of A
	pinv []int
	// parent is the elimination tree; -1 marks a root.
	parent []int32

	// Static CSC pattern of L: column j holds rows colptr[j]:colptr[j+1] of
	// rowidx, strictly below the (implied unit) diagonal, ascending. The
	// panels store a padded superset of it; the exact pattern is what L()
	// materializes and what CheckFactor verifies the padding against.
	colptr []int
	rowidx []int32

	// sn is the panel layout every numeric kernel runs on (supernodal.go).
	sn *snLayout
}

// N returns the analyzed dimension.
func (s *Symbolic) N() int { return s.n }

// LNZ returns the number of strictly-lower entries of L (the exact fill).
func (s *Symbolic) LNZ() int { return s.lnz }

// Perm returns the fill-reducing permutation (not a copy; do not modify).
func (s *Symbolic) Perm() []int { return s.perm }

// Bytes estimates the resident size of the analysis, for cache accounting.
func (s *Symbolic) Bytes() int64 {
	return int64(s.n)*28 + int64(s.lnz)*4 + s.sn.bytes()
}

// PatternFingerprint hashes the sparsity pattern of a — dimensions, column
// pointers and row indices, but not values — with FNV-1a. Two matrices with
// equal pattern fingerprints share a Symbolic analysis; the adaptive
// stepper's (C/h + G/2) grid and the γ-shift grid (C + γG) each map their
// whole families onto one analysis this way.
func PatternFingerprint(a *CSC) uint64 {
	h := uint64(fnvOffset)
	h = fnvMix(h, uint64(a.Rows))
	h = fnvMix(h, uint64(a.Cols))
	h = fnvMix(h, uint64(len(a.Rowidx)))
	for _, p := range a.Colptr {
		h = fnvMix(h, uint64(p))
	}
	for _, i := range a.Rowidx {
		h = fnvMix(h, uint64(i))
	}
	return h
}

// AnalyzeLDLT performs the symbolic analysis of the symmetric matrix a under
// the given ordering: ordering, elimination tree, exact column counts and
// static pattern of L, supernode detection with relaxed amalgamation, and
// the input scatter map. Only the pattern of a is read. The result serves
// any matrix with the same pattern through Refactor. The two halves of the
// elimination tree below its top separator are worked on two goroutines —
// nested dissection's first bisection and the pass filling L's pattern —
// with the one-goroutine result. A pattern that is not symmetric may be
// refused with an error.
func AnalyzeLDLT(a *CSC, order Ordering) (*Symbolic, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("sparse: AnalyzeLDLT needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	n := a.Cols
	s := &Symbolic{n: n}
	s.perm = Order(a, order)
	pinv := InversePerm(s.perm)
	s.parent = etree(a, s.perm, pinv)

	// Compose the ordering with a postorder of its elimination tree. Any
	// topological relabeling of the etree is fill-equivalent (same lnz, an
	// isomorphic pattern), and a postorder additionally makes every subtree
	// — hence every fundamental supernode chain — contiguous in column
	// order, which is what the supernode detection and relaxed amalgamation
	// walk. Without it, orderings like minimum degree scatter parent chains
	// across the column range and the panels degenerate to singletons. The
	// etree is then taken again, straight from a's columns: the upper
	// triangle a relabeling reads can differ where a's pattern is not
	// symmetric, so relabeling the first tree would not be exact.
	if post := postorder(s.parent); post != nil {
		newPerm := make([]int, n)
		for q, old := range post {
			newPerm[q] = s.perm[old]
		}
		s.perm = newPerm
		pinv = InversePerm(s.perm)
		s.parent = etree(a, s.perm, pinv)
	}
	// Everything below walks subtrees as column ranges, so the tree must be
	// postordered. It is wherever a's pattern is symmetric (the new etree is
	// the relabeled one); an unsymmetric pattern's new upper triangle can
	// give a tree that is not, and such a matrix is refused.
	first := subtreeFirst(s.parent)
	if !postordered(s.parent, first) {
		return nil, fmt.Errorf("sparse: AnalyzeLDLT needs a structurally symmetric matrix")
	}
	s.pinv = pinv
	up := s.upperScatter(a)
	s.countPattern(up, first)
	s.buildSupernodes(up)
	return s, nil
}

// countPattern computes the exact static pattern of L (colptr, rowidx,
// lnz): the column counts from the skeleton of the upper triangle
// (colCounts), then one reach pass filling the rows — the reach of row k
// lists exactly the columns of L with an entry in row k, in O(|row k|).
// The reach of a row stays inside its etree subtree, so the rows of the
// two halves treeSplit cuts (sized by the upper triangle's entries) touch
// disjoint columns: the pass runs the halves on two goroutines, each with
// its own reach stack, then the rows above them. A column's rows are still
// written in ascending order, the halves' rows all preceding the top's, so
// the pattern is the one-goroutine pass's.
func (s *Symbolic) countPattern(up upperTri, first []int32) {
	n := s.n
	s.colptr = s.colCounts(up, first)
	s.lnz = s.colptr[n]
	s.rowidx = make([]int32, s.lnz)
	next := make([]int, n)
	copy(next, s.colptr[:n])
	mark := make([]int32, n)
	for i := range mark {
		mark[i] = -1
	}
	fill := func(lo, hi int, xi []int32) {
		for k := lo; k < hi; k++ {
			for t := s.reach(up, k, mark, xi); t < n; t++ {
				i := xi[t]
				s.rowidx[next[i]] = int32(k)
				next[i]++
			}
		}
	}
	xi := make([]int32, n)
	lo := 0
	if mid, hi := treeSplit(s.parent, first, up.colptr, func(m int) int { return m }, splitMinCols); hi > 0 {
		done := make(chan struct{})
		go func() {
			fill(mid, hi, make([]int32, n))
			close(done)
		}()
		fill(0, mid, xi)
		<-done
		lo = hi
	}
	fill(lo, n, xi)
}

// colCounts returns the column pointers of L's strictly lower pattern
// from the column counts of Gilbert, Ng and Peyton's skeleton algorithm
// (as CSparse's cs_counts has it), in O(nnz·α) over the upper triangle,
// the postordered etree and each subtree's first node: a column's count is
// its leaf entries' subtrees' contributions, each overlap with the
// previous leaf of the same row taken off at their least common ancestor.
func (s *Symbolic) colCounts(up upperTri, first []int32) []int {
	n := s.n
	// The strictly lower entries of permuted column j: the k > j whose upper
	// part holds row j, ascending.
	lowPtr := make([]int32, n+1)
	for k := 0; k < n; k++ {
		for _, i := range up.row[up.colptr[k]:up.colptr[k+1]] {
			if int(i) < k {
				lowPtr[i+1]++
			}
		}
	}
	for j := 0; j < n; j++ {
		lowPtr[j+1] += lowPtr[j]
	}
	lowIdx := make([]int32, lowPtr[n])
	next := make([]int32, n)
	copy(next, lowPtr[:n])
	for k := 0; k < n; k++ {
		for _, i := range up.row[up.colptr[k]:up.colptr[k+1]] {
			if int(i) < k {
				lowIdx[next[i]] = int32(k)
				next[i]++
			}
		}
	}
	// next is spent: it becomes the union-find forest of the processed
	// nodes; a node's set is rooted at its highest processed ancestor.
	ancestor := next
	maxFirst := make([]int32, n) // largest first[j] of a leaf of row i's subtree so far
	prevLeaf := make([]int32, n) // the previous such leaf
	delta := make([]int, n+1)
	for j := 0; j < n; j++ {
		ancestor[j] = int32(j)
		maxFirst[j], prevLeaf[j] = -1, -1
		if first[j] == int32(j) {
			delta[j+1] = 1 // a leaf of the etree
		}
	}
	for j := 0; j < n; j++ {
		p := s.parent[j]
		if p != -1 {
			delta[p+1]--
		}
		for _, i := range lowIdx[lowPtr[j]:lowPtr[j+1]] {
			if first[j] <= maxFirst[i] {
				continue // j is not a leaf of row i's subtree
			}
			maxFirst[i] = first[j]
			jprev := prevLeaf[i]
			prevLeaf[i] = int32(j)
			delta[j+1]++
			if jprev == -1 {
				continue
			}
			q := jprev
			for q != ancestor[q] {
				q = ancestor[q]
			}
			for v := jprev; v != q; {
				v, ancestor[v] = ancestor[v], q
			}
			delta[q+1]-- // the overlap with the previous leaf's path
		}
		if p != -1 {
			ancestor[j] = p
		}
	}
	// Sum each subtree's deltas into its root, less the diagonal, then
	// take the prefix sums.
	for j := 0; j < n; j++ {
		if p := s.parent[j]; p != -1 {
			delta[p+1] += delta[j+1]
		}
		delta[j+1]--
	}
	for j := 0; j < n; j++ {
		delta[j+1] += delta[j]
	}
	return delta
}

// upperTri is the upper triangle (incl. diagonal) of the permuted matrix in
// scatter-map form: permuted column k draws the value at src[p] of the
// input's value array onto permuted row row[p] <= k, for p in
// colptr[k]:colptr[k+1]. It is analysis scratch — the retained layout keeps
// its own supernode-major copy (snLayout.aSrc/aOff).
type upperTri struct {
	colptr   []int
	src, row []int32
}

// upperScatter computes the scatter map column by column, without
// materializing the permuted matrix. Entry p of original column j =
// perm-column pinv[j] lands on permuted row pinv[i]; symmetric input means
// scanning whole original columns finds every upper-triangle entry exactly
// once.
func (s *Symbolic) upperScatter(a *CSC) upperTri {
	n := s.n
	cnt := make([]int, n+1)
	for j := 0; j < n; j++ {
		k := s.pinv[j]
		for p := a.Colptr[j]; p < a.Colptr[j+1]; p++ {
			if s.pinv[a.Rowidx[p]] <= k {
				cnt[k+1]++
			}
		}
	}
	for k := 0; k < n; k++ {
		cnt[k+1] += cnt[k]
	}
	nnzU := cnt[n]
	up := upperTri{colptr: cnt, src: make([]int32, nnzU), row: make([]int32, nnzU)}
	next := make([]int, n)
	copy(next, cnt[:n])
	for j := 0; j < n; j++ {
		k := s.pinv[j]
		for p := a.Colptr[j]; p < a.Colptr[j+1]; p++ {
			i := s.pinv[a.Rowidx[p]]
			if i <= k {
				q := next[k]
				next[k]++
				up.src[q] = int32(p)
				up.row[q] = int32(i)
			}
		}
	}
	return up
}

// etree computes the elimination tree of the symmetric matrix a under the
// ordering perm (pinv its inverse) straight from a's columns — permuted
// column k's upper entries are the rows i of column perm[k] with pinv[i] <
// k — with path compression via virtual ancestors; -1 marks a root.
func etree(a *CSC, perm, pinv []int) []int32 {
	n := len(perm)
	parent := make([]int32, n)
	ancestor := make([]int32, n)
	for k, j := range perm {
		parent[k] = -1
		ancestor[k] = -1
		for p := a.Colptr[j]; p < a.Colptr[j+1]; p++ {
			i := int32(pinv[a.Rowidx[p]])
			for i != -1 && int(i) < k {
				nxt := ancestor[i]
				ancestor[i] = int32(k)
				if nxt == -1 {
					parent[i] = int32(k)
				}
				i = nxt
			}
		}
	}
	return parent
}

// postorder computes a depth-first postorder of the forest (children before
// parents, each subtree contiguous), returning nil when the forest is
// already postordered — the common case for orderings that emit elimination
// order directly. post[q] is the old index assigned new position q.
func postorder(parent []int32) []int32 {
	n := len(parent)
	// Child lists, built in reverse so each node's children pop in
	// ascending order (a stable relabeling).
	head := make([]int32, n)
	nextSib := make([]int32, n)
	for i := range head {
		head[i] = -1
	}
	for j := n - 1; j >= 0; j-- {
		p := parent[j]
		if p == -1 {
			continue
		}
		nextSib[j] = head[p]
		head[p] = int32(j)
	}
	post := make([]int32, 0, n)
	stack := make([]int32, 0, 64)
	for r := 0; r < n; r++ {
		if parent[r] != -1 {
			continue
		}
		stack = append(stack, int32(r))
		for len(stack) > 0 {
			j := stack[len(stack)-1]
			if c := head[j]; c != -1 {
				head[j] = nextSib[c] // defer j until its children are out
				stack = append(stack, c)
				continue
			}
			stack = stack[:len(stack)-1]
			post = append(post, j)
		}
	}
	identity := true
	for q, old := range post {
		if int(old) != q {
			identity = false
			break
		}
	}
	if identity {
		return nil
	}
	return post
}

// splitMinCols is the fewest columns (nodes) the lighter half of a split
// must hold to be worth a goroutine, for the numeric fill, the reach pass
// and nested dissection's first bisection alike (EXPERIMENTS.md "The cold
// factor on both cores": the 16×16 test mesh's halves, about 110
// columns each, fill no faster on two goroutines; ibmpg1t's, about 400, do).
const splitMinCols = 256

// subtreeFirst returns the lowest node of every subtree of a postordered
// forest.
func subtreeFirst(parent []int32) []int32 {
	first := make([]int32, len(parent))
	for v := range first {
		first[v] = int32(v)
	}
	for v, p := range parent {
		if p != -1 && first[v] < first[p] {
			first[p] = first[v]
		}
	}
	return first
}

// postordered reports whether every subtree of the forest is the range
// [first, root] of its nodes: whether the forest is postordered.
func postordered(parent, first []int32) bool {
	size := make([]int32, len(parent))
	for v, p := range parent {
		size[v]++
		if size[v] != int32(v)-first[v]+1 {
			return false
		}
		if p != -1 {
			size[p] += size[v]
		}
	}
	return true
}

// treeSplit cuts a postordered forest for two goroutines: [0, mid) and
// [mid, hi) are each closed under descendants, so neither half reads what
// the other writes, and [hi, n) — the chain above both — runs after them.
// first is subtreeFirst(parent) and pre the prefix sum of the nodes' costs
// (len n+1). In a postorder every [0, m) is closed, and so is [first(v), p)
// for any node v that is not the first child of its parent p (the roots
// are children of a virtual root at n). The cut taken minimizes
// max(W[0,mid), W[mid,hi)) + W[hi,n) among those whose lighter half holds
// at least minCols columns, cols(m) being the columns in [0, m); hi = 0
// when there is none.
func treeSplit(parent, first []int32, pre []int, cols func(m int) int, minCols int) (mid, hi int) {
	n := len(parent)
	best := pre[n] + 1
	for v, p := range parent {
		m, h, lo := int(first[v]), n, 0
		if p != -1 {
			h, lo = int(p), int(first[p])
		}
		if m == lo {
			continue // the first child: [0, m) is the whole left side
		}
		if min(cols(m), cols(h)-cols(m)) < minCols {
			continue
		}
		a, b := pre[m], pre[h]-pre[m]
		if cost := max(a, b) + pre[n] - pre[h]; cost < best {
			best, mid, hi = cost, m, h
		}
	}
	return mid, hi
}

// reach computes the nonzero pattern of row k of L — the nodes reachable
// from the permuted column k's upper entries by walking up the elimination
// tree — into xi[top:n] in topological order, returning top. mark must be a
// (-1)-initialized workspace stamped by k. Each path is stacked at the
// bottom of xi before it moves to the top: the two never meet, as together
// they hold distinct nodes below k.
func (s *Symbolic) reach(up upperTri, k int, mark, xi []int32) int {
	n := s.n
	top := n
	mark[k] = int32(k)
	for p := up.colptr[k]; p < up.colptr[k+1]; p++ {
		i := up.row[p]
		if int(i) >= k {
			continue
		}
		depth := 0
		for i != -1 && mark[i] != int32(k) {
			xi[depth] = i
			depth++
			mark[i] = int32(k)
			i = s.parent[i]
		}
		for depth > 0 {
			top--
			depth--
			xi[top] = xi[depth]
		}
	}
	return top
}

// Refactor numerically factorizes a — any matrix with the analyzed pattern —
// into a fresh LDLT. The factor's value arrays and workspaces are the only
// allocations; repeated refactorization into an existing factor
// (RefactorInto) allocates nothing. The two halves of the supernodal
// elimination tree below its top separator (snLayout.mid, .hi) are filled on
// two goroutines, the helper on a workspace of its own, and the top chain
// after both; every supernode sees its updates in RefactorInto's order, so
// the factor and, on a zero pivot, the error are RefactorInto's bit for bit.
func (s *Symbolic) Refactor(a *CSC) (*LDLT, error) {
	if err := s.checkDims("Refactor", a); err != nil {
		return nil, err
	}
	sn := s.sn
	f := &LDLT{
		sym:      s,
		d:        make([]float64, s.n),
		dinv:     make([]float64, s.n),
		snValues: make([]float64, sn.nzTotal),
		ws:       s.newFillScratch(),
	}
	lo := 0
	if sn.hi > 0 {
		var herr error
		done := make(chan struct{})
		go func() {
			ws := s.newFillScratch()
			herr = s.fill(f, a.Values, sn.mid, sn.hi, true, &ws)
			close(done)
		}()
		err := s.fill(f, a.Values, 0, sn.mid, true, &f.ws)
		<-done
		if err == nil {
			err = herr
		}
		if err != nil {
			return nil, err
		}
		lo = sn.hi
	}
	if err := s.fill(f, a.Values, lo, sn.nsuper, true, &f.ws); err != nil {
		return nil, err
	}
	return f, nil
}

// RefactorInto refills an existing factor (previously produced by Refactor
// against this same analysis) with the values of a through the left-looking
// panel factorization, every supernode in column order on the caller's
// goroutine: no appends, no reach recomputation, no heap allocation. It
// returns ErrSingular on the first zero pivot in that order, leaving the
// factor contents unspecified. Must not race with solves on the same factor.
func (s *Symbolic) RefactorInto(f *LDLT, a *CSC) error {
	if f.sym != s {
		return fmt.Errorf("sparse: RefactorInto factor belongs to a different analysis")
	}
	if err := s.checkDims("RefactorInto", a); err != nil {
		return err
	}
	if err := s.fill(f, a.Values, 0, s.sn.nsuper, false, &f.ws); err != nil {
		return err
	}
	return nil
}

// checkDims checks a's dimensions against the analysis for the function fn,
// which the error names. The pattern itself is trusted to match (callers
// key Symbolic lookups by PatternFingerprint).
func (s *Symbolic) checkDims(fn string, a *CSC) error {
	if a.Rows != s.n || a.Cols != s.n {
		return fmt.Errorf("sparse: %s dimension mismatch: analysis %d, matrix %dx%d", fn, s.n, a.Rows, a.Cols)
	}
	return nil
}
