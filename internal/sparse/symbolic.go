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

	patFP uint64 // PatternFingerprint of the analyzed matrix
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
// any matrix with the same pattern through Refactor.
func AnalyzeLDLT(a *CSC, order Ordering) (*Symbolic, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("sparse: AnalyzeLDLT needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	n := a.Cols
	s := &Symbolic{n: n, patFP: PatternFingerprint(a)}
	s.perm = Order(a, order)
	s.pinv = InversePerm(s.perm)
	up := s.upperScatter(a)
	s.parent = up.etree()

	// Compose the ordering with a postorder of its elimination tree. Any
	// topological relabeling of the etree is fill-equivalent (same lnz, an
	// isomorphic pattern), and a postorder additionally makes every subtree
	// — hence every fundamental supernode chain — contiguous in column
	// order, which is what the supernode detection and relaxed amalgamation
	// walk. Without it, orderings like minimum degree scatter parent chains
	// across the column range and the panels degenerate to singletons.
	if post := postorder(s.parent); post != nil {
		newPerm := make([]int, n)
		for q, old := range post {
			newPerm[q] = s.perm[old]
		}
		s.perm = newPerm
		s.pinv = InversePerm(s.perm)
		up = s.upperScatter(a)
		s.parent = up.etree()
	}

	// Exact per-column counts: one reach pass counting, one filling. Each
	// pass costs O(lnz) total — the reach of row k lists exactly the columns
	// of L with an entry in row k, in topological order.
	mark := make([]int32, n)
	xi := make([]int32, n)
	for i := range mark {
		mark[i] = -1
	}
	colcount := make([]int, n+1)
	for k := 0; k < n; k++ {
		for t := s.reach(up, k, mark, xi); t < n; t++ {
			colcount[xi[t]+1]++
		}
	}
	for i := 0; i < n; i++ {
		colcount[i+1] += colcount[i]
	}
	s.colptr = colcount
	s.lnz = colcount[n]
	s.rowidx = make([]int32, s.lnz)
	for i := range mark {
		mark[i] = -1
	}
	next := make([]int, n)
	copy(next, s.colptr[:n])
	for k := 0; k < n; k++ {
		for t := s.reach(up, k, mark, xi); t < n; t++ {
			i := xi[t]
			s.rowidx[next[i]] = int32(k)
			next[i]++
		}
	}

	s.buildSupernodes(up)
	debugCheckSymbolic(s)
	return s, nil
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

// etree computes the elimination tree over the permuted upper triangle
// (path compression via virtual ancestors); -1 marks a root.
func (up upperTri) etree() []int32 {
	n := len(up.colptr) - 1
	parent := make([]int32, n)
	ancestor := make([]int32, n)
	for k := 0; k < n; k++ {
		parent[k] = -1
		ancestor[k] = -1
		for p := up.colptr[k]; p < up.colptr[k+1]; p++ {
			i := up.row[p]
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

// reach computes the nonzero pattern of row k of L — the nodes reachable
// from the permuted column k's upper entries by walking up the elimination
// tree — into xi[top:n] in topological order, returning top. mark must be a
// (-1)-initialized workspace stamped by k.
func (s *Symbolic) reach(up upperTri, k int, mark, xi []int32) int {
	n := s.n
	top := n
	mark[k] = int32(k)
	var stackArr [64]int32
	for p := up.colptr[k]; p < up.colptr[k+1]; p++ {
		i := up.row[p]
		if int(i) >= k {
			continue
		}
		path := stackArr[:0]
		for i != -1 && mark[i] != int32(k) {
			path = append(path, i)
			mark[i] = int32(k)
			i = s.parent[i]
		}
		for len(path) > 0 {
			top--
			xi[top] = path[len(path)-1]
			path = path[:len(path)-1]
		}
	}
	return top
}

// Refactor numerically factorizes a — any matrix with the analyzed pattern —
// into a fresh LDLT. The factor's value arrays and workspaces are the only
// allocations; repeated refactorization into an existing factor
// (RefactorInto) allocates nothing.
func (s *Symbolic) Refactor(a *CSC) (*LDLT, error) {
	sn := s.sn
	f := &LDLT{
		sym:      s,
		d:        make([]float64, s.n),
		snValues: make([]float64, sn.nzTotal),
		smap:     make([]int32, s.n),
		uptmp:    make([]float64, sn.maxRows),
		coeff:    make([]float64, sn.maxW),
		gbuf:     make([]float64, 8*sn.maxRows),
	}
	if err := s.RefactorInto(f, a); err != nil {
		return nil, err
	}
	return f, nil
}

// RefactorInto refills an existing factor (previously produced by Refactor
// against this same analysis) with the values of a through the left-looking
// panel factorization: no appends, no reach recomputation, no heap
// allocation. It returns ErrSingular on a zero pivot, leaving the factor
// contents unspecified. Must not race with solves on the same factor.
//
//matex:noalloc
func (s *Symbolic) RefactorInto(f *LDLT, a *CSC) error {
	if f.sym != s {
		return fmt.Errorf("sparse: RefactorInto factor belongs to a different analysis") //matex:alloc-ok(caller-misuse error path)
	}
	// Dimension check only; the pattern itself is trusted to match (callers
	// key Symbolic lookups by PatternFingerprint).
	if a.Rows != s.n || a.Cols != s.n {
		return fmt.Errorf("sparse: RefactorInto dimension mismatch: analysis %d, matrix %dx%d", s.n, a.Rows, a.Cols) //matex:alloc-ok(caller-misuse error path)
	}
	if err := s.refactorSN(f, a); err != nil {
		return err
	}
	debugCheckFactor(f)
	return nil
}
