package sparse

// InversePerm returns pinv with pinv[p[k]] = k. It panics if p is not a
// permutation of 0..len(p)-1.
func InversePerm(p []int) []int {
	pinv := make([]int, len(p))
	for i := range pinv {
		pinv[i] = -1
	}
	for k, v := range p {
		if v < 0 || v >= len(p) || pinv[v] != -1 {
			panic("sparse: not a permutation")
		}
		pinv[v] = k
	}
	return pinv
}

// PermuteSym returns B = A(p, p) for a square matrix A: row and column k of B
// is row and column p[k] of A.
func PermuteSym(a *CSC, p []int) *CSC {
	if a.Rows != a.Cols || len(p) != a.Cols {
		panic("sparse: PermuteSym needs a square matrix and matching permutation")
	}
	pinv := InversePerm(p)
	t := NewTriplet(a.Rows, a.Cols)
	for j := 0; j < a.Cols; j++ {
		nj := pinv[j]
		for q := a.Colptr[j]; q < a.Colptr[j+1]; q++ {
			t.Add(pinv[a.Rowidx[q]], nj, a.Values[q])
		}
	}
	return t.ToCSC()
}

// adjacency is the pattern of A + Aᵀ without the diagonal in one CSR slab:
// node v's neighbours are idx[ptr[v]:ptr[v+1]].
type adjacency struct {
	ptr []int32
	idx []int32
}

// nbrs returns node v's neighbours (not a copy).
func (g adjacency) nbrs(v int) []int32 { return g.idx[g.ptr[v]:g.ptr[v+1]] }

// symPattern returns the adjacency of A + Aᵀ without the diagonal, for the
// ordering routines: node j's neighbours are the rows of column j in stored
// order, then the columns with an entry in row j, ascending, each node
// once. No transpose is made: a counting pass gives each node a region for
// both lists, one sweep over the columns copies column j into node j's
// head and deals each entry (i, j) into node i's tail, and a last pass
// drops the diagonal and repeats and closes the gaps.
func symPattern(a *CSC) adjacency {
	n := a.Cols
	ptr := make([]int32, n+1)
	for j := 0; j < n; j++ {
		ptr[j+1] += int32(a.Colptr[j+1] - a.Colptr[j])
		for _, i := range a.Rowidx[a.Colptr[j]:a.Colptr[j+1]] {
			ptr[i+1]++
		}
	}
	for j := 0; j < n; j++ {
		ptr[j+1] += ptr[j]
	}
	idx := make([]int32, ptr[n])
	end := make([]int32, n)
	copy(end, ptr[:n])
	for j := 0; j < n; j++ {
		for _, i := range a.Rowidx[a.Colptr[j]:a.Colptr[j+1]] {
			idx[end[j]] = int32(i)
			end[j]++
		}
	}
	for j := 0; j < n; j++ {
		for _, i := range a.Rowidx[a.Colptr[j]:a.Colptr[j+1]] {
			idx[end[i]] = int32(j)
			end[i]++
		}
	}
	mark := make([]int32, n) // j+1 once node j has taken i
	w := int32(0)
	for j := 0; j < n; j++ {
		q0 := ptr[j]
		ptr[j] = w
		for _, i := range idx[q0:end[j]] {
			if int(i) != j && mark[i] != int32(j+1) {
				mark[i] = int32(j + 1)
				idx[w] = i
				w++
			}
		}
	}
	ptr[n] = w
	return adjacency{ptr: ptr, idx: idx[:w]}
}
