package dense

import (
	"errors"
	"math"
	"sort"
)

// Eye returns the n-by-n identity.
func Eye(n int) *Matrix { return new(Matrix).setEye(n) }

// SymEig, the reference SymTriEig is checked against, computes the
// eigenvalues (ascending) and eigenvectors of a symmetric matrix with the
// cyclic Jacobi method. The columns of the returned matrix are the
// eigenvectors. a must be symmetric; only its lower triangle is trusted.
func SymEig(a *Matrix, tol float64, maxSweeps int) ([]float64, *Matrix, error) {
	if a.R != a.C {
		return nil, nil, errors.New("dense: SymEig needs a square matrix")
	}
	n := a.R
	if tol <= 0 {
		tol = 1e-12
	}
	if maxSweeps <= 0 {
		maxSweeps = 100
	}
	m := a.Clone()
	// Symmetrize defensively.
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			v := 0.5 * (m.At(i, j) + m.At(j, i))
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	vecs := Eye(n)
	scale := m.FrobNorm()
	if scale == 0 {
		return make([]float64, n), vecs, nil
	}
	for sweep := 0; sweep < maxSweeps; sweep++ {
		var off float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += m.At(i, j) * m.At(i, j)
			}
		}
		if math.Sqrt(2*off) <= tol*scale {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := m.At(p, q)
				if math.Abs(apq) <= tol*scale/float64(n*n) {
					continue
				}
				app := m.At(p, p)
				aqq := m.At(q, q)
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
				// Apply rotation J(p,q,θ)ᵀ M J(p,q,θ).
				for k := 0; k < n; k++ {
					mkp := m.At(k, p)
					mkq := m.At(k, q)
					m.Set(k, p, c*mkp-s*mkq)
					m.Set(k, q, s*mkp+c*mkq)
				}
				for k := 0; k < n; k++ {
					mpk := m.At(p, k)
					mqk := m.At(q, k)
					m.Set(p, k, c*mpk-s*mqk)
					m.Set(q, k, s*mpk+c*mqk)
				}
				for k := 0; k < n; k++ {
					vkp := vecs.At(k, p)
					vkq := vecs.At(k, q)
					vecs.Set(k, p, c*vkp-s*vkq)
					vecs.Set(k, q, s*vkp+c*vkq)
				}
			}
		}
	}
	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = m.At(i, i)
	}
	// Sort ascending, permuting eigenvector columns along.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(x, y int) bool { return vals[idx[x]] < vals[idx[y]] })
	sorted := make([]float64, n)
	sortedVecs := New(n, n)
	for k, id := range idx {
		sorted[k] = vals[id]
		for i := 0; i < n; i++ {
			sortedVecs.Set(i, k, vecs.At(i, id))
		}
	}
	return sorted, sortedVecs, nil
}
