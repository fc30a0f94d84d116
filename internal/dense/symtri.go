package dense

import (
	"errors"
	"math"
)

// ErrEigNoConvergence is returned when the implicit QL iteration fails to
// deflate a subdiagonal entry within the iteration budget.
var ErrEigNoConvergence = errors.New("dense: symmetric tridiagonal QL iteration did not converge")

// SymTriEig diagonalizes a symmetric tridiagonal matrix in place with the
// implicit-shift QL method (EISPACK tql2). It exists for the Lanczos fast
// path, where the Krylov projection is tridiagonal and the whole
// convergence-check/evaluation pipeline must run without heap allocations:
// unlike the Jacobi reference its tests check it against (SymEig), it takes
// every buffer from the caller and allocates nothing.
//
//   - d holds the diagonal on entry and the eigenvalues on return
//     (unsorted — callers treat the spectrum as a set).
//   - e holds the subdiagonal in e[0..n-2] on entry and is destroyed;
//     e must have length n (e[n-1] is scratch).
//   - z must be an n×n matrix; pass the identity to receive the
//     eigenvectors as columns, or an existing basis transform to accumulate
//     onto. Eigenvector k is the column z[:,k] for eigenvalue d[k].
func SymTriEig(d, e []float64, z *Matrix) error {
	n := len(d)
	if len(e) < n {
		panic("dense: SymTriEig needs len(e) >= len(d)")
	}
	if z.R != n || z.C != n {
		panic("dense: SymTriEig eigenvector matrix dimension mismatch")
	}
	if n <= 1 {
		return nil
	}
	e[n-1] = 0
	const maxIter = 50
	for l := 0; l < n; l++ {
		iter := 0
		for {
			// Find the first negligible subdiagonal at or after l.
			m := l
			for ; m < n-1; m++ {
				dd := math.Abs(d[m]) + math.Abs(d[m+1])
				if math.Abs(e[m]) <= machEps*dd {
					break
				}
			}
			if m == l {
				break
			}
			if iter++; iter > maxIter {
				return ErrEigNoConvergence
			}
			// Implicit Wilkinson shift.
			g := (d[l+1] - d[l]) / (2 * e[l])
			r := math.Hypot(g, 1)
			g = d[m] - d[l] + e[l]/(g+math.Copysign(r, g))
			s, c := 1.0, 1.0
			p := 0.0
			i := m - 1
			for ; i >= l; i-- {
				f := s * e[i]
				b := c * e[i]
				r = math.Hypot(f, g)
				e[i+1] = r
				if r == 0 {
					// Recover by deflating: annihilation underflowed.
					d[i+1] -= p
					e[m] = 0
					break
				}
				s = f / r
				c = g / r
				g = d[i+1] - p
				r = (d[i]-g)*s + 2*c*b
				p = s * r
				d[i+1] = g + p
				g = c*r - b
				// Accumulate the rotation into the eigenvector columns.
				zi := z.Data
				for k := 0; k < n; k++ {
					row := zi[k*z.C:]
					f := row[i+1]
					row[i+1] = s*row[i] + c*f
					row[i] = c*row[i] - s*f
				}
			}
			if r == 0 && i >= l {
				continue
			}
			d[l] -= p
			e[l] = g
			e[m] = 0
		}
	}
	return nil
}

// machEps is the double-precision unit roundoff.
const machEps = 2.220446049250313e-16
