package krylov

import (
	"errors"
	"fmt"
	"math"

	"github.com/matex-sim/matex/internal/dense"
	"github.com/matex-sim/matex/internal/sparse"
)

// Mode selects the Krylov subspace family.
type Mode int

const (
	// Standard uses K_m(A, v): each Arnoldi vector costs one solve with C.
	Standard Mode = iota
	// Inverted uses K_m(A⁻¹, v): each vector costs one solve with G.
	Inverted
	// Rational uses the shift-and-invert space K_m((I-γA)⁻¹, v): each
	// vector costs one solve with (C + γG).
	Rational
)

func (m Mode) String() string {
	switch m {
	case Standard:
		return "MEXP"
	case Inverted:
		return "I-MATEX"
	case Rational:
		return "R-MATEX"
	}
	return "unknown"
}

// Counters accumulates the work metrics the paper reports: substitution
// pairs (T_bs), sparse matrix-vector products, small expm evaluations (T_H)
// and the dimension of every generated subspace (m_a, m_p). Lanczos counts
// the subspaces generated through the symmetric three-term fast path.
type Counters struct {
	SolvePairs int
	SpMVs      int
	ExpmEvals  int
	Lanczos    int
	Dims       []int
}

// Op is the Arnoldi operator for one of the three modes over the *augmented*
// MNA system. With piecewise-linear inputs, the step
//
//	x(t+h) = e^{hA}x(t) + h·φ₁(hA)·b(t) + h²·φ₂(hA)·ḃ
//
// (the φ-function form of the paper's Eq. 5, free of its A⁻¹/A⁻² input
// solves) is obtained as the first n components of e^{h·Ã}·[x; 0; 1] for the
// (n+2) matrix
//
//	Ã = [ A  b₁  b₀ ]     b₀ = C⁻¹·B·u(t),  b₁ = C⁻¹·ḃ·C = C⁻¹·s,
//	    [ 0   0   1 ]     s = d(B·u)/dt on the segment
//	    [ 0   0   0 ]
//
// so one Krylov subspace per transition spot still serves every snapshot
// inside the segment by rescaling h. The three modes differ in the operator
// that generates the subspace:
//
//	Standard (MEXP):  w = Ã·z             (factorizes C)
//	Rational (R-MATEX): w = (I-γÃ)⁻¹·z    (factorizes C+γG; needs only the
//	                                       raw B·u and s vectors — the
//	                                       regularization-free path)
//
// The Inverted mode (I-MATEX) keeps the paper's literal operator
// A⁻¹ = -G⁻¹C on the plain n-dimensional system (Ã is singular, so it has
// no augmented form); the transient solver pairs it with the deviation
// treatment (the paper's Eq. 5 terms) instead, which also runs the augmented
// modes over cleared input columns (ClearSegment) whenever that is cheaper.
type Op struct {
	Mode  Mode
	Gamma float64 // shift for Rational
	fact  sparse.Factorization
	c, g  *sparse.CSC
	n     int // MNA dimension; augmented modes work on length n+2
	work  []float64
	// Per-segment input vectors (length n). For Standard mode these are the
	// C-solved b₀, b₁; for Rational the raw B·u(t) and slope s.
	bcol0, bcol1 []float64
	Count        *Counters
	// sym records whether the stamped C and G are numerically symmetric
	// (detected at construction, overridden by SetSymmetric: e.g. MEXP
	// disables the fast path after regularizing a singular C, since the
	// factorized matrix then differs from the stamped one), which makes the
	// generated operator self-adjoint in a known inner product and unlocks
	// the Lanczos three-term fast path.
	sym     bool
	segZero bool // both input columns are identically zero
}

// solve runs one substitution pair dst = fact⁻¹·b on the operator's
// workspace.
func (op *Op) solve(dst, b []float64) {
	op.fact.SolveWith(dst, b, op.work)
}

// symTol returns the absolute tolerance for symmetry detection on m.
func symTol(m *sparse.CSC) float64 { return 1e-12 * m.OneNorm() }

// detectSym reports whether both stamped matrices are numerically symmetric.
func detectSym(c, g *sparse.CSC) bool {
	return c.IsSymmetric(symTol(c)) && g.IsSymmetric(symTol(g))
}

// NewStandardOp builds the MEXP operator over Ã. factC must factorize the
// (regularized, if needed) C matrix.
func NewStandardOp(factC sparse.Factorization, c, g *sparse.CSC, count *Counters) *Op {
	n := factC.N()
	return &Op{Mode: Standard, fact: factC, c: c, g: g, n: n,
		work: make([]float64, n), bcol0: make([]float64, n), bcol1: make([]float64, n), Count: count,
		sym: detectSym(c, g), segZero: true}
}

// NewInvertedOp builds the I-MATEX operator A⁻¹ = -G⁻¹C on the plain system
// (no augmentation). factG is typically the factorization already produced
// by DC analysis — the paper's selling point for this mode.
func NewInvertedOp(factG sparse.Factorization, c, g *sparse.CSC, count *Counters) *Op {
	n := factG.N()
	return &Op{Mode: Inverted, fact: factG, c: c, g: g, n: n,
		work: make([]float64, n), Count: count,
		sym: detectSym(c, g), segZero: true}
}

// NewRationalOp builds the R-MATEX operator (I-γÃ)⁻¹. factShift must
// factorize (C + γG).
func NewRationalOp(factShift sparse.Factorization, c, g *sparse.CSC, gamma float64, count *Counters) *Op {
	n := factShift.N()
	return &Op{Mode: Rational, Gamma: gamma, fact: factShift, c: c, g: g, n: n,
		work: make([]float64, n), bcol0: make([]float64, n), bcol1: make([]float64, n), Count: count,
		sym: detectSym(c, g), segZero: true}
}

// N returns the operator dimension: MNA dimension + 2 for the augmented
// modes, the plain MNA dimension for Inverted.
func (op *Op) N() int {
	if op.Mode == Inverted {
		return op.n
	}
	return op.n + 2
}

// SetSegment installs the input terms of the current slope-constant segment:
// bu = B·u(t) and s = d(B·u)/dt, both raw stamping-space vectors. Standard
// mode converts them through C⁻¹, one substitution pair per column; the
// shifted modes use them as-is.
func (op *Op) SetSegment(bu, s []float64) {
	op.segZero = allZero(bu) && allZero(s)
	switch op.Mode {
	case Standard:
		op.solve(op.bcol0, bu)
		op.solve(op.bcol1, s)
		if op.Count != nil {
			op.Count.SolvePairs += 2
		}
	case Rational:
		copy(op.bcol0, bu)
		copy(op.bcol1, s)
	case Inverted:
		// Inverted mode handles inputs through the deviation treatment at
		// the solver level; the operator itself is input-free.
	}
}

// ClearSegment zeroes the input terms (pure homogeneous system e^{hA}v).
func (op *Op) ClearSegment() {
	op.segZero = true
	for i := range op.bcol0 {
		op.bcol0[i] = 0
		op.bcol1[i] = 0
	}
}

func allZero(v []float64) bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

// SetSymmetric overrides the construction-time symmetry detection:
// SetSymmetric(false) disables the Lanczos fast path (used e.g. after MEXP
// regularizes a singular C, where the factorized matrix no longer matches
// the stamped one), SetSymmetric(true) forces it on for callers that know
// their matrices are self-adjoint despite failing the numerical test.
func (op *Op) SetSymmetric(sym bool) { op.sym = sym }

// SymmetricMatrices reports whether the stamped C and G are numerically
// symmetric (and the caller has not overridden detection) — the
// segment-independent part of the fast-path precondition. Solvers use it to
// decide whether reformulating a segment (e.g. shifting out a constant
// input) would make its spots Lanczos-eligible.
func (op *Op) SymmetricMatrices() bool { return op.sym }

// Symmetric reports whether the generated operator is self-adjoint in the
// operator's B-inner product (see ApplySym) — the structural precondition of
// the Lanczos fast path. For the augmented modes this requires the input
// columns to be zero; SymmetricFor additionally checks the start vector.
func (op *Op) Symmetric() bool {
	if !op.sym {
		return false
	}
	if op.Mode == Inverted {
		return true
	}
	return op.segZero
}

// SymmetricFor reports whether the Lanczos fast path applies to a subspace
// generated from v: the operator must be symmetric-eligible and, for the
// augmented modes, v must not excite the polynomial auxiliary chain (its two
// trailing entries are zero), so the iteration stays inside the MNA block
// where the operator is self-adjoint.
func (op *Op) SymmetricFor(v []float64) bool {
	if !op.Symmetric() {
		return false
	}
	if op.Mode == Inverted {
		return true
	}
	return len(v) == op.n+2 && v[op.n] == 0 && v[op.n+1] == 0
}

// ApplySym computes w = M·v together with bw = B·w, where B is the
// inner-product matrix that makes the generated operator M self-adjoint:
//
//	Standard:  M = -C⁻¹G        B = C      (⟨Mx,y⟩_C = -xᵀGy)
//	Inverted:  M = -G⁻¹C        B = G      (⟨Mx,y⟩_G = -xᵀCy)
//	Rational:  M = (C+γG)⁻¹C    B = C+γG   (⟨Mx,y⟩_B = xᵀC(C+γG)⁻¹Cy)
//
// The companion product comes free: B·w equals the sparse product formed on
// the way into the solve (±C·v or ±G·v), so the B-inner-product Lanczos
// recurrence needs no extra SpMV per iteration. Only valid when
// op.SymmetricFor(v); for augmented modes the auxiliary entries of v must be
// zero and stay zero in w and bw.
func (op *Op) ApplySym(w, bw, v []float64) {
	n := op.n
	switch op.Mode {
	case Standard:
		op.g.MulVec(bw[:n], v[:n])
		op.solve(w[:n], bw[:n])
		for i := 0; i < n; i++ {
			w[i] = -w[i]
			bw[i] = -bw[i]
		}
		w[n], w[n+1] = 0, 0
		bw[n], bw[n+1] = 0, 0
	case Inverted:
		op.c.MulVec(bw, v)
		op.solve(w, bw)
		for i := range w {
			w[i] = -w[i]
			bw[i] = -bw[i]
		}
	case Rational:
		op.c.MulVec(bw[:n], v[:n])
		op.solve(w[:n], bw[:n])
		w[n], w[n+1] = 0, 0
		bw[n], bw[n+1] = 0, 0
	}
	if op.Count != nil {
		op.Count.SpMVs++
		op.Count.SolvePairs++
	}
}

// applyB computes dst = B·v for the operator's inner-product matrix — needed
// once per subspace, for the starting vector. Auxiliary entries stay zero.
func (op *Op) applyB(dst, v []float64) {
	n := op.n
	switch op.Mode {
	case Standard:
		op.c.MulVec(dst[:n], v[:n])
		dst[n], dst[n+1] = 0, 0
	case Inverted:
		op.g.MulVec(dst, v)
	case Rational:
		op.c.MulVec(dst[:n], v[:n])
		op.g.MulVecAdd(dst[:n], op.Gamma, v[:n])
		dst[n], dst[n+1] = 0, 0
	}
	if op.Count != nil {
		op.Count.SpMVs++
	}
}

// convertMu maps an eigenvalue λ of the generated operator's tridiagonal
// projection to the corresponding eigenvalue of A (the spectral form of
// convertH, Sec. 3.3). λ values in the clamped regime — at or beyond the
// algebraic limit of the spectral transform, within rounding of it — map to
// -Inf: an instantaneous mode that the exponential annihilates for any
// h > 0, which is the correct physical limit (the dense path reaches the
// same behavior through invertChecked's diagonal shifts).
func (op *Op) convertMu(lam, lamScale float64) float64 {
	const clamp = 1e-14
	switch op.Mode {
	case Standard:
		return lam
	case Inverted:
		// λ = 1/μ with μ ≤ 0: λ ≥ -ε is an algebraic direction.
		if lam >= -clamp*lamScale {
			return math.Inf(-1)
		}
		return 1 / lam
	case Rational:
		// λ = 1/(1-γμ) ∈ (0, 1]: λ ≤ ε is a mode far beyond the shift.
		if lam <= clamp*lamScale {
			return math.Inf(-1)
		}
		return (1 - 1/lam) / op.Gamma
	}
	return math.NaN()
}

// Apply computes dst = M·v (dst and v must not alias; length op.N()).
func (op *Op) Apply(dst, v []float64) {
	n := op.n
	switch op.Mode {
	case Standard:
		zx := v[:n]
		z1, z2 := v[n], v[n+1]
		// dst_x = A·z_x + b₁·z₁ + b₀·z₂ with A = -C⁻¹G.
		op.g.MulVec(dst[:n], zx)
		op.solve(dst[:n], dst[:n])
		for i := 0; i < n; i++ {
			dst[i] = -dst[i] + op.bcol1[i]*z1 + op.bcol0[i]*z2
		}
		dst[n] = z2
		dst[n+1] = 0
	case Inverted:
		// dst = A⁻¹·v = -G⁻¹(C·v).
		op.c.MulVec(dst, v)
		op.solve(dst, dst)
		for i := range dst {
			dst[i] = -dst[i]
		}
	case Rational:
		zx := v[:n]
		z1, z2 := v[n], v[n+1]
		// Solve (I-γÃ)w = z blockwise:
		//   w₂ = z₂ ;  w₁ = z₁ + γ·w₂ ;
		//   (C+γG)·w_x = C·z_x + γ(s·w₁ + B·u·w₂).
		w2 := z2
		w1 := z1 + op.Gamma*w2
		op.c.MulVec(dst[:n], zx)
		for i := 0; i < n; i++ {
			dst[i] += op.Gamma * (op.bcol1[i]*w1 + op.bcol0[i]*w2)
		}
		op.solve(dst[:n], dst[:n])
		dst[n] = w1
		dst[n+1] = w2
	}
	if op.Count != nil {
		op.Count.SpMVs++
		op.Count.SolvePairs++
	}
}

// convertH writes into dst the projection H_m of Ã itself, mapped back
// from the projection Ĥ of the generated operator per Sec. 3.3:
//
//	standard:  H = Ĥ
//	inverted:  H = Ĥ⁻¹
//	rational:  H = (I - H̃⁻¹) / γ
//
// The inverse is invertChecked's, into dst over sc's storage.
func (op *Op) convertH(dst, hhat *dense.Matrix, sc *invScratch) error {
	switch op.Mode {
	case Standard:
		dst.CopyFrom(hhat)
	case Inverted:
		if err := invertChecked(dst, hhat, sc); err != nil {
			return fmt.Errorf("krylov: inverted-mode Ĥ not invertible: %w", err)
		}
	case Rational:
		if err := invertChecked(dst, hhat, sc); err != nil {
			return fmt.Errorf("krylov: rational-mode H̃ not invertible: %w", err)
		}
		m, s := hhat.R, 1/op.Gamma
		for i := 0; i < m; i++ {
			for j := 0; j < m; j++ {
				eye := 0.0
				if i == j {
					eye = 1
				}
				dst.Set(i, j, (eye-dst.At(i, j))*s)
			}
		}
	default:
		return fmt.Errorf("krylov: unknown mode %d", op.Mode)
	}
	return nil
}

// invScratch is invertChecked's storage: the shifted copy of Ĥ, its LU and
// the product held against the identity.
type invScratch struct {
	src, prod dense.Matrix
	lu        dense.LU
}

// invertChecked writes the inverse of the small projection matrix h into
// dst, verifying the product against the identity. Near-zero eigenvalues of
// H̃ correspond to instantaneous (algebraic) modes — circuits whose C has
// empty rows — and make the plain inverse numerical garbage; a tiny diagonal
// shift maps them to very fast decaying modes instead, which is the correct
// physical limit (e^{hA} annihilates them for any h > 0).
func invertChecked(dst, h *dense.Matrix, sc *invScratch) error {
	if tryInverse(dst, h, 0, 1e-6, sc) {
		return nil
	}
	scale := h.InfNorm()
	if scale == 0 {
		scale = 1
	}
	// Shifted attempts tolerate a looser residual: the error lives in the
	// shifted (algebraic) directions, which the exponential annihilates; the
	// slow directions we care about are perturbed only at the shift level.
	// The ladder prefers the most accurate acceptable combination.
	for _, tol := range [...]float64{1e-6, 1e-4, 1e-2} {
		for _, rel := range [...]float64{1e-14, 1e-13, 1e-12, 1e-11, 1e-10, 1e-9} {
			if tryInverse(dst, h, rel*scale, tol, sc) {
				return nil
			}
		}
	}
	return errors.New("dense: projection numerically singular even after shifting")
}

// tryInverse writes the inverse of h + shift·I into dst and reports whether
// ‖(h + shift·I)·dst - I‖∞ is within tol.
func tryInverse(dst, h *dense.Matrix, shift, tol float64, sc *invScratch) bool {
	src := h
	if shift > 0 {
		src = sc.src.CopyFrom(h)
		for i := 0; i < src.R; i++ {
			src.Set(i, i, src.At(i, i)+shift)
		}
	}
	if sc.lu.Factor(src) != nil {
		return false
	}
	sc.lu.InverseInto(dst)
	prod := dense.MulInto(&sc.prod, src, dst)
	for i := 0; i < prod.R; i++ {
		prod.Set(i, i, prod.At(i, i)-1)
	}
	return prod.InfNorm() <= tol
}
