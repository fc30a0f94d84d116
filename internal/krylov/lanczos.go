package krylov

import (
	"errors"
	"fmt"
	"math"

	"github.com/matex-sim/matex/internal/dense"
)

// Method selects how subspaces are generated.
type Method int

const (
	// MethodAuto picks the symmetric Lanczos fast path whenever the
	// operator and start vector qualify (SymmetricFor) and falls back to
	// Arnoldi otherwise. This is the default.
	MethodAuto Method = iota
	// MethodArnoldi always runs the full modified Gram-Schmidt Arnoldi
	// process — the pre-fast-path behavior, kept selectable as the
	// reference baseline.
	MethodArnoldi
)

func (m Method) String() string {
	switch m {
	case MethodAuto:
		return "auto"
	case MethodArnoldi:
		return "arnoldi"
	}
	return "unknown"
}

// ParseMethod parses a -krylov flag value; "lanczos" is a spelling of auto,
// kept for flags, specs and journals that name it.
func ParseMethod(s string) (Method, error) {
	switch s {
	case "", "auto", "lanczos":
		return MethodAuto, nil
	case "arnoldi":
		return MethodArnoldi, nil
	}
	return MethodAuto, fmt.Errorf("krylov: unknown method %q (want auto, arnoldi or lanczos)", s)
}

// Generate builds a Krylov subspace for e^{hA}·v, routing to the symmetric
// Lanczos fast path when the operator is self-adjoint in its B-inner product
// and the start vector qualifies, and to Arnoldi otherwise. This is the
// entry point the transient solvers use; Arnoldi and Lanczos remain callable
// directly for studies that pin the process.
func Generate(op *Op, v []float64, hCheck []float64, opts Options) (*Subspace, error) {
	if opts.Method != MethodArnoldi && op.SymmetricFor(v) {
		sub, err := Lanczos(op, v, hCheck, opts)
		if err != nil && !errors.Is(err, ErrNoConvergence) {
			// The fast path is best-effort: an eigensolver hiccup on a
			// degenerate projection must not fail the run when Arnoldi can
			// still serve. (ErrNoConvergence is not a hiccup — it carries
			// the best-effort subspace the solvers' step-splitting logic
			// reacts to.)
			return Arnoldi(op, v, hCheck, opts)
		}
		return sub, err
	}
	return Arnoldi(op, v, hCheck, opts)
}

// reorthThreshold is the orthogonality-loss level (estimated by the
// ω-recurrence) above which the Lanczos guard falls back to full
// reorthogonalization for the next iterations: the classic √ε criterion.
const reorthThreshold = 1.4901161193847656e-08 // sqrt(machine epsilon)

// Lanczos generates a Krylov subspace with the symmetric three-term
// recurrence in the operator's B-inner product (see Op.ApplySym), under the
// same contract as Arnoldi: grow until the posterior error estimate at every
// step in hCheck is below opts.Tol, return a Subspace whose EvalExp and
// ErrEstimate behave identically.
//
// Against Arnoldi this replaces the O(m²·n) modified Gram-Schmidt sweep by
// O(m·n) work, and the per-check dense Hessenberg machinery (expm of an
// augmented matrix, projection inversion) by one symmetric tridiagonal
// eigendecomposition reused for every step size — the spectral form also
// makes every later snapshot evaluation an O(m²) operation with no matrix
// exponential at all. With a caller-provided Workspace the whole generation
// performs zero heap allocations in steady state.
//
// Floating-point Lanczos loses orthogonality as eigenvalues converge; a
// partial reorthogonalization guard (Simon's ω-recurrence) estimates the
// drift and switches to full reorthogonalization sweeps when it crosses √ε.
func Lanczos(op *Op, v []float64, hCheck []float64, opts Options) (*Subspace, error) {
	if !op.SymmetricFor(v) {
		return nil, fmt.Errorf("krylov: %v operator is not symmetric-eligible for Lanczos here", op.Mode)
	}
	ws := opts.workspace()
	return generate((*lanczos)(ws), ws, op, v, hCheck, opts)
}

// lanczos is a Workspace running the Lanczos process: the three-term
// recurrence (alpha on the diagonal, beta below it) over a B-orthonormal
// basis with its B·v companions in bbasis, guarded by the ω-recurrence;
// SymTriEig and convertMu give the projection as the spectrum mu with
// eigenvectors eigQ, the estimate is spectralEstimate's and the change is
// weighted by the basis vectors' Euclidean norms nu.
type lanczos Workspace

func (l *lanczos) start(v []float64, maxDim int) float64 {
	n := len(v)
	bw := vec(&l.bbasis, 0, n)
	l.sub.op.applyB(bw, v)
	beta0 := math.Sqrt(math.Max(0, dot(v, bw)))
	if beta0 == 0 {
		return 0
	}
	v0 := vec(&l.basis, 0, n)
	for i := range v {
		v0[i] = v[i] / beta0
	}
	for i := range bw {
		bw[i] /= beta0
	}
	l.alpha, l.beta = growF(l.alpha, maxDim), growF(l.beta, maxDim)
	// The basis is B-orthonormal, but the caller's tolerance is a Euclidean
	// error budget (the same budget Arnoldi's 2-orthonormal basis serves
	// directly). On PDN systems the two scales differ by orders of
	// magnitude — ‖·‖_B with B ≈ C ~ 1e-12 is ~1e-6 of ‖·‖₂ — so estimates
	// formed in B-units would declare convergence six orders early. nu
	// tracks each basis vector's Euclidean norm to convert the residual
	// estimate and the difference guard into the caller's units.
	l.nu = growF(l.nu, maxDim+1)
	l.nu[0] = norm2(v0)
	l.omega, l.omg1 = growF(l.omega, maxDim+1), growF(l.omg1, maxDim+1)
	l.w, l.bw = growF(l.w, n), growF(l.bw, n)
	l.reorthLeft = 0
	return beta0
}

func (l *lanczos) step(j int) (resid, scale float64) {
	w, bw := l.w, l.bw
	l.sub.op.ApplySym(w, bw, l.basis[j])
	wb0 := dot(w, bw)
	if math.IsNaN(wb0) || math.IsInf(wb0, 0) {
		return 0, wb0
	}
	if j > 0 {
		axpy(w, -l.beta[j-1], l.basis[j-1])
		axpy(bw, -l.beta[j-1], l.bbasis[j-1])
	}
	aj := dot(w, l.bbasis[j])
	axpy(w, -aj, l.basis[j])
	axpy(bw, -aj, l.bbasis[j])
	if l.reorthLeft > 0 {
		l.reorthLeft--
		for i := 0; i <= j; i++ {
			c := dot(w, l.bbasis[i])
			axpy(w, -c, l.basis[i])
			axpy(bw, -c, l.bbasis[i])
			if i == j {
				aj += c
			}
		}
	}
	l.alpha[j] = aj
	l.beta[j] = math.Sqrt(math.Max(0, dot(w, bw)))
	return l.beta[j], math.Sqrt(math.Max(0, wb0))
}

// extend also records nu[j+1] = ‖v_{j+1}‖₂, which converts the residual
// along v_{j+1} from its unit B-norm to Euclidean units, and advances the
// ω guard.
func (l *lanczos) extend(j int, last, exhausted bool) {
	bj := l.beta[j]
	if exhausted {
		l.nu[j+1] = 1
		if bj > 0 {
			l.nu[j+1] = norm2(l.w) / bj
		}
		return
	}
	vnext := vec(&l.basis, j+1, len(l.w))
	bnext := vec(&l.bbasis, j+1, len(l.w))
	for i := range l.w {
		vnext[i] = l.w[i] / bj
		bnext[i] = l.bw[i] / bj
	}
	l.nu[j+1] = norm2(vnext)
	if l.reorthLeft == 0 {
		if updateOmega(l.omega, l.omg1, l.alpha, l.beta, j) > reorthThreshold || last {
			// Orthogonality drifting, or about to divide by a tiny β: clean
			// the next two vectors with full sweeps and restart the estimate.
			l.reorthLeft = 2
			resetOmega(l.omega, j+1)
			resetOmega(l.omg1, j+1)
		} else {
			l.omega, l.omg1 = l.omg1, l.omega
		}
	}
}

// project runs SymTriEig on the m×m tridiagonal, leaving its eigenvectors in
// eigQ, and converts its eigenvalues into mu.
func (l *lanczos) project(m int) error {
	l.eigD = growF(l.eigD, m)
	l.eigE = growF(l.eigE, m)
	copy(l.eigD, l.alpha[:m])
	copy(l.eigE, l.beta[:m-1])
	l.eigE[m-1] = 0
	l.eigQ.Reset(m, m)
	for i := 0; i < m; i++ {
		l.eigQ.Data[i*m+i] = 1
	}
	if err := dense.SymTriEig(l.eigD, l.eigE, &l.eigQ); err != nil {
		return fmt.Errorf("krylov: %v Lanczos projection eigendecomposition failed at dimension %d: %w", l.sub.op.Mode, m, err)
	}
	lamScale := 0.0
	for _, lam := range l.eigD[:m] {
		if a := math.Abs(lam); a > lamScale {
			lamScale = a
		}
	}
	l.mu = growF(l.mu, m)
	for k := range l.mu {
		l.mu[k] = l.sub.op.convertMu(l.eigD[k], lamScale)
	}
	return nil
}

func (l *lanczos) estimate(m int, h float64) (float64, []float64, error) {
	l.estU = growF(l.estU, m)
	return l.nu[m] * spectralEstimate(&l.eigQ, l.mu, l.beta[m-1], l.sub.beta, h, l.estU), l.estU, nil
}

// change bounds the Euclidean size of the change by the triangle inequality
// over the per-vector norms, as the basis is not 2-orthonormal
// (conservative by at most √m).
func (l *lanczos) change(u, prev []float64) float64 {
	var d float64
	for i := range u {
		d += math.Abs(u[i]-prev[i]) * l.nu[i]
	}
	return d
}

// derivative forms H_m·y = Q·diag(μ·e^{hμ})·Qᵀe₁.
func (l *lanczos) derivative(h float64, _ []float64) {
	for i := range l.defHy {
		l.defHy[i] = 0
	}
	for c, mu := range l.mu {
		if e := expMu(h, mu); e != 0 {
			for i := range l.defHy {
				l.defHy[i] += l.eigQ.At(i, c) * mu * e * l.eigQ.At(0, c)
			}
		}
	}
}

// confirms: a near-breakdown (tiny β_j) stalls the recurrence for one
// dimension, and the residual estimate (∝ β) and the successive-difference
// guard then collapse together though the subspace is only approximately
// invariant — the classic Lanczos staircase. One more dimension reopens the
// recurrence and exposes the remaining error, so a passing check is
// confirmed by the next at the cost of a single extra iteration per spot.
func (l *lanczos) confirms() bool { return true }

// install puts the spectral representation on the subspace; estNu =
// ‖v_{m+1}‖₂ converts later ErrEstimate calls into the caller's units.
func (l *lanczos) install(m int) {
	s := &l.sub
	s.tri, s.mu, s.q = true, l.mu[:m], &l.eigQ
	s.hsub, s.estNu = l.beta[m-1], l.nu[m]
	if s.op.Count != nil {
		s.op.Count.Lanczos++
	}
}

// updateOmega advances Simon's ω-recurrence: given the estimates for rows
// j-1 (omegaNew, from two iterations ago) and j (omega), it writes the row
// for the just-formed v_{j+1} into omegaNew and returns its largest
// magnitude against v_0..v_{j-1}. Indices follow alpha[i] = T[i,i],
// beta[i] = T[i+1,i].
func updateOmega(omega, omegaNew, alpha, beta []float64, j int) float64 {
	if j == 0 {
		omega[0] = machEpsK
		omegaNew[0] = machEpsK
		omegaNew[1] = machEpsK
		return 0
	}
	maxDrift := 0.0
	for i := 0; i < j; i++ {
		t := (alpha[i] - alpha[j]) * omega[i]
		t += beta[i] * omegaAt(omega, i+1, j)
		if i > 0 {
			t += beta[i-1] * omega[i-1]
		}
		t -= beta[j-1] * omegaNew[i] // row j-1 before being overwritten
		t = t/beta[j] + 2*machEpsK
		omegaNew[i] = t
		if a := math.Abs(t); a > maxDrift {
			maxDrift = a
		}
	}
	omegaNew[j] = machEpsK // local orthogonality is enforced explicitly
	omegaNew[j+1] = machEpsK
	return maxDrift
}

// omegaAt reads ω_{j,i} with the convention ω_{j,j} = 1.
func omegaAt(omega []float64, i, j int) float64 {
	if i == j {
		return 1
	}
	return omega[i]
}

func resetOmega(omega []float64, upto int) {
	for i := 0; i <= upto && i < len(omega); i++ {
		omega[i] = machEpsK
	}
}

const machEpsK = 2.220446049250313e-16

// spectralEstimate evaluates the integrated posterior bound of errEstimate
// in the eigenbasis of the tridiagonal projection: with T = QΛQᵀ and
// converted eigenvalues μ = f(Λ),
//
//	u      = e^{hH_m}e₁      = Q·diag(e^{hμ})·Qᵀe₁
//	est(h) = β·|ĥ_{m+1,m}|·|[h·φ₁(hH_m)e₁]_m| = β·|ĥ|·|Σ_k Q_{m,k}·hφ₁(hμ_k)·Q_{1,k}|
//
// u is written into uOut (length m) for the successive-difference guard.
// Clamped eigenvalues (μ = -Inf, instantaneous modes) contribute zero.
func spectralEstimate(q *dense.Matrix, mu []float64, hsub, beta, h float64, uOut []float64) float64 {
	m := len(mu)
	var last float64
	for i := 0; i < m; i++ {
		uOut[i] = 0
	}
	for k := 0; k < m; k++ {
		q0k := q.At(0, k)
		e := expMu(h, mu[k])
		if e != 0 && q0k != 0 {
			c := e * q0k
			for i := 0; i < m; i++ {
				uOut[i] += q.At(i, k) * c
			}
		}
		last += q.At(m-1, k) * hphi1(h, mu[k]) * q0k
	}
	return beta * math.Abs(hsub) * math.Abs(last)
}

// expMu returns e^{hμ}, with clamped modes (μ = -Inf) decaying instantly.
func expMu(h, mu float64) float64 {
	if math.IsInf(mu, -1) {
		return 0
	}
	return math.Exp(h * mu)
}

// hphi1 returns h·φ₁(hμ) = (e^{hμ}-1)/μ, the integrated residual weight.
func hphi1(h, mu float64) float64 {
	if math.IsInf(mu, -1) {
		return 0
	}
	z := h * mu
	if math.Abs(z) < 1e-8 {
		return h * (1 + z/2)
	}
	return h * math.Expm1(z) / z
}
