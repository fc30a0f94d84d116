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
// Options.Reorthogonalize forces the full sweep on every iteration.
//
//matex:noalloc
func Lanczos(op *Op, v []float64, hCheck []float64, opts Options) (*Subspace, error) {
	n := op.N()
	opts = opts.withDefaults(n)
	if len(v) != n {
		return nil, fmt.Errorf("krylov: starting vector length %d != operator dimension %d", len(v), n) //matex:alloc-ok(error path; subspace generation is abandoned or degraded)
	}
	if len(hCheck) == 0 {
		return nil, errors.New("krylov: no step sizes to check") //matex:alloc-ok(error path; subspace generation is abandoned or degraded)
	}
	if !op.SymmetricFor(v) {
		return nil, fmt.Errorf("krylov: %v operator is not symmetric-eligible for Lanczos here", op.Mode) //matex:alloc-ok(error path; subspace generation is abandoned or degraded)
	}
	ws := opts.Workspace
	if ws == nil {
		ws = &Workspace{} //matex:alloc-ok(fallback workspace when the caller supplies no pool)
	}
	sub := ws.resetSub(op)

	// Starting vector in the B-norm.
	bw := vec(&ws.bbasis, 0, n)
	op.applyB(bw, v)
	beta0 := math.Sqrt(math.Max(0, dot(v, bw)))
	sub.beta = beta0
	if beta0 == 0 {
		v0 := vec(&ws.basis, 0, n)
		for i := range v0 {
			v0[i] = 0
		}
		sub.m = 1
		sub.tri = true
		sub.v = ws.basis[:1]
		ws.mu = growF(ws.mu, 1)
		ws.mu[0] = 0
		sub.mu = ws.mu[:1]
		if op.Count != nil {
			op.Count.Dims = append(op.Count.Dims, 1) //matex:alloc-ok(work-stats recording; amortized append)
		}
		return sub, nil
	}
	v0 := vec(&ws.basis, 0, n)
	for i := range v {
		v0[i] = v[i] / beta0
	}
	for i := range bw {
		bw[i] /= beta0
	}

	alpha := growF(ws.alpha, opts.MaxDim)
	beta := growF(ws.beta, opts.MaxDim)
	ws.alpha, ws.beta = alpha, beta
	// The basis is B-orthonormal, but the caller's tolerance is a Euclidean
	// error budget (the same budget Arnoldi's 2-orthonormal basis serves
	// directly). On PDN systems the two scales differ by orders of
	// magnitude — ‖·‖_B with B ≈ C ~ 1e-12 is ~1e-6 of ‖·‖₂ — so estimates
	// formed in B-units would declare convergence six orders early. nu
	// tracks each basis vector's Euclidean norm to convert the residual
	// estimate and the difference guard into the caller's units.
	nu := growF(ws.nu, opts.MaxDim+1)
	ws.nu = nu
	nu[0] = norm2(v0)
	omega := growF(ws.omega, opts.MaxDim+1)
	omegaNew := growF(ws.omg1, opts.MaxDim+1)
	ws.omega, ws.omg1 = omega, omegaNew
	ws.prepPrevU(len(hCheck), opts.MaxDim)
	w := growF(ws.w, n)
	bww := growF(ws.bw, n)
	ws.w, ws.bw = w, bww

	sched := checkSchedule{}
	havePrev := false
	bestWorst := math.Inf(1)
	bestM := 0
	reorthLeft := 0 // full-sweep iterations pending from the ω guard
	// confirmPending requires a passing estimate to hold on the next check
	// too before the subspace is accepted. A near-breakdown (tiny β_j)
	// stalls the recurrence for one dimension: the residual estimate (∝ β)
	// and the successive-difference guard then collapse together even
	// though the subspace is only approximately invariant — the classic
	// Lanczos staircase. One more dimension reopens the recurrence and
	// exposes the remaining error, so double confirmation closes the trap
	// at the cost of a single extra iteration per spot.
	confirmPending := false

	for j := 0; j < opts.MaxDim; j++ {
		op.ApplySym(w, bww, ws.basis[j])
		wb0 := dot(w, bww)
		if math.IsNaN(wb0) || math.IsInf(wb0, 0) {
			return nil, fmt.Errorf("krylov: %v operator produced a non-finite vector at dimension %d (system too stiff for this subspace)", op.Mode, j+1) //matex:alloc-ok(error path; subspace generation is abandoned or degraded)
		}
		wScale := math.Sqrt(math.Max(0, wb0))
		if j > 0 {
			axpy(w, -beta[j-1], ws.basis[j-1])
			axpy(bww, -beta[j-1], ws.bbasis[j-1])
		}
		aj := dot(w, ws.bbasis[j])
		axpy(w, -aj, ws.basis[j])
		axpy(bww, -aj, ws.bbasis[j])
		if opts.Reorthogonalize || reorthLeft > 0 {
			if reorthLeft > 0 {
				reorthLeft--
			}
			for i := 0; i <= j; i++ {
				c := dot(w, ws.bbasis[i])
				axpy(w, -c, ws.basis[i])
				axpy(bww, -c, ws.bbasis[i])
				if i == j {
					aj += c
				}
			}
		}
		alpha[j] = aj
		bj := math.Sqrt(math.Max(0, dot(w, bww)))
		beta[j] = bj
		m := j + 1
		// A happy breakdown or the full space. As in Arnoldi, exact only in
		// exact arithmetic — this dimension is accepted on a passing
		// estimate like any other, with the β it really has, or on the
		// explicit residual check; a declared breakdown that neither vouches
		// for carries on to v_{m+1} (β was only small in absolute terms).
		// nuNext is ‖v_{m+1}‖₂, which converts the residual along v_{m+1}
		// from its unit B-norm to Euclidean units.
		exhausted := m == n || bj == 0
		last := exhausted || bj <= breakdownTol*(1+wScale)
		nuNext := 1.0
		if exhausted {
			if bj > 0 {
				nuNext = norm2(w) / bj
			}
			nu[j+1] = nuNext
		} else {
			vnext := vec(&ws.basis, j+1, n)
			bnext := vec(&ws.bbasis, j+1, n)
			for i := range w {
				vnext[i] = w[i] / bj
				bnext[i] = bww[i] / bj
			}
			nuNext = norm2(vnext)
			nu[j+1] = nuNext
			if !opts.Reorthogonalize && reorthLeft == 0 {
				if updateOmega(omega, omegaNew, alpha, beta, j) > reorthThreshold || last {
					// Orthogonality drifting, or about to divide by a tiny β:
					// clean the next two vectors with full sweeps and restart
					// the estimate.
					reorthLeft = 2
					resetOmega(omega, j+1)
					resetOmega(omegaNew, j+1)
				} else {
					omega, omegaNew = omegaNew, omega
				}
			}
		}

		if opts.ForceDim && !last && m < opts.MaxDim {
			continue
		}
		if !(last || m == opts.MaxDim || confirmPending || sched.due(m)) {
			continue
		}
		if err := ws.eig(alpha, beta, m); err != nil {
			if last || m == opts.MaxDim {
				return nil, fmt.Errorf("krylov: %v Lanczos projection eigendecomposition failed at dimension %d: %w", op.Mode, m, err) //matex:alloc-ok(error path; subspace generation is abandoned or degraded)
			}
			continue
		}
		lamScale := 0.0
		for _, l := range ws.eigD[:m] {
			if a := math.Abs(l); a > lamScale {
				lamScale = a
			}
		}
		ws.mu = growF(ws.mu, m)
		for k := 0; k < m; k++ {
			ws.mu[k] = op.convertMu(ws.eigD[k], lamScale)
		}
		worst := 0.0
		ok := m >= 2 || m == opts.MaxDim || last
		if ok {
			ws.estU = growF(ws.estU, m)
			for k, h := range hCheck {
				est := nuNext * spectralEstimate(&ws.eigQ, ws.mu[:m], bj, beta0, h, ws.estU)
				if math.IsNaN(est) {
					ok = false
					break
				}
				// Successive-difference guard, as in Arnoldi: projected
				// residuals can miss error carried by modes outside the
				// subspace. The basis is not 2-orthonormal, so the Euclidean
				// size of the change is bounded by the triangle inequality
				// over the per-vector norms (conservative by at most √m).
				if havePrev {
					prev := ws.prevU[k]
					var d float64
					for i := 0; i < m; i++ {
						d += math.Abs(ws.estU[i]-prev[i]) * nu[i]
					}
					if d *= beta0; d > est {
						est = d
					}
				} else if !last {
					est = math.Inf(1) // need two checks before trusting
				}
				copy(ws.prevU[k][:m], ws.estU[:m])
				if est > worst {
					worst = est
				}
			}
			if op.Count != nil {
				op.Count.ExpmEvals += len(hCheck)
			}
			if ok {
				havePrev = true
				if worst < bestWorst {
					bestWorst = worst
					bestM = m
				}
			}
		}
		sched.record(m, worst, ok, opts)
		if opts.ForceDim && (last || m == opts.MaxDim) {
			finishTri(sub, ws, m, bj, nuNext)
			return sub, nil
		}
		accept := ok && worst <= opts.Tol
		if last && ok && !accept {
			// As in Arnoldi: the guard measures the previous check, not an
			// exhausted space; ask the operator itself.
			accept = true
			ws.defHy = growF(ws.defHy, m)
			for k, h := range hCheck {
				for i := range ws.defHy {
					ws.defHy[i] = 0
				}
				for c, mu := range ws.mu[:m] { // H_m·y = Q·diag(μ·e^{hμ})·Qᵀe₁
					if e := expMu(h, mu); e != 0 {
						for i := range ws.defHy {
							ws.defHy[i] += ws.eigQ.At(i, c) * mu * e * ws.eigQ.At(0, c)
						}
					}
				}
				if d := odeDefect(op, ws, beta0, h, ws.prevU[k][:m]); !(d <= opts.Tol) {
					accept = false
					break
				}
			}
		}
		if accept {
			if confirmPending || m == opts.MaxDim || last {
				finishTri(sub, ws, m, bj, nuNext)
				return sub, nil
			}
			confirmPending = true
		} else {
			confirmPending = false
		}
		if exhausted {
			break // nothing vouches for the projection and there is no next vector
		}
	}
	// Best effort at the dimension with the smallest estimate, mirroring
	// Arnoldi: callers proceed with the achievable accuracy after exhausting
	// their step-splitting options.
	if bestM == 0 {
		return nil, fmt.Errorf("%w (dim %d, tol %g)", ErrNoConvergence, opts.MaxDim, opts.Tol) //matex:alloc-ok(error path; subspace generation is abandoned or degraded)
	}
	if err := ws.eig(alpha, beta, bestM); err != nil {
		return nil, fmt.Errorf("%w (dim %d, tol %g)", ErrNoConvergence, opts.MaxDim, opts.Tol) //matex:alloc-ok(error path; subspace generation is abandoned or degraded)
	}
	lamScale := 0.0
	for _, l := range ws.eigD[:bestM] {
		if a := math.Abs(l); a > lamScale {
			lamScale = a
		}
	}
	ws.mu = growF(ws.mu, bestM)
	for k := 0; k < bestM; k++ {
		ws.mu[k] = op.convertMu(ws.eigD[k], lamScale)
	}
	finishTri(sub, ws, bestM, beta[bestM-1], nu[bestM])
	return sub, fmt.Errorf("%w (best dim %d, estimate %.3g, tol %g)", ErrNoConvergence, bestM, bestWorst, opts.Tol) //matex:alloc-ok(error path; subspace generation is abandoned or degraded)
}

// finishTri installs the spectral representation at dimension m. estNu is
// the Euclidean norm of the residual direction v_{m+1}, converting later
// ErrEstimate calls into the caller's units.
//
//matex:noalloc
func finishTri(sub *Subspace, ws *Workspace, m int, hsub, estNu float64) {
	sub.m = m
	sub.tri = true
	sub.v = ws.basis[:m]
	sub.mu = ws.mu[:m]
	sub.q = &ws.eigQ
	sub.hsub = hsub
	sub.estNu = estNu
	if op := sub.op; op.Count != nil {
		op.Count.Dims = append(op.Count.Dims, m) //matex:alloc-ok(work-stats recording; amortized append)
		op.Count.Lanczos++
	}
}

// updateOmega advances Simon's ω-recurrence: given the estimates for rows
// j-1 (omegaNew, from two iterations ago) and j (omega), it writes the row
// for the just-formed v_{j+1} into omegaNew and returns its largest
// magnitude against v_0..v_{j-1}. Indices follow alpha[i] = T[i,i],
// beta[i] = T[i+1,i].
//
//matex:noalloc
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
//
//matex:noalloc
func omegaAt(omega []float64, i, j int) float64 {
	if i == j {
		return 1
	}
	return omega[i]
}

//matex:noalloc
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
