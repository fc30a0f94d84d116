package krylov

import (
	"errors"
	"fmt"
	"math"

	"github.com/matex-sim/matex/internal/dense"
)

// breakdownTol declares a happy breakdown when the next Arnoldi vector's
// norm falls below this fraction of the starting vector's norm.
const breakdownTol = 1e-14

// ErrNoConvergence is returned when the posterior error estimate stays above
// tolerance at the maximum subspace dimension. Callers react by shortening
// the time step (Alg. 2 fallback).
var ErrNoConvergence = errors.New("krylov: posterior error above tolerance at maximum dimension")

// Options controls the subspace generation process.
type Options struct {
	// MaxDim caps the subspace dimension (paper: small for I-/R-MATEX,
	// hundreds for MEXP on stiff circuits). Default 256.
	MaxDim int
	// Tol is the posterior error budget ε for e^{hA}v. Default 1e-7.
	Tol float64
	// Reorthogonalize enables a full reorthogonalization pass on every
	// iteration (a second modified Gram-Schmidt sweep for Arnoldi, a full
	// B-orthogonal sweep for Lanczos), restoring orthogonality for
	// ill-conditioned bases. The Lanczos path additionally runs a partial
	// reorthogonalization guard even when this is off.
	Reorthogonalize bool
	// ForceDim disables the convergence test and builds exactly MaxDim
	// dimensions (short of a happy breakdown) — for fixed-dimension studies
	// like the paper's Fig. 5.
	ForceDim bool
	// Method routes Generate between the Arnoldi process and the symmetric
	// Lanczos fast path. The zero value (MethodAuto) uses Lanczos whenever
	// the operator qualifies.
	Method Method
	// Workspace, when non-nil, supplies the arena every buffer is drawn
	// from, making steady-state generation allocation-free. The returned
	// Subspace is owned by the workspace: generating the next subspace from
	// the same workspace invalidates it. Nil gives the call a private arena.
	Workspace *Workspace
}

func (o Options) withDefaults(n int) Options {
	if o.MaxDim <= 0 {
		o.MaxDim = 256
	}
	if o.MaxDim > n {
		o.MaxDim = n
	}
	if o.Tol <= 0 {
		o.Tol = 1e-7
	}
	return o
}

// checkEvery is the largest stride between convergence checks once an
// estimate trend is established (two successful estimate rounds); before
// that the check runs every iteration.
const checkEvery = 5

// Subspace is a generated Krylov subspace ready for matrix-exponential
// evaluation, including everything needed to reuse it at different step
// sizes (the paper's snapshot mechanism). Arnoldi subspaces carry the dense
// Hessenberg projection; Lanczos subspaces carry the spectral decomposition
// of their tridiagonal projection instead, which makes every snapshot an
// O(m²) evaluation with no matrix exponential.
type Subspace struct {
	op   *Op
	v    [][]float64   // m basis vectors, each length n
	hhat *dense.Matrix // m×m projection of the generated operator (Arnoldi)
	hsub float64       // ĥ_{m+1,m}, the subdiagonal residual weight
	hm   *dense.Matrix // m×m projection of A (converted; Arnoldi)
	beta float64       // ‖v‖ of the starting vector (B-norm for Lanczos)
	m    int

	// Spectral representation (Lanczos): the tridiagonal projection
	// T = QΛQᵀ with converted eigenvalues mu = f(Λ); -Inf entries mark
	// clamped instantaneous modes. estNu converts the B-norm residual
	// estimate into Euclidean units (‖v_{m+1}‖₂).
	tri   bool
	mu    []float64
	q     *dense.Matrix
	estNu float64

	// Reused scratch (lazily grown, retained across workspace resets).
	scrHm   *dense.Matrix // scaled-projection copy for EvalExp
	scrAug  *dense.Matrix // augmented expm input for error estimates
	scrU    []float64     // estimate vector e^{hH}e₁
	evalC   []float64     // spectral evaluation coefficients
	evalY   []float64
	hhatBuf *dense.Matrix // converged-projection store (Arnoldi finalize)
}

// Dim returns the subspace dimension m.
func (s *Subspace) Dim() int { return s.m }

// Beta returns the starting vector norm ‖v‖ (the operator's B-norm when the
// subspace was generated by Lanczos).
func (s *Subspace) Beta() float64 { return s.beta }

// Hm returns the m×m projection of A for Arnoldi subspaces, nil for
// spectral (Lanczos) subspaces, which never form it.
func (s *Subspace) Hm() *dense.Matrix { return s.hm }

// Lanczos reports whether the subspace came from the symmetric fast path.
func (s *Subspace) Lanczos() bool { return s.tri }

// Arnoldi generates a Krylov subspace for e^{hA}·v with the given operator,
// growing the dimension until the posterior error estimate at step h is
// below opts.Tol (paper Alg. 1). hCheck lists the step sizes the subspace
// must be accurate for; the estimate is evaluated at each and the maximum
// must pass.
//
//matex:noalloc
func Arnoldi(op *Op, v []float64, hCheck []float64, opts Options) (*Subspace, error) {
	n := op.N()
	opts = opts.withDefaults(n)
	if len(v) != n {
		return nil, fmt.Errorf("krylov: starting vector length %d != operator dimension %d", len(v), n) //matex:alloc-ok(error path; subspace generation is abandoned or degraded)
	}
	if len(hCheck) == 0 {
		return nil, errors.New("krylov: no step sizes to check") //matex:alloc-ok(error path; subspace generation is abandoned or degraded)
	}
	ws := opts.Workspace
	if ws == nil {
		ws = &Workspace{} //matex:alloc-ok(fallback workspace when the caller supplies no pool)
	}
	sub := ws.resetSub(op)
	beta := norm2(v)
	sub.beta = beta
	if beta == 0 {
		// Zero starting vector: e^{hA}·0 = 0; a dimension-1 dummy keeps the
		// caller's bookkeeping simple.
		v0 := vec(&ws.basis, 0, n)
		for i := range v0 {
			v0[i] = 0
		}
		sub.m = 1
		sub.v = ws.basis[:1]
		sub.hhat = dense.New(1, 1)
		sub.hm = dense.New(1, 1)
		if op.Count != nil {
			op.Count.Dims = append(op.Count.Dims, 1) //matex:alloc-ok(work-stats recording; amortized append)
		}
		return sub, nil
	}

	hFull := matrix(&ws.hFull, opts.MaxDim+1, opts.MaxDim) // growing Hessenberg
	ws.prepPrevU(len(hCheck), opts.MaxDim)
	havePrev := false
	// Best-effort fallback state: the dimension with the smallest estimate
	// seen, used when the tolerance is unreachable.
	bestWorst := math.Inf(1)
	bestM := 0
	var bestHm *dense.Matrix
	var bestHsub float64
	v1 := vec(&ws.basis, 0, n)
	for i := range v {
		v1[i] = v[i] / beta
	}
	w := growF(ws.w, n)
	ws.w = w
	sched := checkSchedule{}

	for j := 0; j < opts.MaxDim; j++ {
		op.Apply(w, ws.basis[j])
		wScale := norm2(w)
		if math.IsNaN(wScale) || math.IsInf(wScale, 0) {
			return nil, fmt.Errorf("krylov: %v operator produced a non-finite vector at dimension %d (system too stiff for this subspace; use I-MATEX or R-MATEX)", op.Mode, j+1) //matex:alloc-ok(error path; subspace generation is abandoned or degraded)
		}
		// Modified Gram-Schmidt.
		for i := 0; i <= j; i++ {
			hij := dot(w, ws.basis[i])
			hFull.Set(i, j, hij)
			axpy(w, -hij, ws.basis[i])
		}
		if opts.Reorthogonalize {
			for i := 0; i <= j; i++ {
				c := dot(w, ws.basis[i])
				hFull.Set(i, j, hFull.At(i, j)+c)
				axpy(w, -c, ws.basis[i])
			}
		}
		hnext := norm2(w)
		hFull.Set(j+1, j, hnext)
		m := j + 1
		// The iteration may end here: a happy breakdown (the subspace is
		// invariant, the projection exact) or a basis that spans the whole
		// space (the projection is a similarity). Both statements are about
		// exact arithmetic. A dimension that ran up to n because the
		// posterior estimate stalled above the budget has divided by a
		// rounding-level ĥ on the way and its projection can be noise, and
		// the breakdown threshold is absolute for an operator of small norm
		// (A⁻¹ on a PDN is ~1e-13), so this dimension is accepted like any
		// other — on a passing estimate — or on an explicit residual check
		// (odeDefect), never on its own. A declared breakdown that neither
		// vouches for carries on to v_{m+1}: ĥ was only small in absolute
		// terms.
		exhausted := m == n || hnext == 0
		last := exhausted || hnext <= breakdownTol*(1+wScale)
		if !exhausted {
			vnext := vec(&ws.basis, j+1, n)
			for i := range w {
				vnext[i] = w[i] / hnext
			}
		}

		if opts.ForceDim && !last && m < opts.MaxDim {
			continue
		}
		// Check every iteration until an estimate trend is established, then
		// extrapolate the geometric decay to the projected tolerance
		// crossing, rechecking at most checkEvery dimensions later: the
		// O(m³) check is the dominant non-solve cost at small m, and a
		// fixed stride would instead overshoot the converged dimension.
		if !(last || m == opts.MaxDim || sched.due(m)) {
			continue
		}
		hhat := hessSlice(ws, hFull, m)
		hm, err := sub.op.ConvertH(hhat)
		if err != nil {
			if last || m == opts.MaxDim {
				return nil, err
			}
			continue // singular leading block can resolve at higher m
		}
		worst := 0.0
		ok := m >= 2 || m == opts.MaxDim || last
		if ok {
			for k, h := range hCheck {
				est, u, err := sub.errEstimateScratch(hm, hnext, beta, h)
				if err != nil || math.IsNaN(est) {
					ok = false
					break
				}
				// Guard the residual bound with the change between this and
				// the previously checked approximation: projected residuals
				// can miss error carried by fast modes outside the subspace
				// (inverted/rational spaces capture slow modes first).
				if havePrev {
					prev := ws.prevU[k]
					var d float64
					for i := 0; i < m; i++ {
						d += (u[i] - prev[i]) * (u[i] - prev[i])
					}
					if d = beta * math.Sqrt(d); d > est {
						est = d
					}
				} else if !last {
					est = math.Inf(1) // need two checks before trusting
				}
				copy(ws.prevU[k][:m], u[:m])
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
					bestHm = hm
					bestHsub = hnext
				}
			}
		}
		sched.record(m, worst, ok, opts)
		accept := ok && worst <= opts.Tol
		if last && ok && !accept {
			// The successive-difference guard measures the previous check,
			// not an exhausted space; ask the operator itself.
			accept = true
			ws.defHy = growF(ws.defHy, m)
			for k, h := range hCheck {
				y := ws.prevU[k][:m]
				for a := range ws.defHy {
					ws.defHy[a] = 0
					for b, yb := range y {
						ws.defHy[a] += hm.At(a, b) * yb
					}
				}
				if d := odeDefect(op, ws, beta, h, y); !(d <= opts.Tol) {
					accept = false
					break
				}
			}
		}
		if accept || (opts.ForceDim && (last || m == opts.MaxDim)) {
			sub.m = m
			sub.v = ws.basis[:m]
			// Copy the workspace-backed slice into subspace-held scratch
			// instead of cloning: the finalize path runs once per generated
			// subspace (every transition spot), and the clone was the last
			// per-spot allocation on a warmed-up run.
			hk := matrix(&sub.hhatBuf, m, m)
			copy(hk.Data, hhat.Data)
			sub.hhat = hk
			sub.hsub = hnext
			sub.hm = hm
			if op.Count != nil {
				op.Count.Dims = append(op.Count.Dims, m) //matex:alloc-ok(work-stats recording; amortized append)
			}
			return sub, nil
		}
		if exhausted {
			break // the estimate did not pass and there is no next vector
		}
	}
	// Best effort: hand back the subspace at the dimension with the smallest
	// estimate seen, along with the error, so callers can proceed with the
	// achievable accuracy after exhausting their step-splitting options.
	if bestM == 0 {
		return nil, fmt.Errorf("%w (dim %d, tol %g)", ErrNoConvergence, opts.MaxDim, opts.Tol) //matex:alloc-ok(error path; subspace generation is abandoned or degraded)
	}
	sub.m = bestM
	sub.v = ws.basis[:bestM]
	sub.hhat = hFull.Slice(bestM, bestM)
	sub.hsub = bestHsub
	sub.hm = bestHm
	if op.Count != nil {
		op.Count.Dims = append(op.Count.Dims, bestM) //matex:alloc-ok(work-stats recording; amortized append)
	}
	return sub, fmt.Errorf("%w (best dim %d, estimate %.3g, tol %g)", ErrNoConvergence, bestM, bestWorst, opts.Tol) //matex:alloc-ok(error path; subspace generation is abandoned or degraded)
}

// odeDefect is the explicit residual check behind accepting a subspace that
// cannot grow: how far the projection's approximation x = β·V·y,
// y = e^{hH_m}e₁, is from solving x' = A·x, measured through one real
// application of the operator instead of projected quantities. The caller
// leaves H_m·y in ws.defHy, so x' = β·V·(H_m·y); with r = x' − A·x the ODE
// residual it returns
//
//	Standard  h·‖A·x − x'‖                          = h·‖r‖
//	Inverted  ‖A⁻¹·x' − x‖                          = ‖A⁻¹·r‖
//	Rational  max(1, h/γ)·‖(I−γA)⁻¹·(x − γ·x') − x‖ = max(γ, h)·‖(I−γA)⁻¹·r‖
//
// in the units of the error r feeds into x(h) for a dissipative A: a slow
// mode accumulates its residual for at most h, a fast one (rate λ) only for
// 1/|λ|. It sees whether (V, H_m) still is a Krylov pair of A at y — a pair
// that rounding has turned into noise misses by the size of x itself — not
// whether y was evaluated accurately.
//
//matex:noalloc
func odeDefect(op *Op, ws *Workspace, beta, h float64, y []float64) float64 {
	n := op.N()
	ws.defX, ws.defXd, ws.defOut = growF(ws.defX, n), growF(ws.defXd, n), growF(ws.defOut, n)
	x, xd, out := ws.defX, ws.defXd, ws.defOut
	for i := range x {
		x[i], xd[i] = 0, 0
	}
	for a, ya := range y {
		axpy(x, beta*ya, ws.basis[a])
		axpy(xd, beta*ws.defHy[a], ws.basis[a])
	}
	want, scale := x, 1.0
	switch op.Mode {
	case Standard:
		op.Apply(out, x)
		want, scale = xd, h
	case Inverted:
		op.Apply(out, xd)
	case Rational:
		for i := range xd {
			xd[i] = x[i] - op.Gamma*xd[i]
		}
		op.Apply(out, xd)
		scale = math.Max(1, h/op.Gamma)
	}
	for i := range out {
		out[i] -= want[i]
	}
	return scale * norm2(out)
}

// hessSlice copies the leading m×m block of the growing Hessenberg into the
// workspace-backed slice buffer (the per-check analogue of Matrix.Slice
// without the allocation).
func hessSlice(ws *Workspace, hFull *dense.Matrix, m int) *dense.Matrix {
	ws.hhatBuf = growF(ws.hhatBuf, m*m)
	ws.hhatHdr = dense.Matrix{R: m, C: m, Data: ws.hhatBuf[:m*m]}
	for i := 0; i < m; i++ {
		copy(ws.hhatHdr.Data[i*m:(i+1)*m], hFull.Data[i*hFull.C:i*hFull.C+m])
	}
	// The buffer is valid until the next check; ConvertH never retains its
	// argument (it clones for Standard mode and builds fresh matrices for
	// the shifted modes), and the finalize path copies into subspace-held
	// scratch before storing.
	return &ws.hhatHdr
}

// errEstimate bounds the Krylov approximation error over the whole interval
// (0, h] — the subspace is reused for snapshots anywhere inside it. The ODE
// residual of the Krylov approximation is
//
//	r(s) = ‖v‖·ĥ_{m+1,m}·[e^{sH_m}e₁]_m·v_{m+1},
//
// and for a dissipative A the error is bounded by its time integral, which
// the φ₁ function gives in closed form:
//
//	err(h) ≤ ‖v‖·|ĥ_{m+1,m}|·|[h·φ₁(hH_m)·e₁]_m|.
//
// h·φ₁(hH)e₁ is the top-right block of exp([[hH, he₁],[0, 0]]) (the
// standard augmented-matrix trick). This integrated form degrades gracefully
// on stiff spectra where the endpoint value e_mᵀe^{hH}e₁ of the paper's
// Eq. 7 underflows and would declare false convergence; on converged
// subspaces the two agree in magnitude.
// The inverted and rational residuals (paper Eqs. 8 and 10) carry an extra
// operator factor — A·v_{m+1} and (I-γA)·v_{m+1}/γ respectively — whose norm
// cannot be formed without factorizing C. Following the spectral
// transformation algebra (H̃⁻¹ = I - γH_m for the rational space, Ĥ⁻¹ = H_m
// for the inverted one) we bound it by the corresponding projected norm.
// It also returns the approximation vector u = e^{hH_m}e₁ (the top-left
// block's first column of the augmented exponential), which the caller uses
// for a successive-difference convergence guard. The augmented matrix and
// the returned u live in scratch held on the Subspace, reused across checks;
// u is valid until the next call.
func (s *Subspace) errEstimateScratch(hm *dense.Matrix, hsub, beta, h float64) (float64, []float64, error) {
	m := hm.R
	aug := matrix(&s.scrAug, m+1, m+1)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			aug.Set(i, j, h*hm.At(i, j))
		}
	}
	aug.Set(0, m, h)
	e, err := dense.Expm(aug)
	if err != nil {
		return 0, nil, err
	}
	s.scrU = growF(s.scrU, m)
	u := s.scrU[:m]
	for i := 0; i < m; i++ {
		u[i] = e.At(i, 0)
	}
	// The inverted/rational residuals (Eqs. 8, 10) carry operator factors
	// (‖A·v_{m+1}‖, ‖(I-γA)·v_{m+1}‖/γ) that cannot be formed without
	// factorizing C and that amplify rounding noise in ĥ_{m+1,m} by ~‖A‖
	// near convergence. Following the paper's Sec. 3.3.3 we keep the
	// unscaled empirical form here; the caller guards it with a
	// successive-difference check, which covers the error carried by modes
	// outside the subspace.
	return beta * math.Abs(hsub) * math.Abs(e.At(m-1, m)), u, nil
}

// ErrEstimate evaluates the subspace's posterior error estimate at step h.
func (s *Subspace) ErrEstimate(h float64) (float64, error) {
	if s.beta == 0 {
		return 0, nil
	}
	if s.tri {
		s.scrU = growF(s.scrU, s.m)
		return s.estNu * spectralEstimate(s.q, s.mu, s.hsub, s.beta, h, s.scrU[:s.m]), nil
	}
	est, _, err := s.errEstimateScratch(s.hm, s.hsub, s.beta, h)
	return est, err
}

// EvalExp computes dst = ‖v‖·V_m·e^{hH_m}·e₁ ≈ e^{hA}·v. This is the
// snapshot-reuse path: for Arnoldi subspaces it costs one m×m expm plus one
// n×m multiply and no substitutions, for any h; for Lanczos subspaces the
// stored spectral decomposition reduces it to an O(m²) combination with no
// matrix exponential at all.
func (s *Subspace) EvalExp(h float64, dst []float64) error {
	if len(dst) != s.op.N() {
		return fmt.Errorf("krylov: EvalExp dst length %d != %d", len(dst), s.op.N())
	}
	if s.beta == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return nil
	}
	if s.tri {
		return s.evalSpectral(h, dst)
	}
	scaled := matrix(&s.scrHm, s.hm.R, s.hm.C)
	copy(scaled.Data, s.hm.Data)
	scaled.Scale(h)
	e, err := dense.Expm(scaled)
	if err != nil {
		return err
	}
	if s.op.Count != nil {
		s.op.Count.ExpmEvals++
	}
	for i := range dst {
		dst[i] = 0
	}
	for j := 0; j < s.m; j++ {
		c := s.beta * e.At(j, 0)
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return fmt.Errorf("krylov: %v subspace evaluation overflowed at h=%g", s.op.Mode, h)
		}
		if c == 0 {
			continue
		}
		axpy(dst, c, s.v[j])
	}
	return nil
}

// evalSpectral evaluates a Lanczos subspace through its eigendecomposition:
// dst = β·V·Q·diag(e^{hμ})·Qᵀ·e₁.
func (s *Subspace) evalSpectral(h float64, dst []float64) error {
	m := s.m
	s.evalC = growF(s.evalC, m)
	s.evalY = growF(s.evalY, m)
	c := s.evalC[:m]
	y := s.evalY[:m]
	for k := 0; k < m; k++ {
		c[k] = expMu(h, s.mu[k]) * s.q.At(0, k)
	}
	for i := 0; i < m; i++ {
		row := s.q.Data[i*s.q.C : i*s.q.C+m]
		var sum float64
		for k := 0; k < m; k++ {
			sum += row[k] * c[k]
		}
		y[i] = s.beta * sum
	}
	if s.op.Count != nil {
		s.op.Count.ExpmEvals++
	}
	for i := range dst {
		dst[i] = 0
	}
	for j := 0; j < m; j++ {
		if math.IsNaN(y[j]) || math.IsInf(y[j], 0) {
			return fmt.Errorf("krylov: %v subspace evaluation overflowed at h=%g", s.op.Mode, h)
		}
		if y[j] == 0 {
			continue
		}
		axpy(dst, y[j], s.v[j])
	}
	return nil
}

// checkSchedule decides when the next convergence check runs. Checks run
// every iteration until two finite estimates exist (the successive-
// difference guard needs two rounds to produce one, and the decay rate
// needs two finite points); after that the observed geometric decay is
// extrapolated to the dimension where the estimate should cross the
// tolerance, re-checking at most checkEvery dimensions later. Against the
// old always-check-below-30 rule this drops most of the O(m³) checks while
// barely overshooting the converged dimension.
type checkSchedule struct {
	next      int
	prevM     int
	prevWorst float64
}

// due reports whether dimension m should run a check.
func (cs *checkSchedule) due(m int) bool { return m >= cs.next }

// record notes the outcome of the check at dimension m and schedules the
// next one.
func (cs *checkSchedule) record(m int, worst float64, ok bool, opts Options) {
	if !ok || math.IsInf(worst, 1) || worst <= 0 {
		cs.next = m + 1 // no usable estimate yet: keep watching
		return
	}
	step := checkEvery
	if cs.prevM == 0 {
		step = 1 // one finite sample: need a second for the decay rate
	} else if m > cs.prevM && cs.prevWorst > worst {
		r := (math.Log(cs.prevWorst) - math.Log(worst)) / float64(m-cs.prevM)
		if r > 0 {
			if need := math.Ceil(math.Log(worst/opts.Tol) / r); need < float64(step) {
				if need < 1 {
					need = 1
				}
				step = int(need)
			}
		}
	}
	cs.prevM, cs.prevWorst = m, worst
	cs.next = m + step
}

// norm2 is the Euclidean norm of v, summed like dot.
//
//matex:noalloc
func norm2(v []float64) float64 {
	return math.Sqrt(dot(v, v))
}

// dot is the inner product of a and b over len(a) entries. It keeps four
// partial sums, one per entry index mod 4, combined as (s0+s1)+(s2+s3), so
// consecutive adds do not wait on each other; the order is a fixed function
// of the length.
//
//matex:noalloc
func dot(a, b []float64) float64 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	for len(a) >= 4 && len(b) >= 4 { // equal lengths; the second test drops the bounds checks
		s0 += a[0] * b[0]
		s1 += a[1] * b[1]
		s2 += a[2] * b[2]
		s3 += a[3] * b[3]
		a, b = a[4:], b[4:]
	}
	switch len(a) {
	case 3:
		s2 += a[2] * b[2]
		fallthrough
	case 2:
		s1 += a[1] * b[1]
		fallthrough
	case 1:
		s0 += a[0] * b[0]
	}
	return (s0 + s1) + (s2 + s3)
}

// axpy computes dst += alpha * x.
//
//matex:noalloc
func axpy(dst []float64, alpha float64, x []float64) {
	for i := range dst {
		dst[i] += alpha * x[i]
	}
}
