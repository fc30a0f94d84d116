package krylov

import (
	"errors"
	"fmt"
	"math"
)

// breakdownTol declares a happy breakdown when the next basis vector's norm
// falls below this fraction of the operator's answer.
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

// workspace returns the caller's arena, or a private one.
func (o Options) workspace() *Workspace {
	if o.Workspace == nil {
		return &Workspace{}
	}
	return o.Workspace
}

// checkEvery is the largest stride between convergence checks once an
// estimate trend is established (two successful estimate rounds); before
// that the check runs every iteration.
const checkEvery = 5

// process is one Krylov recurrence, Arnoldi or Lanczos, as the convergence
// protocol of generate drives it. Its state lives on the Workspace it was
// made from, whose basis holds the vectors and whose sub is the Subspace
// being generated.
type process interface {
	// start normalizes v into the first basis vector, readies the
	// recurrence for up to maxDim vectors and returns the norm of v; on a
	// zero v nothing more is called.
	start(v []float64, maxDim int) float64
	// step applies the operator to v_j and orthogonalizes the answer
	// against the basis. It returns the norm of what is left (the next
	// subdiagonal entry) and the size of the answer before; scale is
	// non-finite, and nothing else was done, when the answer is.
	step(j int) (resid, scale float64)
	// extend forms v_{j+1} from what step left unless the basis is
	// exhausted; last says whether the dimension ends here.
	extend(j int, last, exhausted bool)
	// project forms the projection of A at dimension m.
	project(m int) error
	// estimate returns the posterior error estimate at step h for the
	// projection at dimension m and the coefficients u = e^{hH_m}e₁.
	estimate(m int, h float64) (est float64, u []float64, err error)
	// change is the size of u − prev in the caller's units, per unit of
	// the start vector's norm.
	change(u, prev []float64) float64
	// derivative writes H_m·y into the workspace's defHy, for y = e^{hH_m}e₁.
	derivative(h float64, y []float64)
	// confirms reports whether a passing estimate must pass again at the
	// next check before the subspace is accepted.
	confirms() bool
	// install puts the representation at dimension m on the subspace.
	install(m int)
}

// generate grows a Krylov subspace for e^{hA}·v through p until the
// posterior error estimate at every step in hCheck is below opts.Tol (paper
// Alg. 1, with the estimates of Eqs. 7, 8, 10).
func generate(p process, ws *Workspace, op *Op, v []float64, hCheck []float64, opts Options) (*Subspace, error) {
	n := op.N()
	opts = opts.withDefaults(n)
	if len(v) != n {
		return nil, fmt.Errorf("krylov: starting vector length %d != operator dimension %d", len(v), n)
	}
	if len(hCheck) == 0 {
		return nil, errors.New("krylov: no step sizes to check")
	}
	sub := ws.resetSub(op)
	beta := p.start(v, opts.MaxDim)
	sub.beta = beta
	if beta == 0 {
		// Zero starting vector: e^{hA}·0 = 0; a dimension-1 dummy keeps the
		// caller's bookkeeping simple.
		v0 := vec(&ws.basis, 0, n)
		for i := range v0 {
			v0[i] = 0
		}
		sub.m, sub.v = 1, ws.basis[:1]
		if op.Count != nil {
			op.Count.Dims = append(op.Count.Dims, 1)
		}
		return sub, nil
	}
	ws.prepPrevU(len(hCheck), opts.MaxDim)
	havePrev := false
	// Best-effort fallback state: the dimension with the smallest estimate
	// seen, used when the tolerance is unreachable.
	bestWorst := math.Inf(1)
	bestM := 0
	sched := checkSchedule{}
	// confirmPending holds a passing estimate of a confirming process until
	// the next check passes too.
	confirmPending := false

	for j := 0; j < opts.MaxDim; j++ {
		resid, scale := p.step(j)
		if math.IsNaN(scale) || math.IsInf(scale, 0) {
			return nil, fmt.Errorf("krylov: %v operator produced a non-finite vector at dimension %d (system too stiff for this subspace; use I-MATEX or R-MATEX)", op.Mode, j+1)
		}
		m := j + 1
		// The iteration may end here: a happy breakdown (the subspace is
		// invariant, the projection exact) or a basis that spans the whole
		// space (the projection is a similarity). Both statements are about
		// exact arithmetic. A dimension that ran up to n because the
		// posterior estimate stalled above the budget has divided by a
		// rounding-level residual on the way and its projection can be
		// noise, and the breakdown threshold is absolute for an operator of
		// small norm (A⁻¹ on a PDN is ~1e-13), so this dimension is accepted
		// like any other — on a passing estimate — or on an explicit
		// residual check (odeDefect), never on its own. A declared breakdown
		// that neither vouches for carries on to v_{m+1}: the residual was
		// only small in absolute terms.
		exhausted := m == n || resid == 0
		last := exhausted || resid <= breakdownTol*(1+scale)
		p.extend(j, last, exhausted)

		final := last || m == opts.MaxDim
		if opts.ForceDim && !final {
			continue
		}
		// Check every iteration until an estimate trend is established, then
		// extrapolate the geometric decay to the projected tolerance
		// crossing, rechecking at most checkEvery dimensions later: the
		// O(m³) check is the dominant non-solve cost at small m, and a
		// fixed stride would instead overshoot the converged dimension.
		if !(final || confirmPending || sched.due(m)) {
			continue
		}
		if err := p.project(m); err != nil {
			if final {
				return nil, err
			}
			continue // singular leading block can resolve at higher m
		}
		worst := 0.0
		ok := m >= 2 || final
		if ok {
			for k, h := range hCheck {
				est, u, err := p.estimate(m, h)
				if err != nil || math.IsNaN(est) {
					ok = false
					break
				}
				// Guard the residual bound with the change between this and
				// the previously checked approximation: projected residuals
				// can miss error carried by fast modes outside the subspace
				// (inverted/rational spaces capture slow modes first).
				if havePrev {
					if d := beta * p.change(u, ws.prevU[k]); d > est {
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
				}
			}
		}
		sched.record(m, worst, ok, opts)
		if opts.ForceDim {
			return finish(p, ws, m), nil
		}
		accept := ok && worst <= opts.Tol
		if last && ok && !accept {
			// The successive-difference guard measures the previous check,
			// not an exhausted space; ask the operator itself.
			accept = true
			ws.defHy = growF(ws.defHy, m)
			for k, h := range hCheck {
				y := ws.prevU[k][:m]
				p.derivative(h, y)
				if d := odeDefect(op, ws, beta, h, y); !(d <= opts.Tol) {
					accept = false
					break
				}
			}
		}
		if accept && (confirmPending || final || !p.confirms()) {
			return finish(p, ws, m), nil
		}
		confirmPending = accept
		if exhausted {
			break // nothing vouches for the projection and there is no next vector
		}
	}
	// Best effort: hand back the subspace at the dimension with the smallest
	// estimate seen, along with the error, so callers can proceed with the
	// achievable accuracy after exhausting their step-splitting options.
	if bestM == 0 || p.project(bestM) != nil {
		return nil, fmt.Errorf("%w (dim %d, tol %g)", ErrNoConvergence, opts.MaxDim, opts.Tol)
	}
	return finish(p, ws, bestM), fmt.Errorf("%w (best dim %d, estimate %.3g, tol %g)", ErrNoConvergence, bestM, bestWorst, opts.Tol)
}

// finish hands back the workspace's subspace at dimension m, projected.
func finish(p process, ws *Workspace, m int) *Subspace {
	sub := &ws.sub
	sub.m, sub.v = m, ws.basis[:m]
	p.install(m)
	if op := sub.op; op.Count != nil {
		op.Count.Dims = append(op.Count.Dims, m)
	}
	return sub
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

// checkSchedule decides when the next convergence check runs. Checks run
// every iteration until two finite estimates exist (the successive-
// difference guard needs two rounds to produce one, and the decay rate
// needs two finite points); after that the observed geometric decay is
// extrapolated to the dimension where the estimate should cross the
// tolerance, re-checking at most checkEvery dimensions later. That skips
// most of the O(m³) checks while barely overshooting the converged
// dimension.
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
