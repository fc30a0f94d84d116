package transient

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"github.com/matex-sim/matex/internal/circuit"
	"github.com/matex-sim/matex/internal/krylov"
	"github.com/matex-sim/matex/internal/sparse"
	"github.com/matex-sim/matex/internal/waveform"
)

// SimulateMatex runs the MATEX circuit solver (paper Alg. 2) in standard
// (MEXP), inverted (I-MATEX) or rational (R-MATEX) mode: generate one Krylov
// subspace at a transition spot, evaluate every snapshot of the
// slope-constant segment from it by rescaling h — a small expm plus one n×m
// multiply, no substitutions, the source of the paper's km-vs-N substitution
// reduction — and move to the next spot. A mode is the operator its
// subspaces are built from: factor(C), the DC factor of G, factor(C+γG). How
// a segment's inputs b(t) = B·u(t) enter the step is one of two treatments —
// a Krylov start vector plus an affine correction to every snapshot:
//
//   - Augmented: the exact piecewise-linear-input solution
//     x(t+h) = e^{hA}x(t) + h·φ₁(hA)·b(t) + h²·φ₂(hA)·ḃ is the leading block
//     of e^{h·Ã}[x(t); 0; 1] on the (n+2) augmented matrix (see krylov.Op);
//     no correction, no input solves. Ã is unsymmetric (Arnoldi) and the
//     start vector is the state itself, β ≈ ‖x‖.
//   - Deviation, the paper's Eq. 5, x(t+h) = e^{hA}(x(t)+F) − P(h): with the
//     quasi-static q(t) = G⁻¹b(t), w1 = (q(t+h) − q(t))/h and
//     r2 = G⁻¹·C·w1, the start vector is [x − q + r2; 0; 0] over the
//     input-free operator — symmetric when C and G are, hence Lanczos, and
//     β is the millivolt deviation — and q + h·w1 − r2 is added to every
//     snapshot. q is carried from spot to spot (a DC start is q(0)),
//     so a ramp pays two G-solves, q(t+h) and r2, and a flat segment none;
//     q is kept only while it is bit for bit what a solve at the base time
//     would return, which is what lets a resumed run re-solve it. It is the
//     only correct treatment with algebraic nodes (the exponential acts on
//     the deviation, whose algebraic content vanishes; the quasi-static
//     terms carry the algebraic values exactly).
//
// I-MATEX (A⁻¹ has no augmented form, Ã being singular) and R-MATEX on a C
// with empty rows always take deviation. Unsymmetric systems and runs with
// Arnoldi pinned always augment. Otherwise flat segments take deviation and
// each ramp takes whichever treatment cost fewer substitution pairs the last
// time it ran — augmented: its Krylov dimension; deviation: dimension + the
// two input solves, also when the observation came from a flat segment, and
// never from a zero start vector's dimension-1 dummy — starting on
// augmented. Where both reach the convergence protocol's floor (m = 4 on a
// quasi-static PDN) the input solves are a pure loss and the run never
// leaves augmented; where the mesh time constants reach the segment scale
// deviation halves the dimension. Dense-output runs gain nothing either
// way: the small-h check, not β, sets their m. The A⁻²ḃ scale of r2 did not
// cost accuracy on 800 dense-oracle runs (EXPERIMENTS.md "Ramp segments on
// the deviation").
//
// A deviation ramp's input terms — q(t+h), w1, r2, and q(t) where it cannot
// be carried — depend on the inputs only, never on the state, so they are
// computed one segment ahead: just before a spot's subspace is generated, a
// helper goroutine fills the next segment's terms into buffers of its own
// whenever the cost rule as it stands would put the next ramp on the
// deviation. The next segment takes them only if its start, end, treatment
// and base q are the ones the helper assumed — a split or a choice that
// moved back to augmented computes them again inline — so every bit, count
// and checkpoint is the same as computing them in place; Stats.InputAhead
// and Stats.InputDiscarded say how many pairs came from the helper and how
// many it computed in vain. The helper is joined before the next segment
// and on every return.
func SimulateMatex(sys *circuit.System, method Method, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if opts.Tstop <= 0 {
		return nil, fmt.Errorf("transient: MATEX needs positive Tstop")
	}
	if sys.C.NNZ() == 0 {
		return nil, fmt.Errorf("transient: system has no dynamic elements (C is empty); the response is quasi-static — use DC analysis or a fixed-step method")
	}
	res := &Result{}
	x, factG, err := initialState(sys, opts, &res.Stats)
	if err != nil {
		return nil, err
	}
	n := sys.N
	// The t = 0 sample needs nothing but the DC operating point: it leaves
	// before the operator factorization, the largest fixed cost in front of
	// the first row. A resumed run's t = 0 row left in its first life.
	outs := evalGrid(sys, opts)
	if opts.resumeFrom == nil && waveform.ContainsSpot(outs, 0) {
		res.record(0, x, &opts)
	}

	// Operator factorization (X1 of Alg. 1). The operator counts its work
	// straight into the run's Stats.
	count := &res.Stats.Counters
	tFac := time.Now()
	var op *krylov.Op
	devOnly := false // no augmented form to choose
	switch method {
	case MEXP:
		fc, err := factorC(sys, opts, &res.Stats)
		if err != nil {
			return nil, err
		}
		op = krylov.NewStandardOp(fc, sys.C, sys.G, count)
		if res.Stats.Regularized {
			// The factorized matrix is C+δI, not the stamped C: the
			// C-inner-product identities behind the Lanczos fast path no
			// longer hold exactly, so pin this run to Arnoldi.
			op.SetSymmetric(false)
		}
		if opts.MaxStep <= 0 {
			// The standard subspace degrades once h·‖A‖ grows past a few
			// hundred; clamp the step from a cheap row-wise bound on
			// ‖C⁻¹G‖ (capped so pathological spectra cannot demand
			// unbounded step counts). I-/R-MATEX need no such clamp — that
			// is the point of the spectral transforms.
			if normA := roughNormA(sys); normA > 0 {
				opts.MaxStep = math.Max(300/normA, opts.Tstop/20000)
			}
		}
	case IMATEX:
		// No extra factorization: the operator reuses LU(G) from DC analysis.
		op = krylov.NewInvertedOp(factG, sys.C, sys.G, count)
		devOnly = true
	case RMATEX:
		fs, err := acquireFactorSum(1, sys.C, opts.Gamma, sys.G, opts, &res.Stats)
		if err != nil {
			return nil, fmt.Errorf("transient: factorizing (C+γG): %w", err)
		}
		op = krylov.NewRationalOp(fs, sys.C, sys.G, opts.Gamma, count)
		devOnly = hasEmptyCRows(sys)
	default:
		return nil, fmt.Errorf("transient: SimulateMatex got %v", method)
	}
	res.Stats.FactorTime += time.Since(tFac)
	// Where both treatments exist, deviation is worth having only for its
	// Lanczos path: symmetric matrices, Arnoldi not pinned.
	choose := !devOnly && opts.Krylov != krylov.MethodArnoldi && op.SymmetricMatrices()

	// Time grid: the active inputs' transition spots (where subspaces must
	// be regenerated) merged with the requested output times.
	lts := gtsForMask(sys, opts)
	grid := waveform.MergeSpots(append(append([]float64(nil), lts...), outs...), opts.Tstop, waveform.SpotEps, true)

	tTr := time.Now()
	defer func() { res.Stats.TransientTime = time.Since(tTr) }()

	ws := krylov.DefaultWorkspaces.Get()
	defer krylov.DefaultWorkspaces.Put(ws)

	// The segment's input terms. cur is the one the loop integrates with;
	// ahead is spare while the helper fills it with the next segment's
	// (spare is allocated on the first launch, so a run whose ramps stay
	// augmented allocates nothing for it). No return leaves the helper
	// running.
	cur := newSegInputs(n)
	var spare, ahead *segInputs
	var helper sync.WaitGroup
	defer helper.Wait()
	// q is q(tBase) whenever qOK says so; a DC start is x(0) = q(0).
	qOK := opts.InitialState == nil && opts.resumeFrom == nil
	if qOK {
		copy(cur.q, x)
	}
	// Krylov start vector and snapshot, in the operator's space: length n
	// for the inverted operator, n+2 (the auxiliary chain) for the others.
	v := make([]float64, op.N())
	xs := make([]float64, op.N())
	hChecks := make([]float64, 0, 2)
	kopts := krylov.Options{MaxDim: opts.MaxDim, Tol: opts.Tol, Method: opts.Krylov, Workspace: ws}

	gi := 0        // index of the last emitted output grid point
	tBase := 0.0   // time of the current base state x
	buScale := 0.0 // largest |B·u| endpoint magnitude seen so far
	// Substitution pairs a ramp cost under each treatment the last time it
	// ran (0: not yet) — all the state the per-segment choice has.
	augPairs, devPairs := 0, 0
	cpr := newCheckpointer(&opts)
	if cp := opts.resumeFrom; cp != nil {
		// Resume at the checkpointed segment boundary: gi points at the last
		// grid point the interrupted run emitted, and the restored buScale
		// and pair counts keep the flatness tests and the treatment choices
		// identical to the uninterrupted run's (q is solved afresh).
		tBase, buScale, augPairs, devPairs = cp.T, cp.BuScale, cp.AugPairs, cp.DevPairs
		gi = sort.SearchFloat64s(grid, cp.T+waveform.SpotEps) - 1
		if gi < 0 {
			gi = 0
		}
	}
	// segmentEnd is the end of the slope-constant segment starting at t: the
	// next LTS (or Tstop), capped by MaxStep.
	segmentEnd := func(t float64) float64 {
		end := opts.Tstop
		if nx, ok := waveform.NextSpot(lts, t); ok {
			end = nx
		}
		if opts.MaxStep > 0 && end > t+opts.MaxStep {
			end = t + opts.MaxStep
		}
		return end
	}
	// deviates is the treatment rule: a segment takes deviation when it has
	// no augmented form to choose, or — where both exist — when it is flat
	// or it is a ramp and deviation cost fewer pairs the last time
	// (rampDev).
	deviates := func(flat, rampDev bool) bool { return devOnly || choose && (flat || rampDev) }
	// fill computes the input terms of the segment [t, segEnd] into in — the
	// one place they are computed, inline or one segment ahead — after a run
	// whose largest |B·u| so far is buScale. carried says in.q already holds
	// q(t) bit for bit.
	fill := func(in *segInputs, t, segEnd, buScale float64, rampDev, carried bool) {
		sys.EvalB(t, in.bu0, opts.ActiveInputs)
		sys.EvalB(segEnd, in.bu1, opts.ActiveInputs)
		hSeg := segEnd - t
		var maxDiff, maxBu0, maxBu1 float64
		for i := range in.slope {
			d := in.bu1[i] - in.bu0[i]
			in.slope[i] = d / hSeg
			maxDiff = maxAbs(maxDiff, d)
			maxBu0 = maxAbs(maxBu0, in.bu0[i])
			maxBu1 = maxAbs(maxBu1, in.bu1[i])
		}
		in.t, in.maxDiff = t, maxDiff
		in.buScale = math.Max(buScale, math.Max(maxBu0, maxBu1))
		// Flatness is judged against the largest input magnitude seen so
		// far, not exact zero: waveform corner times carry last-bit
		// rounding, so a segment boundary can land a sliver inside a ramp
		// and leave ~1e-16-relative residue in bu. Treating that as slope
		// costs two input solves for nothing.
		tiny := 1e-14 * in.buScale
		in.flat = maxDiff <= tiny
		in.deviation = deviates(in.flat, rampDev)
		in.basePairs, in.rampPairs = 0, 0
		if !in.deviation {
			return
		}
		if !carried || maxBu0 <= tiny {
			in.basePairs = in.quasiStatic(factG, in.q, in.bu0, maxBu0 <= tiny)
		}
		if in.flat {
			return
		}
		in.rampPairs = in.quasiStatic(factG, in.q1, in.bu1, maxBu1 <= tiny)
		for i := range in.w1 {
			in.w1[i] = (in.q1[i] - in.q[i]) / hSeg
		}
		sys.C.MulVec(in.r2, in.w1)
		factG.SolveWith(in.r2, in.r2, in.work)
		in.rampPairs++
	}
	for tBase < opts.Tstop-waveform.SpotEps {
		if err := opts.cancelled(); err != nil {
			return nil, err
		}
		t := tBase
		segEnd := segmentEnd(t)
		rampDev := devPairs > 0 && devPairs < augPairs
		// Input terms on the slope-constant segment [t, segEnd]: the
		// helper's, when they are this segment's under this treatment, else
		// computed here. The helper started at the previous segment's
		// planned end, which t is only when that segment was not split; then
		// segEnd = segmentEnd(t) and the carried q are the ones it assumed.
		helper.Wait()
		if nx := ahead; nx != nil && nx.t == t && nx.deviation == deviates(nx.flat, rampDev) {
			cur, spare = nx, cur
			res.Stats.InputAhead += nx.basePairs + nx.rampPairs
		} else {
			if nx != nil {
				res.Stats.InputDiscarded += nx.basePairs + nx.rampPairs
			}
			fill(cur, t, segEnd, buScale, rampDev, qOK)
		}
		ahead = nil
		in := cur
		hSeg := segEnd - t
		buScale = in.buScale
		flat, deviation := in.flat, in.deviation

		// The segment's input treatment: form the Krylov start vector here;
		// evalAt below applies the matching correction.
		res.Stats.InputPairs += in.basePairs
		res.Stats.SolvePairs += in.basePairs
		pairs0 := res.Stats.SolvePairs
		if deviation {
			res.Stats.DeviationSpots++
			if !flat {
				res.Stats.InputPairs += in.rampPairs
				res.Stats.SolvePairs += in.rampPairs
				res.Stats.SpMVs++
			}
			for i := range in.q {
				v[i] = x[i] - in.q[i]
				if !flat {
					v[i] += in.r2[i]
				}
			}
			op.ClearSegment()
			clear(v[n:])
		} else {
			op.SetSegment(in.bu0, in.slope)
			copy(v[:n], x)
			v[n] = 0
			v[n+1] = 1
		}

		// The next segment's input terms go to the helper while this spot's
		// subspace is generated, when the cost rule as it stands puts the
		// next ramp on the deviation — the only treatment with input solves.
		// It assumes this segment is not split: q(segEnd) is then q1 after a
		// ramp and q after an exactly flat segment.
		if segEnd < opts.Tstop-waveform.SpotEps && deviates(false, rampDev) {
			if spare == nil {
				spare = newSegInputs(n)
			}
			var qEnd []float64
			if deviation && !flat {
				qEnd = in.q1
			} else if deviation && in.maxDiff == 0 {
				qEnd = in.q
			}
			ahead = spare
			helper.Add(1)
			go func(nx *segInputs, t, buScale float64) {
				defer helper.Done()
				if qEnd != nil {
					copy(nx.q, qEnd)
				}
				fill(nx, t, segmentEnd(t), buScale, rampDev, qEnd != nil)
			}(spare, segEnd, buScale)
		}

		// The subspace must be accurate at the segment end and at the first
		// interior output (the smallest reuse step).
		hChecks = append(hChecks[:0], hSeg)
		if gi+1 < len(grid) && grid[gi+1] < segEnd-waveform.SpotEps {
			hChecks = append(hChecks, grid[gi+1]-t)
		}
		sub, err := krylov.Generate(op, v, hChecks, kopts)
		split := errors.Is(err, krylov.ErrNoConvergence)
		if split {
			// Split the segment: step only to the next grid point (or half
			// the segment) and regenerate there. Counted as a rejection.
			res.Stats.Rejected++
			half := t + hSeg/2
			if gi+1 < len(grid) && grid[gi+1] < segEnd-waveform.SpotEps {
				half = grid[gi+1]
			}
			var err2 error
			hChecks = append(hChecks[:0], half-t)
			sub, err2 = krylov.Generate(op, v, hChecks, kopts)
			if err2 != nil && (!errors.Is(err2, krylov.ErrNoConvergence) || sub == nil) {
				return nil, fmt.Errorf("transient: %v at t=%g even after split: %w", method, t, err2)
			}
			// A non-converged full-depth subspace is used best-effort: the
			// achievable accuracy at this stiffness is what gets measured.
			segEnd = half
		} else if err != nil {
			return nil, fmt.Errorf("transient: %v subspace at t=%g: %w", method, t, err)
		}
		// What this spot cost, for the next ramp's choice. A deviation spot
		// is booked at a ramp's price (r2 and q1) even when it was flat, and
		// not at all when its start vector was zero (a dimension-1 dummy).
		if cost := res.Stats.SolvePairs - pairs0; !deviation {
			augPairs = cost
		} else if sub.Beta() != 0 {
			devPairs = cost
			if flat {
				devPairs += 2
			}
		}

		// evalAt writes x(t+h) into xs[:n] by subspace reuse.
		evalAt := func(h float64) error {
			if err := sub.EvalExp(h, xs); err != nil {
				return fmt.Errorf("transient: %v at t=%g: %w", method, t+h, err)
			}
			switch {
			case deviation && flat:
				for i := range in.q {
					xs[i] += in.q[i]
				}
			case deviation:
				for i := range in.q {
					xs[i] += in.q[i] + h*in.w1[i] - in.r2[i]
				}
			}
			return nil
		}

		// Evaluate every output grid point in (t, segEnd] by subspace reuse,
		// then advance the base state to segEnd.
		lastEval := -1.0
		for gi+1 < len(grid) && grid[gi+1] <= segEnd+waveform.SpotEps {
			gi++
			tp := grid[gi]
			if err := evalAt(tp - t); err != nil {
				return nil, err
			}
			lastEval = tp
			res.Stats.Steps++
			if waveform.ContainsSpot(outs, tp) {
				res.record(tp, xs[:n], &opts)
			}
		}
		if lastEval < segEnd-waveform.SpotEps {
			if err := evalAt(segEnd - t); err != nil {
				return nil, err
			}
			res.Stats.Steps++
		}
		copy(x, xs[:n])
		tBase = segEnd
		// q(segEnd) is known when it is bit for bit what a solve there would
		// give: q1 after an unsplit ramp, q itself when B·u did not move.
		if qOK = deviation && !split && (!flat || in.maxDiff == 0); qOK && !flat {
			in.q, in.q1 = in.q1, in.q
		}
		err = cpr.maybe(&res.Stats, func() Checkpoint {
			return Checkpoint{Method: method.Name(), T: tBase, X: append([]float64(nil), x...), BuScale: buScale, AugPairs: augPairs, DevPairs: devPairs}
		})
		if err != nil {
			return nil, err
		}
	}
	res.Final = append([]float64(nil), x...)
	return res, nil
}

// segInputs is one segment's input terms b(t) = B·u(t) on [t, segEnd], with
// buffers of its own: the loop integrates from one while the helper fills
// another for the next segment.
type segInputs struct {
	t               float64
	bu0, bu1, slope []float64 // B·u at both ends and its slope
	maxDiff         float64   // largest |bu1 − bu0|
	buScale         float64   // the run's largest |B·u| through this segment
	flat, deviation bool
	// Deviation terms: q = q(t), q1 = q(segEnd), w1 = (q1 − q)/h and
	// r2 = G⁻¹·C·w1; work is their solves' workspace.
	q, q1, w1, r2, work []float64
	// G-solves paid here: basePairs for q, rampPairs for q1 and r2.
	basePairs, rampPairs int
}

func newSegInputs(n int) *segInputs {
	vec := func() []float64 { return make([]float64, n) }
	return &segInputs{bu0: vec(), bu1: vec(), slope: vec(), q: vec(), q1: vec(), w1: vec(), r2: vec(), work: vec()}
}

// quasiStatic writes G⁻¹·bu into dst and returns the substitution pairs it
// cost. An input within rounding of zero on the run's scale is zero: no
// solve (a D-MATEX task outside its bumps).
func (in *segInputs) quasiStatic(factG sparse.Factorization, dst, bu []float64, zero bool) int {
	if zero {
		clear(dst)
		return 0
	}
	factG.SolveWith(dst, bu, in.work)
	return 1
}

// factorC factorizes C, regularizing a singular C with a small diagonal
// shift (the concession MEXP needs; paper Sec. 3.3.3).
func factorC(sys *circuit.System, opts Options, stats *Stats) (sparse.Factorization, error) {
	fc, err := acquireFactor(sys.C, opts, stats)
	if err == nil {
		return fc, nil
	}
	if !errors.Is(err, sparse.ErrSingular) {
		return nil, fmt.Errorf("transient: factorizing C: %w", err)
	}
	delta := 1e-9 * sys.C.OneNorm()
	if delta == 0 {
		delta = 1e-18
	}
	fc, err = acquireFactorSum(1, sys.C, delta, sparse.Identity(sys.N), opts, stats)
	if err != nil {
		return nil, fmt.Errorf("transient: regularized C still singular: %w", err)
	}
	stats.Regularized = true
	return fc, nil
}

// maxAbs is math.Max(m, math.Abs(v)) for a running maximum m (≥ 0 or NaN)
// without the two calls per unknown: the same bits for every finite or
// infinite v, and a NaN on either side stays a NaN (math.Max would let a +Inf
// on the other side win; neither is an input the run survives).
func maxAbs(m, v float64) float64 {
	if v = math.Abs(v); v > m || v != v {
		return v
	}
	return m
}

// hasEmptyCRows reports whether some unknown has no capacitive/inductive
// coupling at all (an algebraic DAE variable).
func hasEmptyCRows(sys *circuit.System) bool {
	seen := make([]bool, sys.N)
	for _, i := range sys.C.Rowidx {
		seen[i] = true
	}
	for _, ok := range seen {
		if !ok {
			return true
		}
	}
	return false
}

// roughNormA bounds ‖A‖∞ = ‖C⁻¹G‖∞ row-wise for diagonal-dominant C: the
// i-th row contributes (Σ_j |G_ij|)/|C_ii|. Rows without a C diagonal are
// skipped (their dynamics are algebraic). Returns 0 when nothing usable.
func roughNormA(sys *circuit.System) float64 {
	cd := sys.C.Diag()
	rowAbs := make([]float64, sys.N)
	for j := 0; j < sys.G.Cols; j++ {
		for p := sys.G.Colptr[j]; p < sys.G.Colptr[j+1]; p++ {
			rowAbs[sys.G.Rowidx[p]] += math.Abs(sys.G.Values[p])
		}
	}
	var norm float64
	for i := 0; i < sys.N; i++ {
		if cd[i] == 0 {
			continue
		}
		if r := rowAbs[i] / math.Abs(cd[i]); r > norm {
			norm = r
		}
	}
	return norm
}
