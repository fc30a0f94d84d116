package transient

import (
	"errors"
	"fmt"
	"math"
	"sort"
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

	// Operator factorization (X1 of Alg. 1).
	count := &krylov.Counters{}
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
	defer func() {
		res.Stats.TransientTime = time.Since(tTr)
		res.Stats.SolvePairs += res.Stats.InputPairs
		res.Stats.addCounters(count)
	}()

	wsPool := opts.workspaces()
	ws := wsPool.Get()
	defer wsPool.Put(ws)

	vec := func() []float64 { return make([]float64, n) }
	bu0, bu1, slope, work := vec(), vec(), vec(), vec()
	// Deviation state: q is q(tBase) whenever qOK says so, q1 the segment-end
	// value, w1 their slope and r2 = G⁻¹·C·w1. A DC start is x(0) = q(0).
	q, q1, w1, r2 := vec(), vec(), vec(), vec()
	qOK := opts.InitialState == nil && opts.resumeFrom == nil
	if qOK {
		copy(q, x)
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
	tiny := 0.0    // 1e-14·buScale: what counts as rounding residue in B·u
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
	// quasiStatic writes G⁻¹·bu into dst. An input within rounding of zero on
	// the run's scale is zero: no solve (a D-MATEX task outside its bumps).
	quasiStatic := func(dst, bu []float64, maxBu float64) {
		if maxBu <= tiny {
			clear(dst)
			return
		}
		factG.SolveWith(dst, bu, work)
		res.Stats.InputPairs++
	}
	for tBase < opts.Tstop-waveform.SpotEps {
		if err := opts.cancelled(); err != nil {
			return nil, err
		}
		t := tBase
		// Segment end: next LTS (or Tstop).
		segEnd := opts.Tstop
		if nx, ok := waveform.NextSpot(lts, t); ok {
			segEnd = nx
		}
		if opts.MaxStep > 0 && segEnd > t+opts.MaxStep {
			segEnd = t + opts.MaxStep
		}
		// Input terms on the slope-constant segment [t, segEnd].
		sys.EvalB(t, bu0, opts.ActiveInputs)
		sys.EvalB(segEnd, bu1, opts.ActiveInputs)
		hSeg := segEnd - t
		var maxDiff, maxBu0, maxBu1 float64
		for i := range slope {
			d := bu1[i] - bu0[i]
			slope[i] = d / hSeg
			maxDiff = maxAbs(maxDiff, d)
			maxBu0 = maxAbs(maxBu0, bu0[i])
			maxBu1 = maxAbs(maxBu1, bu1[i])
		}
		buScale = math.Max(buScale, math.Max(maxBu0, maxBu1))
		tiny = 1e-14 * buScale
		// Flatness is judged against the largest input magnitude seen so
		// far, not exact zero: waveform corner times carry last-bit
		// rounding, so a segment boundary can land a sliver inside a ramp
		// and leave ~1e-16-relative residue in bu. Treating that as slope
		// costs two input solves for nothing.
		flat := maxDiff <= tiny

		// The segment's input treatment: form the Krylov start vector here;
		// evalAt below applies the matching correction.
		deviation := devOnly || choose && (flat || devPairs > 0 && devPairs < augPairs)
		if deviation && (!qOK || maxBu0 <= tiny) {
			quasiStatic(q, bu0, maxBu0)
		}
		pairs0 := count.SolvePairs + res.Stats.InputPairs
		if deviation {
			res.Stats.DeviationSpots++
			if !flat {
				quasiStatic(q1, bu1, maxBu1)
				for i := range w1 {
					w1[i] = (q1[i] - q[i]) / hSeg
				}
				sys.C.MulVec(r2, w1)
				factG.SolveWith(r2, r2, work)
				res.Stats.InputPairs++
				res.Stats.SpMVs++
			}
			for i := range q {
				v[i] = x[i] - q[i]
				if !flat {
					v[i] += r2[i]
				}
			}
			op.ClearSegment()
			clear(v[n:])
		} else {
			op.SetSegment(bu0, slope)
			copy(v[:n], x)
			v[n] = 0
			v[n+1] = 1
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
		if cost := count.SolvePairs + res.Stats.InputPairs - pairs0; !deviation {
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
				for i := range q {
					xs[i] += q[i]
				}
			case deviation:
				for i := range q {
					xs[i] += q[i] + h*w1[i] - r2[i]
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
		if qOK = deviation && !split && (!flat || maxDiff == 0); qOK && !flat {
			q, q1 = q1, q
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
