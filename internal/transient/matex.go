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
// a segment's inputs b(t) = B·u(t) with slope s enter the step is picked per
// segment from what the run observes, as one of three treatments — a Krylov
// start vector plus an affine correction to every snapshot:
//
//   - Augmented, the default: the exact piecewise-linear-input solution
//     x(t+h) = e^{hA}x(t) + h·φ₁(hA)·b(t) + h²·φ₂(hA)·ḃ is the leading block
//     of e^{h·Ã}[x(t); 0; 1] on the (n+2) augmented matrix (see krylov.Op);
//     no correction.
//   - Constant shift, on slope-free segments of symmetric systems unless
//     Arnoldi is pinned: with x_ss = G⁻¹b the exact step is
//     e^{hA}(x - x_ss) + x_ss, a homogeneous subspace from [x-x_ss; 0; 0]
//     over an inert auxiliary chain — the configuration the symmetric
//     Lanczos fast path accepts. PDN inputs are flat outside their bump
//     ramps, so this covers most spots of a distributed zero-state subtask
//     and the quiet stretches of a single run.
//   - Eq. 5, the paper's literal x(t+h) = e^{hA}(x(t)+F) - P(h) over an
//     input-free operator, with w0 = G⁻¹b(t), w1 = G⁻¹s, r2 = G⁻¹(C·w1),
//     F = -w0 + r2 and P(h) = -(w0 + h·w1) + r2: always for I-MATEX (A⁻¹ has
//     no augmented form, Ã being singular) and for R-MATEX when C has empty
//     rows. It is the only correct treatment with algebraic nodes — the
//     exponential acts on the deviation x+F, whose algebraic content
//     vanishes, while the quasi-static P terms carry the algebraic values
//     exactly. Its intermediates scale with A⁻²ḃ, orders of magnitude above
//     the solution on stiff systems, and cancel catastrophically; that is
//     why nonsingular-C runs augment (the constant shift is the benign
//     slope-free case: no A⁻²ḃ term).
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

	// Operator factorization (X1 of Alg. 1).
	count := &krylov.Counters{}
	tFac := time.Now()
	var op *krylov.Op
	useEq5 := false
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
		useEq5 = true
	case RMATEX:
		fs, err := acquireFactorSum(1, sys.C, opts.Gamma, sys.G, opts, &res.Stats)
		if err != nil {
			return nil, fmt.Errorf("transient: factorizing (C+γG): %w", err)
		}
		op = krylov.NewRationalOp(fs, sys.C, sys.G, opts.Gamma, count)
		useEq5 = hasEmptyCRows(sys)
	default:
		return nil, fmt.Errorf("transient: SimulateMatex got %v", method)
	}
	op.SetSolveWorkers(opts.SolveWorkers)
	res.Stats.FactorTime += time.Since(tFac)

	// Time grid: the active inputs' transition spots (where subspaces must
	// be regenerated) merged with the requested output times.
	lts := gtsForMask(sys, opts)
	outs := evalGrid(sys, opts)
	grid := waveform.MergeSpots(append(append([]float64(nil), lts...), outs...), opts.Tstop, waveform.SpotEps, true)

	tTr := time.Now()
	defer func() {
		res.Stats.TransientTime = time.Since(tTr)
		res.Stats.addCounters(count)
	}()

	wsPool := opts.workspaces()
	ws := wsPool.Get()
	defer wsPool.Put(ws)

	bu0 := make([]float64, n)
	bu1 := make([]float64, n)
	slope := make([]float64, n)
	w0 := make([]float64, n)
	work := make([]float64, n)
	var w1, r2 []float64 // Eq. 5 only
	var mdst, msrc [2][]float64
	if useEq5 {
		w1 = make([]float64, n)
		r2 = make([]float64, n)
		mdst, msrc = [2][]float64{w0, w1}, [2][]float64{bu0, slope}
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
	cpr := newCheckpointer(&opts)
	if cp := opts.resumeFrom; cp != nil {
		// Resume at the checkpointed segment boundary: gi points at the last
		// grid point the interrupted run emitted, and the restored buScale
		// keeps the flatness tests (and hence the treatment decisions)
		// identical to the uninterrupted run's.
		tBase = cp.T
		buScale = cp.BuScale
		gi = sort.SearchFloat64s(grid, cp.T+waveform.SpotEps) - 1
		if gi < 0 {
			gi = 0
		}
	} else if waveform.ContainsSpot(outs, 0) {
		res.record(0, x, &opts)
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
		var maxDiff, maxBu0 float64
		for i := range slope {
			slope[i] = (bu1[i] - bu0[i]) / hSeg
			if d := math.Abs(bu1[i] - bu0[i]); d > maxDiff {
				maxDiff = d
			}
			if a := math.Abs(bu0[i]); a > maxBu0 {
				maxBu0 = a
			}
			if a := math.Abs(bu1[i]); a > buScale {
				buScale = a
			}
		}
		if maxBu0 > buScale {
			buScale = maxBu0
		}
		// Flatness is judged against the largest input magnitude seen so
		// far, not exact zero: waveform corner times carry last-bit
		// rounding, so a segment boundary can land a sliver inside a ramp
		// and leave ~1e-16-relative residue in bu. Treating that as slope
		// costs the exactness of the shifted path for nothing.
		slopeZero := maxDiff <= 1e-14*buScale
		buZero := maxBu0 <= 1e-14*buScale

		// The segment's input treatment: form the Krylov start vector here;
		// evalAt below applies the matching correction.
		shifted := false
		switch {
		case useEq5:
			// w0 and w1 are independent right-hand sides: one blocked panel
			// solve traverses the factor once for both when available; r2
			// depends on w1 and follows separately.
			if ms, ok := factG.(sparse.MultiSolver); ok {
				ms.SolveMulti(mdst[:], msrc[:])
			} else {
				solveWith(factG, w0, bu0, work, opts)
				solveWith(factG, w1, slope, work, opts)
			}
			sys.C.MulVec(r2, w1)
			solveWith(factG, r2, r2, work, opts)
			res.Stats.SolvePairs += 3
			res.Stats.SpMVs++
			for i := 0; i < n; i++ {
				v[i] = x[i] - w0[i] + r2[i] // x(t) + F
			}
		case slopeZero && opts.Krylov != krylov.MethodArnoldi && op.SymmetricMatrices():
			shifted = true
			if buZero {
				for i := range w0 {
					w0[i] = 0
				}
			} else {
				solveWith(factG, w0, bu0, work, opts)
				res.Stats.SolvePairs++
			}
			op.ClearSegment()
			for i := 0; i < n; i++ {
				v[i] = x[i] - w0[i]
			}
			v[n] = 0
			v[n+1] = 0
		default:
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
		if errors.Is(err, krylov.ErrNoConvergence) {
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
			// achievable accuracy at this stiffness (for Eq. 5, bounded by
			// its A⁻² input terms) is what gets measured.
			segEnd = half
		} else if err != nil {
			return nil, fmt.Errorf("transient: %v subspace at t=%g: %w", method, t, err)
		}

		// evalAt writes x(t+h) into xs[:n] by subspace reuse.
		evalAt := func(h float64) error {
			if err := sub.EvalExp(h, xs); err != nil {
				return fmt.Errorf("transient: %v at t=%g: %w", method, t+h, err)
			}
			switch {
			case useEq5:
				for i := 0; i < n; i++ {
					xs[i] += w0[i] + h*w1[i] - r2[i] // subtract P(h)
				}
			case shifted && !buZero:
				for i := 0; i < n; i++ {
					xs[i] += w0[i]
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
		err = cpr.maybe(&res.Stats, func() Checkpoint {
			return Checkpoint{Method: method.Name(), T: tBase, X: append([]float64(nil), x...), BuScale: buScale}
		})
		if err != nil {
			return nil, err
		}
	}
	res.Final = append([]float64(nil), x...)
	return res, nil
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
