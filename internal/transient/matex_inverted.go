package transient

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"github.com/matex-sim/matex/internal/circuit"
	"github.com/matex-sim/matex/internal/krylov"
	"github.com/matex-sim/matex/internal/sparse"
	"github.com/matex-sim/matex/internal/waveform"
)

var errInvertedHandledSeparately = errors.New("transient: internal: inverted mode routed to simulateMatexFP")

// simulateMatexFP runs a MATEX mode with the paper's literal Eq. 5
// formulation. It is the only correct path for systems with a singular C
// (algebraic nodes): the exponential acts on the deviation vector
// x(t)+F — whose algebraic content vanishes — while the quasi-static P
// terms carry the algebraic node values exactly. I-MATEX always uses this
// path (its operator has no augmented form); R-MATEX falls back to it when
// C has structurally empty rows. With piecewise-linear inputs, over a
// slope-constant segment starting at a transition spot t with s = d(B·u)/dt:
//
//	w0 = G⁻¹(B·u(t))   w1 = G⁻¹s   r2 = G⁻¹(C·w1)
//	F  = -w0 + r2                              (the paper's F(t,h), h-free)
//	P(ha) = -(w0 + ha·w1) + r2                 (the paper's P(t,h))
//	x(t+ha) = e^{ha·A}(x(t) + F) - P(ha)
//
// Note the F/P intermediates scale with A⁻²·ḃ, so on extremely stiff
// systems (slow eigenvalues near zero over the simulated window) they grow
// far beyond the solution and cancel; this is intrinsic to the Eq. 5 form,
// which is why the nonsingular-C R-MATEX path uses φ-functions on an
// augmented operator instead (see SimulateMatex).
func simulateMatexFP(sys *circuit.System, method Method, opts Options) (*Result, error) {
	res := &Result{}
	x, factG, err := initialState(sys, opts, &res.Stats)
	if err != nil {
		return nil, err
	}
	n := sys.N

	count := &krylov.Counters{}
	var op *krylov.Op
	switch method {
	case IMATEX:
		// No extra factorization: the operator reuses LU(G) from DC analysis.
		op = krylov.NewInvertedOp(factG, sys.C, sys.G, count)
	case RMATEX:
		tFac := time.Now()
		fs, err := acquireFactorSum(1, sys.C, opts.Gamma, sys.G, opts, &res.Stats)
		if err != nil {
			return nil, fmt.Errorf("transient: factorizing (C+γG): %w", err)
		}
		res.Stats.FactorTime += time.Since(tFac)
		op = krylov.NewRationalOp(fs, sys.C, sys.G, opts.Gamma, count)
		op.ClearSegment() // Eq. 5 handles inputs; the operator stays input-free
	default:
		return nil, fmt.Errorf("transient: simulateMatexFP got %v", method)
	}
	op.SetSolveWorkers(opts.SolveWorkers)

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
	w0 := make([]float64, n)
	w1 := make([]float64, n)
	r2 := make([]float64, n)
	slope := make([]float64, n)
	v := make([]float64, n)
	xe := make([]float64, n)
	vaug := make([]float64, n+2)
	xaug := make([]float64, n+2)
	work := make([]float64, n)
	var mdst, msrc [2][]float64
	hChecks := make([]float64, 0, 2)
	kopts := krylov.Options{MaxDim: opts.MaxDim, Tol: opts.Tol, Method: opts.Krylov, Workspace: ws}

	gi := 0
	tBase := 0.0
	cpr := newCheckpointer(&opts)
	if cp := opts.resumeFrom; cp != nil {
		// See SimulateMatex: resume at the checkpointed segment boundary with
		// gi pointing at the last emitted grid point. The Eq. 5 path has no
		// buScale accumulator — its input terms are rebuilt per segment.
		tBase = cp.T
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
		segEnd := opts.Tstop
		if nx, ok := waveform.NextSpot(lts, t); ok {
			segEnd = nx
		}
		if opts.MaxStep > 0 && segEnd > t+opts.MaxStep {
			segEnd = t + opts.MaxStep
		}
		sys.EvalB(t, bu0, opts.ActiveInputs)
		sys.EvalB(segEnd, bu1, opts.ActiveInputs)
		hSeg := segEnd - t
		for i := range slope {
			slope[i] = (bu1[i] - bu0[i]) / hSeg
		}
		// w0 and w1 are independent right-hand sides: one blocked panel
		// solve traverses the factor once for both when available; r2
		// depends on w1 and follows separately.
		if ms, ok := factG.(sparse.MultiSolver); ok {
			mdst[0], mdst[1] = w0, w1
			msrc[0], msrc[1] = bu0, slope
			ms.SolveMulti(mdst[:], msrc[:])
		} else {
			solveWith(factG, w0, bu0, work, opts)
			solveWith(factG, w1, slope, work, opts)
		}
		sys.C.MulVec(xe, w1)
		solveWith(factG, r2, xe, work, opts)
		res.Stats.SolvePairs += 3
		res.Stats.SpMVs++

		for i := range v {
			v[i] = x[i] - w0[i] + r2[i] // x(t) + F
		}
		hChecks = append(hChecks[:0], hSeg)
		if gi+1 < len(grid) && grid[gi+1] < segEnd-waveform.SpotEps {
			hChecks = append(hChecks, grid[gi+1]-t)
		}
		vop := v
		if op.N() == n+2 {
			copy(vaug[:n], v) // rational op: [v;0;0], aux chain stays inert
			vop = vaug
		}
		sub, err := krylov.Generate(op, vop, hChecks, kopts)
		if errors.Is(err, krylov.ErrNoConvergence) {
			res.Stats.Rejected++
			half := t + hSeg/2
			if gi+1 < len(grid) && grid[gi+1] < segEnd-waveform.SpotEps {
				half = grid[gi+1]
			}
			var err2 error
			hChecks = append(hChecks[:0], half-t)
			sub, err2 = krylov.Generate(op, vop, hChecks, kopts)
			if err2 != nil && (!errors.Is(err2, krylov.ErrNoConvergence) || sub == nil) {
				return nil, fmt.Errorf("transient: %v at t=%g even after split: %w", method, t, err2)
			}
			// Best-effort subspace: Eq. 5's A⁻² input terms limit the
			// achievable absolute accuracy on very stiff systems (see the
			// function comment); proceed and measure.
			segEnd = half
		} else if err != nil {
			return nil, fmt.Errorf("transient: %v subspace at t=%g: %w", method, t, err)
		}

		evalAt := func(ha float64) error {
			dst := xe
			if op.N() == n+2 {
				dst = xaug
			}
			if err := sub.EvalExp(ha, dst); err != nil {
				return fmt.Errorf("transient: %v at t=%g: %w", method, t+ha, err)
			}
			if op.N() == n+2 {
				copy(xe, xaug[:n])
			}
			for i := range xe {
				xe[i] += w0[i] + ha*w1[i] - r2[i] // subtract P(ha)
			}
			return nil
		}
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
				res.record(tp, xe, &opts)
			}
		}
		if lastEval < segEnd-waveform.SpotEps {
			if err := evalAt(segEnd - t); err != nil {
				return nil, err
			}
			res.Stats.Steps++
		}
		copy(x, xe)
		tBase = segEnd
		err = cpr.maybe(&res.Stats, func() Checkpoint {
			return Checkpoint{Method: method.Name(), T: tBase, X: append([]float64(nil), x...)}
		})
		if err != nil {
			return nil, err
		}
	}
	res.Final = append([]float64(nil), x...)
	return res, nil
}
