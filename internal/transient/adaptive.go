package transient

import (
	"fmt"
	"math"
	"time"

	"github.com/matex-sim/matex/internal/circuit"
	"github.com/matex-sim/matex/internal/sparse"
	"github.com/matex-sim/matex/internal/waveform"
)

// quantizeStep snaps h down to the nearest point of the geometric grid
// href·(√2)^k, k ≥ 0. Snapping down keeps the LTE-chosen bound honored;
// quantizing at all makes recurring step sizes bit-identical, so a
// revisited step size is a hit in the run's factorization cache instead of
// a fresh factorization of (C/h + G/2).
func quantizeStep(h, href float64) float64 {
	if h <= href {
		return href
	}
	// log_√2(x) = 2·log2(x); floor puts q at or below h.
	k := math.Floor(2 * math.Log2(h/href))
	q := href * math.Pow(math.Sqrt2, k)
	for q > h {
		q /= math.Sqrt2
	}
	if q < href {
		q = href
	}
	return q
}

// simulateAdaptiveTR runs trapezoidal integration with local-truncation-error
// step control. Unlike the fixed-step framework, every step size it has not
// used before forces a factorization of (C/h + G/2) — exactly the cost the
// paper's MATEX avoids. Steps are clamped to the next input transition spot
// so slope discontinuities are never integrated across, and accepted step
// sizes are quantized to a geometric √2 grid so that recurring sizes share
// one factorization cache entry (Options.Cache).
func simulateAdaptiveTR(sys *circuit.System, opts Options) (*Result, error) {
	// The LTE target defaults from the caller's raw Tol: withDefaults would
	// fill in the MATEX budget 1e-6, too strict here and then no longer
	// distinguishable from an explicit request for it.
	relTol := opts.Tol
	if relTol <= 0 {
		relTol = 1e-4
	}
	const absTol = 1e-9
	opts = opts.withDefaults()
	if opts.Tstop <= 0 {
		return nil, fmt.Errorf("transient: adaptive TR needs positive Tstop")
	}

	res := &Result{}
	x, _, err := initialState(sys, opts, &res.Stats)
	if err != nil {
		return nil, err
	}
	n := sys.N
	gts := gtsForMask(sys, opts)

	h := opts.Step
	if h <= 0 {
		h = opts.Tstop / 1000
	}
	hMin := opts.Tstop * 1e-9

	tTr := time.Now()
	defer func() { res.Stats.TransientTime = time.Since(tTr) }()

	var lhs sparse.Factorization
	var rhsMat *sparse.CSC
	hFactored := -1.0
	refactor := func(hNew float64) error {
		t0 := time.Now()
		a, err := acquireFactorSum(1/hNew, sys.C, 0.5, sys.G, opts, &res.Stats)
		if err != nil {
			return fmt.Errorf("transient: TR re-factorization at h=%g: %w", hNew, err)
		}
		lhs = a
		rhsMat = sparse.Add(1/hNew, sys.C, -0.5, sys.G)
		hFactored = hNew
		res.Stats.FactorTime += time.Since(t0)
		return nil
	}

	bu0 := make([]float64, n)
	bu1 := make([]float64, n)
	rhs := make([]float64, n)
	work := make([]float64, n)
	xNew := make([]float64, n)
	var xPrev []float64
	hPrev := 0.0

	t := 0.0
	cpr := newCheckpointer(&opts)
	if cp := opts.resumeFrom; cp != nil {
		// Resume restores the full controller state — proposed step and the
		// accepted history the LTE predictor extrapolates through — so the
		// remaining step sequence is the uninterrupted run's.
		t = cp.T
		if cp.H > 0 {
			h = cp.H
		}
		hPrev = cp.HPrev
		if cp.XPrev != nil {
			xPrev = append([]float64(nil), cp.XPrev...)
		}
	} else {
		res.record(0, x, &opts)
	}
	for t < opts.Tstop-waveform.SpotEps {
		if err := opts.cancelled(); err != nil {
			return nil, err
		}
		// Quantize the controller's step onto the geometric grid, then
		// clamp to the next transition spot and the window end.
		hStep := quantizeStep(h, hMin)
		if next, ok := waveform.NextSpot(gts, t); ok && t+hStep > next {
			hStep = next - t
		}
		if t+hStep > opts.Tstop {
			hStep = opts.Tstop - t
		}
		if hStep < hMin {
			hStep = hMin
		}
		if hStep != hFactored {
			if err := refactor(hStep); err != nil {
				return nil, err
			}
		}
		// TR step.
		sys.EvalB(t, bu0, opts.ActiveInputs)
		sys.EvalB(t+hStep, bu1, opts.ActiveInputs)
		rhsMat.MulVec(rhs, x)
		res.Stats.SpMVs++
		for i := range rhs {
			rhs[i] += 0.5 * (bu0[i] + bu1[i])
		}
		lhs.SolveWith(xNew, rhs, work)
		res.Stats.SolvePairs++

		// LTE estimate: compare against the explicit linear predictor
		// through (x_prev, x); the divided-difference distance approximates
		// the local error of TR up to a modest constant.
		accept := true
		errRatio := 0.0
		if xPrev != nil && hPrev > 0 {
			for i := range xNew {
				pred := x[i] + (x[i]-xPrev[i])*hStep/hPrev
				scale := relTol*math.Max(math.Abs(xNew[i]), math.Abs(x[i])) + absTol
				if r := math.Abs(xNew[i]-pred) / scale; r > errRatio {
					errRatio = r
				}
			}
			accept = errRatio <= 1
		}
		if !accept && hStep > hMin {
			res.Stats.Rejected++
			h = hStep / 2
			continue
		}
		xPrev = append(xPrev[:0], x...)
		copy(x, xNew)
		hPrev = hStep
		t += hStep
		res.Stats.Steps++
		res.record(t, x, &opts)

		// Step-size controller (third-order error model for TR).
		grow := 2.0
		if errRatio > 0 {
			grow = 0.9 * math.Pow(errRatio, -1.0/3.0)
		}
		grow = math.Min(2.0, math.Max(0.3, grow))
		h = hStep * grow

		// Checkpoint after the controller update so the snapshot carries the
		// next proposed step, not the one just taken.
		err := cpr.maybe(&res.Stats, func() Checkpoint {
			return Checkpoint{
				Method: TRAdaptive.Name(),
				T:      t,
				X:      append([]float64(nil), x...),
				H:      h,
				HPrev:  hPrev,
				XPrev:  append([]float64(nil), xPrev...),
			}
		})
		if err != nil {
			return nil, err
		}
	}
	res.Final = append([]float64(nil), x...)
	return res, nil
}

// gtsForMask returns the transition spots of the active inputs.
func gtsForMask(sys *circuit.System, opts Options) []float64 {
	waves := sys.Waves()
	if opts.ActiveInputs != nil {
		var sel []waveform.Waveform
		for i, w := range waves {
			if opts.ActiveInputs[i] {
				sel = append(sel, w)
			}
		}
		waves = sel
	}
	return waveform.GTS(waves, opts.Tstop)
}
