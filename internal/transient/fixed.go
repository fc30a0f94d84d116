package transient

import (
	"fmt"
	"math"
	"time"

	"github.com/matex-sim/matex/internal/circuit"
	"github.com/matex-sim/matex/internal/sparse"
)

// simulateFixed runs trapezoidal integration with a fixed step and a single
// factorization (the TAU-contest framework the paper compares against).
//
// When Tstop is not an integer multiple of Step, a shortened final step
// lands exactly on Tstop, so Result.Final is the state at Tstop and the
// distributed superposition of fixed-step subtasks stays time-consistent
// with the MATEX grid. The shortened step needs its own stepping matrix (one
// extra factorization, served from Options.Cache when present).
func simulateFixed(sys *circuit.System, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if opts.Step <= 0 || opts.Tstop <= 0 {
		return nil, fmt.Errorf("transient: fixed-step method needs positive Step and Tstop")
	}
	res := &Result{}
	x, _, err := initialState(sys, opts, &res.Stats)
	if err != nil {
		return nil, err
	}
	h := opts.Step
	n := sys.N

	// Split the window into nFull whole steps plus an optional remainder.
	// The small relative guard absorbs division noise so an exactly
	// divisible window never grows a spurious sliver step.
	nFull := int(opts.Tstop/h + 1e-9)
	if nFull < 0 {
		nFull = 0
	}
	rem := opts.Tstop - float64(nFull)*h
	if rem <= h*1e-9 {
		rem = 0
	}

	// stepOperators builds the step's LHS factorization (C/hs + G/2) and
	// RHS matrix (C/hs - G/2) for step size hs.
	stepOperators := func(hs float64) (sparse.Factorization, *sparse.CSC, error) {
		a, err := acquireFactorSum(1/hs, sys.C, 0.5, sys.G, opts, &res.Stats)
		if err != nil {
			return nil, nil, fmt.Errorf("transient: TR factorization: %w", err)
		}
		return a, sparse.Add(1/hs, sys.C, -0.5, sys.G), nil
	}

	tFac := time.Now()
	lhs, rhsMat, err := stepOperators(h)
	if err != nil {
		return nil, err
	}
	res.Stats.FactorTime = time.Since(tFac)

	tTr := time.Now()
	bu0 := make([]float64, n)
	bu1 := make([]float64, n)
	rhs := make([]float64, n)
	work := make([]float64, n)
	// bu0At is the time bu0 holds B·u for (NaN = none yet).
	bu0At := math.NaN()

	// step advances x from t0 to t1 with the given operators.
	step := func(t0, t1 float64, lhs sparse.Factorization, rhsMat *sparse.CSC) {
		// Step k's t1 is step k+1's t0 bit for bit (float64(k+1)·h), so the
		// previous step's end-point B·u is this step's start-point one; only
		// a t0 that differs in any bit is evaluated afresh.
		if t0 != bu0At {
			sys.EvalB(t0, bu0, opts.ActiveInputs)
		}
		sys.EvalB(t1, bu1, opts.ActiveInputs)
		rhsMat.MulVec(rhs, x)
		res.Stats.SpMVs++
		for i := range rhs {
			rhs[i] += 0.5 * (bu0[i] + bu1[i])
		}
		lhs.SolveWith(x, rhs, work)
		res.Stats.SolvePairs++
		bu0, bu1, bu0At = bu1, bu0, t1
		res.Stats.Steps++
		res.record(t1, x, &opts)
	}

	// Resuming re-enters the step loop at the checkpointed boundary: the
	// checkpoint time must sit on the step grid (checkpoints are only taken
	// at accepted full steps), and every sample at or before it was already
	// recorded by the interrupted run.
	k0 := 0
	cpr := newCheckpointer(&opts)
	if cp := opts.resumeFrom; cp != nil {
		k0 = int(cp.T/h + 0.5)
		if k0 < 0 || k0 > nFull || math.Abs(float64(k0)*h-cp.T) > h*1e-9 {
			return nil, fmt.Errorf("transient: checkpoint time %g is not on the h=%g step grid", cp.T, h)
		}
	} else {
		res.record(0, x, &opts)
	}
	for k := k0; k < nFull; k++ {
		if err := opts.cancelled(); err != nil {
			return nil, err
		}
		t0 := float64(k) * h
		t1 := float64(k+1) * h
		if k == nFull-1 && rem == 0 {
			t1 = opts.Tstop // land exactly on the window end
		}
		step(t0, t1, lhs, rhsMat)
		err := cpr.maybe(&res.Stats, func() Checkpoint {
			return Checkpoint{Method: TRFixed.Name(), T: t1, X: append([]float64(nil), x...)}
		})
		if err != nil {
			return nil, err
		}
	}
	if rem > 0 {
		tFac := time.Now()
		lhsRem, rhsRem, err := stepOperators(rem)
		if err != nil {
			return nil, err
		}
		res.Stats.FactorTime += time.Since(tFac)
		step(float64(nFull)*h, opts.Tstop, lhsRem, rhsRem)
	}
	res.Stats.TransientTime = time.Since(tTr)
	res.Final = append([]float64(nil), x...)
	return res, nil
}
