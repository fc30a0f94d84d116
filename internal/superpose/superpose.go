// Package superpose holds the one decision internal/dist and internal/sweep
// share: how the lane simulations of a linear superposition plan are fanned
// out and combined. The MNA system is linear in its inputs, so D-MATEX
// (x = x_DC + Σ_task x_task, paper Fig. 4) and the sweep's collinear sharing
// (x_m = x_sup + c_m·x_load) are the same object: lanes over one deck plus
// base + Σ coef·lane. What the lanes are — LTS-balanced source-group tasks,
// variant representatives — is the planners' business and stays there.
package superpose

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"github.com/matex-sim/matex/internal/transient"
)

// CheckBase rejects a shared option bundle that sets a field the engine
// assigns per lane: a hook there would fire per lane on a partial response.
func CheckBase(base *transient.Options) error {
	if base.OnSample != nil || base.OnCheckpoint != nil || base.ActiveInputs != nil {
		return errors.New("Base.OnSample/OnCheckpoint/ActiveInputs are engine-owned, set per lane")
	}
	return nil
}

// FanOut calls run once for every lane in [0, n) with at most limit calls in
// flight (limit < 1 is 1) and returns the results in lane order. The first
// error cancels the context the other lanes see and is the error returned.
// Every lane is started even after a cancellation — run must honour ctx
// itself — because a lane joined to a sparse.PanelBroker barrier has to
// reach its Leave or the lanes already parked there never wake.
func FanOut[T any](ctx context.Context, n, limit int, run func(ctx context.Context, lane int) (T, error)) ([]T, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		out      = make([]T, n)
		sem      = make(chan struct{}, max(1, limit))
		wg       sync.WaitGroup
		once     sync.Once
		firstErr error
	)
	for i := 0; i < n; i++ {
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			r, err := run(ctx, i)
			if err != nil {
				once.Do(func() {
					firstErr = err
					cancel()
				})
				return
			}
			out[i] = r
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// Term is one lane's share of a combination.
type Term struct {
	Lane *transient.Result
	Coef float64
}

// Combine evaluates base + Σ coef·lane over the probe rows and the final
// state, summing in term order so the result does not depend on which lane
// finished first. probes are the unknowns every row records; base (nil:
// none) is a constant state offset — D-MATEX's x_DC — entering row column k
// as base[probes[k]].
//
// A non-nil grid is the output time grid: a lane whose own times coincide
// with it is added sample by sample (the MATEX methods emit exactly the
// requested EvalTimes), any other lane — a fixed-step one on its step grid
// — is linearly interpolated onto it. A nil grid means the lanes' own
// shared grid; lanes that disagree on it are an error, since nothing says
// which one the caller wanted.
//
// The result aliases grid and, when it is exactly one lane times 1, that
// lane's rows and state; treat lane results as read-only afterwards.
func Combine(grid, base []float64, probes []int, terms []Term) (*transient.Result, error) {
	shared := grid == nil
	if shared {
		if len(terms) == 0 {
			return nil, errors.New("superpose: no grid and no lanes to take one from")
		}
		grid = terms[0].Lane.Times
		for _, t := range terms[1:] {
			if len(t.Lane.Times) != len(grid) {
				return nil, fmt.Errorf("superpose: lane grids diverged (%d vs %d samples)", len(grid), len(t.Lane.Times))
			}
		}
		if base == nil && len(terms) == 1 && terms[0].Coef == 1 {
			l := terms[0].Lane
			return &transient.Result{Times: l.Times, Probes: l.Probes, Final: l.Final}, nil
		}
	}

	res := &transient.Result{Times: grid}
	if len(probes) > 0 {
		res.Probes = make([][]float64, len(grid))
		for i := range res.Probes {
			res.Probes[i] = make([]float64, len(probes))
			if base != nil {
				for k, p := range probes {
					res.Probes[i][k] = base[p]
				}
			}
		}
	}
	if base != nil {
		res.Final = append([]float64(nil), base...)
	}
	row := make([]float64, len(probes)) // one interpolated sample
	for ti, term := range terms {
		lane, c := term.Lane, term.Coef
		// The row operation is chosen once per term. Without a base the first
		// term initialises instead of adding to zero, which would turn a
		// lane's -0 into +0.
		acc := addScaled
		if base == nil && ti == 0 {
			acc = setScaled
			res.Final = make([]float64, len(lane.Final))
		}
		switch {
		case len(probes) == 0: // final state only
		case shared || aligned(lane.Times, grid):
			if len(lane.Probes) < len(grid) {
				return nil, fmt.Errorf("superpose: lane %d recorded %d probe rows for %d samples", ti, len(lane.Probes), len(grid))
			}
			for i, dst := range res.Probes {
				acc(dst, lane.Probes[i], c)
			}
		default:
			for i, dst := range res.Probes {
				for k := range row {
					row[k] = lane.InterpProbe(grid[i], k)
				}
				acc(dst, row, c)
			}
		}
		n := min(len(res.Final), len(lane.Final))
		acc(res.Final[:n], lane.Final[:n], c)
	}
	return res, nil
}

// addScaled is dst += c·src and setScaled dst = c·src, over len(dst) entries.
func addScaled(dst, src []float64, c float64) {
	for k, x := range src[:len(dst)] {
		dst[k] += c * x
	}
}

func setScaled(dst, src []float64, c float64) {
	for k, x := range src[:len(dst)] {
		dst[k] = c * x
	}
}

// aligned reports whether a lane's output times are the grid, to rounding.
func aligned(times, grid []float64) bool {
	if len(times) != len(grid) {
		return false
	}
	for i, t := range grid {
		if math.Abs(times[i]-t) > 1e-15+1e-9*math.Abs(t) {
			return false
		}
	}
	return true
}
