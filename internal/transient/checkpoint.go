package transient

import (
	"fmt"
	"math"

	"github.com/matex-sim/matex/internal/circuit"
	"github.com/matex-sim/matex/internal/krylov"
	"github.com/matex-sim/matex/internal/waveform"
)

// Checkpoint is a restartable snapshot of an integrator mid-waveform: the
// durable job journal persists one every Options.CheckpointEvery accepted
// steps, and Resume re-enters the integration loop from it after a crash.
// The snapshot is exact — the state vector plus the controller state each
// method needs — so a resumed run emits the same remaining samples as the
// uninterrupted run (bit-identical when the snapshot round-trips losslessly,
// as Go's JSON float64 encoding does).
type Checkpoint struct {
	// Method is the canonical method name (Method.Name()); Resume rejects a
	// checkpoint taken by a different integrator.
	Method string `json:"method"`
	// T is the simulated time of the snapshot; X is x(T).
	T float64   `json:"t"`
	X []float64 `json:"x"`
	// H, HPrev and XPrev carry the adaptive-TR controller: H is the step the
	// controller proposes next, HPrev/XPrev the accepted history the LTE
	// predictor extrapolates through. Zero/nil for the other methods.
	H     float64   `json:"h,omitempty"`
	HPrev float64   `json:"h_prev,omitempty"`
	XPrev []float64 `json:"x_prev,omitempty"`
	// BuScale is the MATEX running input-magnitude scale the segment
	// flatness tests divide by; AugPairs and DevPairs are what a ramp cost
	// under each input treatment the last time it ran (0: not yet, which is
	// also how a journal written before the field existed reads). Restoring
	// them keeps the resumed run's treatment choices identical to the
	// uninterrupted run's.
	BuScale  float64 `json:"bu_scale,omitempty"`
	AugPairs int     `json:"aug_pairs,omitempty"`
	DevPairs int     `json:"dev_pairs,omitempty"`
	// Done is the work the run had counted up to T, over every life it has
	// had. A run resumed from the checkpoint reports Done plus its own work,
	// so its Stats read like the uninterrupted run's; the factorizations,
	// cache counts and durations stay per life, since each life pays its
	// own. A journal written before the field existed reads nil: the
	// resumed run counts from zero.
	Done *Done `json:"done,omitempty"`
}

// Done is the step-driven part of Stats as a checkpoint carries it: the
// counters the final Stats would report had the run ended at the
// checkpoint. The Krylov dimensions are kept as a histogram, so a record's
// size is bounded by the largest dimension, not by the spots run so far.
type Done struct {
	Steps          int `json:"steps,omitempty"`
	Rejected       int `json:"rejected,omitempty"`
	SolvePairs     int `json:"solve_pairs,omitempty"`
	SpMVs          int `json:"spmvs,omitempty"`
	ExpmEvals      int `json:"expm_evals,omitempty"`
	LanczosSpots   int `json:"lanczos_spots,omitempty"`
	InputPairs     int `json:"input_pairs,omitempty"`
	DeviationSpots int `json:"deviation_spots,omitempty"`
	InputAhead     int `json:"input_ahead,omitempty"`
	InputDiscarded int `json:"input_discarded,omitempty"`
	// KrylovDims[m] is the number of spots whose subspace had dimension m.
	KrylovDims []int `json:"krylov_dims,omitempty"`
}

// Name returns the canonical wire spelling of the method — the one
// ParseMethod accepts and Checkpoint.Method stores.
func (m Method) Name() string {
	switch m {
	case TRFixed:
		return "tr"
	case TRAdaptive:
		return "tradpt"
	case MEXP:
		return "mexp"
	case IMATEX:
		return "imatex"
	case RMATEX:
		return "rmatex"
	}
	return "unknown"
}

// Resume re-enters the selected integrator from a checkpoint: the run skips
// the DC solve and every sample at or before cp.T, then continues to
// opts.Tstop exactly as the uninterrupted run would have, and reports the
// counters the checkpoint carries plus its own. The factorization
// path is unchanged, so a shared Options.Cache makes recovery pay no
// re-analysis; a cold cache pays one factorization, never a re-simulation.
// A checkpoint at or past Tstop returns a completed result (Final = cp.X)
// with no new samples.
func Resume(sys *circuit.System, method Method, opts Options, cp Checkpoint) (*Result, error) {
	if cp.Method != "" && cp.Method != method.Name() {
		return nil, fmt.Errorf("transient: checkpoint from method %q cannot resume a %q run", cp.Method, method.Name())
	}
	if len(cp.X) != sys.N {
		return nil, fmt.Errorf("transient: checkpoint state length %d != system size %d", len(cp.X), sys.N)
	}
	if cp.XPrev != nil && len(cp.XPrev) != sys.N {
		return nil, fmt.Errorf("transient: checkpoint xPrev length %d != system size %d", len(cp.XPrev), sys.N)
	}
	if cp.T < 0 || math.IsNaN(cp.T) {
		return nil, fmt.Errorf("transient: checkpoint time %g out of range", cp.T)
	}
	if opts.Tstop > 0 && cp.T >= opts.Tstop-waveform.SpotEps {
		res := &Result{Final: append([]float64(nil), cp.X...)}
		if cp.Done != nil {
			res.Stats = *cp.Done.stats()
		}
		return res, nil
	}
	opts.resumeFrom = &cp
	res, err := Simulate(sys, method, opts)
	if err != nil || cp.Done == nil {
		return res, err
	}
	total := cp.Done.stats()
	total.Add(&res.Stats)
	total.DCTime, total.FactorTime, total.TransientTime = res.Stats.DCTime, res.Stats.FactorTime, res.Stats.TransientTime
	res.Stats = *total
	return res, nil
}

// doneOf returns s's step-driven counters, with the Krylov counters not
// yet folded into s (count, nil for the TR methods) added the way
// SimulateMatex folds them at its end.
func doneOf(s *Stats, count *krylov.Counters) *Done {
	d := &Done{
		Steps: s.Steps, Rejected: s.Rejected, SolvePairs: s.SolvePairs, SpMVs: s.SpMVs,
		ExpmEvals: s.ExpmEvals, LanczosSpots: s.LanczosSpots, InputPairs: s.InputPairs,
		DeviationSpots: s.DeviationSpots, InputAhead: s.InputAhead, InputDiscarded: s.InputDiscarded,
	}
	for _, m := range s.KrylovDims {
		d.countDim(m, 1)
	}
	if count != nil {
		d.SolvePairs += s.InputPairs + count.SolvePairs
		d.SpMVs += count.SpMVs
		d.ExpmEvals += count.ExpmEvals
		d.LanczosSpots += count.Lanczos
		for _, m := range count.Dims {
			d.countDim(m, 1)
		}
	}
	return d
}

// countDim adds n spots of dimension m to the histogram.
func (d *Done) countDim(m, n int) {
	if m >= len(d.KrylovDims) {
		d.KrylovDims = append(d.KrylovDims, make([]int, m+1-len(d.KrylovDims))...)
	}
	d.KrylovDims[m] += n
}

// add folds o into d.
func (d *Done) add(o *Done) {
	d.Steps += o.Steps
	d.Rejected += o.Rejected
	d.SolvePairs += o.SolvePairs
	d.SpMVs += o.SpMVs
	d.ExpmEvals += o.ExpmEvals
	d.LanczosSpots += o.LanczosSpots
	d.InputPairs += o.InputPairs
	d.DeviationSpots += o.DeviationSpots
	d.InputAhead += o.InputAhead
	d.InputDiscarded += o.InputDiscarded
	for m, n := range o.KrylovDims {
		d.countDim(m, n)
	}
}

// stats returns the counters as a Stats, the Krylov dimensions listed in
// ascending order (m_a, m_p and the spot count do not depend on it).
func (d *Done) stats() *Stats {
	s := &Stats{
		Steps: d.Steps, Rejected: d.Rejected, SolvePairs: d.SolvePairs, SpMVs: d.SpMVs,
		ExpmEvals: d.ExpmEvals, LanczosSpots: d.LanczosSpots, InputPairs: d.InputPairs,
		DeviationSpots: d.DeviationSpots, InputAhead: d.InputAhead, InputDiscarded: d.InputDiscarded,
	}
	for m, n := range d.KrylovDims {
		for range n {
			s.KrylovDims = append(s.KrylovDims, m)
		}
	}
	return s
}

// checkpointer drives the OnCheckpoint cadence: fire once every `every`
// accepted steps, counted via Stats.Steps so rejected steps don't advance
// the clock. A nil checkpointer (no hook configured) is inert.
type checkpointer struct {
	opts  *Options
	every int
	last  int // Stats.Steps at the previous checkpoint
}

// defaultCheckpointEvery balances journal overhead against recovery window:
// at typical serve cadence (one sample per step) this keeps checkpoint I/O
// well under 1% of integration time on ibmpg1t-class systems.
const defaultCheckpointEvery = 128

// newCheckpointer returns nil unless opts.OnCheckpoint is set.
func newCheckpointer(opts *Options) *checkpointer {
	if opts.OnCheckpoint == nil {
		return nil
	}
	every := opts.CheckpointEvery
	if every <= 0 {
		every = defaultCheckpointEvery
	}
	return &checkpointer{opts: opts, every: every}
}

// maybe fires the hook when the cadence is due. mk builds the snapshot only
// when needed, so the no-checkpoint steps never copy state; maybe adds the
// counters so far (stats, the Krylov counters not yet folded into them,
// and what the checkpoint the run resumed from carried). A hook error
// aborts the run (the caller returns it wrapped).
func (c *checkpointer) maybe(stats *Stats, count *krylov.Counters, mk func() Checkpoint) error {
	if c == nil || stats.Steps-c.last < c.every {
		return nil
	}
	c.last = stats.Steps
	cp := mk()
	cp.Done = doneOf(stats, count)
	if prev := c.opts.resumeFrom; prev != nil && prev.Done != nil {
		cp.Done.add(prev.Done)
	}
	if err := c.opts.OnCheckpoint(cp); err != nil {
		return fmt.Errorf("transient: checkpoint callback at t=%g: %w", cp.T, err)
	}
	return nil
}
