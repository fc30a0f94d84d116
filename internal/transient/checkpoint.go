package transient

import (
	"fmt"
	"math"

	"github.com/matex-sim/matex/internal/circuit"
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
// opts.Tstop exactly as the uninterrupted run would have. The factorization
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
		return &Result{Final: append([]float64(nil), cp.X...)}, nil
	}
	opts.resumeFrom = &cp
	return Simulate(sys, method, opts)
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
// when needed, so the no-checkpoint steps never copy state. A hook error
// aborts the run (the caller returns it wrapped).
func (c *checkpointer) maybe(stats *Stats, mk func() Checkpoint) error {
	if c == nil || stats.Steps-c.last < c.every {
		return nil
	}
	c.last = stats.Steps
	cp := mk()
	if err := c.opts.OnCheckpoint(cp); err != nil {
		return fmt.Errorf("transient: checkpoint callback at t=%g: %w", cp.T, err)
	}
	return nil
}
