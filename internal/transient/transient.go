package transient

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"time"

	"github.com/matex-sim/matex/internal/circuit"
	"github.com/matex-sim/matex/internal/krylov"
	"github.com/matex-sim/matex/internal/sparse"
	"github.com/matex-sim/matex/internal/waveform"
)

// Method selects an integrator.
type Method int

const (
	// TRFixed is trapezoidal with fixed step, one factorization.
	TRFixed Method = iota
	// TRAdaptive is trapezoidal with LTE-controlled steps; every step size
	// it has not used before factorizes (C/h + G/2).
	TRAdaptive
	// MEXP is the matrix-exponential solver with the standard Krylov
	// subspace (factorizes C; needs regularization when C is singular).
	MEXP
	// IMATEX uses the inverted Krylov subspace (reuses the DC factorization
	// of G; regularization-free).
	IMATEX
	// RMATEX uses the rational (shift-and-invert) Krylov subspace
	// (factorizes C + γG; regularization-free).
	RMATEX
)

// ParseMethod resolves a method name ("tr", "tradpt", "mexp", "imatex",
// "rmatex"; case-insensitive) — the spelling shared by the matex CLI flags
// and the serve job API. The empty string selects R-MATEX, the
// paper's choice.
func ParseMethod(name string) (Method, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "tr":
		return TRFixed, nil
	case "tradpt":
		return TRAdaptive, nil
	case "mexp":
		return MEXP, nil
	case "imatex", "i-matex":
		return IMATEX, nil
	case "rmatex", "r-matex", "":
		return RMATEX, nil
	}
	return 0, fmt.Errorf("transient: unknown method %q", name)
}

func (m Method) String() string {
	switch m {
	case TRFixed:
		return "TR"
	case TRAdaptive:
		return "TR(adpt)"
	case MEXP:
		return "MEXP"
	case IMATEX:
		return "I-MATEX"
	case RMATEX:
		return "R-MATEX"
	}
	return "unknown"
}

// FixedStep reports whether m integrates on Options.Step (TR) and therefore
// refuses to run without one.
func (m Method) FixedStep() bool { return m == TRFixed }

// Options configures a transient run.
type Options struct {
	// Tstop is the end of the simulation window (start is 0).
	Tstop float64
	// Step is the fixed step (TRFixed) or the initial step (TRAdaptive).
	Step float64
	// Probes lists unknown indices recorded at every output time.
	Probes []int
	// EvalTimes are the output times for the MATEX solvers; nil defaults to
	// the system's global transition spots. Fixed-step methods output at
	// every step regardless.
	EvalTimes []float64
	// Tol is the Krylov error budget ε (MATEX methods, default 1e-6) or the
	// relative LTE target (TRAdaptive, default 1e-4).
	Tol float64
	// Gamma is the rational shift γ for R-MATEX; the default 1e-10 sits at
	// the order of the step sizes, as the paper prescribes.
	Gamma float64
	// MaxDim caps the Krylov dimension; default 256.
	MaxDim int
	// MaxStep, when positive, caps the MATEX segment length so that a new
	// Krylov subspace is generated at least every MaxStep seconds. The
	// standard (MEXP) subspace needs this on stiff systems, where its
	// accuracy degrades as h·‖A‖ grows; the spectral-transform subspaces
	// are generally run without it (reuse across whole segments is their
	// feature).
	MaxStep float64
	// Ordering selects the sparse direct solver's fill-reducing ordering.
	Ordering sparse.Ordering
	// ActiveInputs masks the system inputs (nil = all active); the
	// distributed scheduler uses it to give each subtask one source group.
	ActiveInputs []bool
	// InitialState overrides the DC operating point as x(0).
	InitialState []float64
	// Cache is the content-addressed factorization cache every
	// factorization the run needs (G, C, C/h + G/2, C + γG, ...) goes
	// through, looked up by matrix content × ordering × scalars before being
	// computed; nil: a cache of the run's own, so an adaptive run still
	// factorizes each step size once. Sharing one Cache across solvers,
	// repeated runs and distributed subtasks eliminates redundant
	// factorizations; hits and misses are reported in Stats. The cache does
	// not travel to remote workers (they keep their own, like the paper's
	// cluster nodes).
	Cache *sparse.Cache `json:"-"`
	// Krylov selects the subspace process for the MATEX methods: the zero
	// value (auto) takes the symmetric Lanczos fast path whenever the
	// stamped matrices are symmetric and the spot qualifies, "arnoldi"
	// pins the full Gram-Schmidt reference. See krylov.Method.
	Krylov krylov.Method
	// OnSample, when non-nil, is called synchronously after every recorded
	// output sample with the sample time and the probe row — the streaming
	// hook the serving layer and `matex` write waveform rows from as the
	// integrator advances, instead of waiting for the whole Result; the
	// D-MATEX scheduler and sweep lanes also feed their superposition with it.
	// The row aliases the slice just appended to Result.Probes (nil when no
	// probes are configured); the callback must copy it if it retains it,
	// and its cost lands on the simulation critical path.
	OnSample func(t float64, probes []float64) `json:"-"`
	// Ctx, when non-nil, cancels the run: integrators check it at every
	// step/segment boundary and return the context's error (wrapped) once it
	// fires, so a canceled or deadline-expired job stops mid-simulation
	// instead of running to Tstop. Nil means no cancellation.
	Ctx context.Context `json:"-"`
	// OnCheckpoint, when non-nil, is called synchronously with a restartable
	// snapshot every CheckpointEvery accepted steps — the durability hook
	// the serving layer journals from, paired with Resume on the other side
	// of a crash. The snapshot owns its slices (safe to retain). A non-nil
	// return aborts the run with the error wrapped, so a persistence layer
	// that cannot record progress can choose to stop instead of running
	// uncheckpointed.
	OnCheckpoint func(cp Checkpoint) error `json:"-"`
	// CheckpointEvery is the OnCheckpoint cadence in accepted steps;
	// 0 defaults to 128 when the hook is set. Smaller values shrink the
	// recovery window at the cost of more snapshot I/O.
	CheckpointEvery int
	// resumeFrom, when non-nil, re-enters the integrator mid-waveform
	// instead of starting from DC. Set via Resume, never directly.
	resumeFrom *Checkpoint
}

// cancelled reports the context error once Options.Ctx has fired; the
// integrators call it at every step/segment boundary.
func (o *Options) cancelled() error {
	if o.Ctx == nil {
		return nil
	}
	if err := o.Ctx.Err(); err != nil {
		return fmt.Errorf("transient: run canceled: %w", err)
	}
	return nil
}

func (o Options) withDefaults() Options {
	if o.Tol <= 0 {
		o.Tol = 1e-6
	}
	if o.Gamma <= 0 {
		o.Gamma = 1e-10
	}
	if o.MaxDim <= 0 {
		o.MaxDim = 256
	}
	// Only the explicit zero value is rewritten: OrderNatural stays natural.
	o.Ordering = o.Ordering.Resolve()
	if o.Cache == nil {
		o.Cache = sparse.NewCache(0)
	}
	return o
}

// Stats reports the work performed by a solver, matching the cost terms of
// the paper's complexity model. It is the one record of a run's work: the
// Krylov operator counts into its embedded Counters, a checkpoint carries
// one (Checkpoint.Done), and the CLI's -stats line, a job's status and
// stream tail and the service's /stats totals all read it, under the JSON
// keys below.
type Stats struct {
	Factorizations int `json:"factorizations"`
	// SolvePairs counts forward+backward substitution pairs (T_bs), every
	// one the run spent: the DC point's, the operator's and the MATEX
	// driver's input terms; ExpmEvals counts small matrix exponential
	// evaluations (T_H); Dims is the histogram of the generated Krylov
	// dimensions.
	krylov.Counters
	Steps       int  `json:"steps"`
	Rejected    int  `json:"rejected"`
	Regularized bool `json:"regularized,omitempty"` // MEXP had to regularize a singular C
	// CacheHits/CacheMisses count factorization acquisitions served from /
	// added to Options.Cache; Factorizations counts only factorizations
	// actually computed, so the paper's cost comparison stays honest.
	CacheHits   int `json:"cache_hits"`
	CacheMisses int `json:"cache_misses"`
	// SymbolicHits counts factorizations that reused a cached symbolic
	// analysis (pattern tier of Options.Cache); Refactors counts computed
	// factorizations that went through the cheap numeric refactorization
	// path at all (including the one that built the analysis). Refactors -
	// SymbolicHits is therefore the number of symbolic analyses paid for.
	SymbolicHits int `json:"symbolic_hits"`
	Refactors    int `json:"refactors"`
	// InputPairs counts the substitution pairs (already in SolvePairs) the
	// MATEX driver itself spent on input terms, q = G⁻¹·B·u and r2 = G⁻¹·C·w1;
	// DeviationSpots counts the spots that took the deviation treatment (see
	// SimulateMatex).
	InputPairs     int `json:"input_pairs"`
	DeviationSpots int `json:"deviation_spots"`
	// InputAhead counts the input pairs (already in InputPairs) the MATEX
	// segment loop took from its helper goroutine, which computes the next
	// ramp's input terms while the current spot's subspace is generated;
	// InputDiscarded counts the pairs the helper computed for a segment that
	// then came out differently (split, or its ramp left the deviation) —
	// extra work, in no other counter.
	InputAhead     int           `json:"input_ahead"`
	InputDiscarded int           `json:"input_discarded"`
	DCTime         time.Duration `json:"dc_ns,omitempty"`
	FactorTime     time.Duration `json:"factor_ns,omitempty"`
	TransientTime  time.Duration `json:"transient_ns,omitempty"`
}

// Add folds another run's work counters into s — a D-MATEX node's into the
// run totals, a sweep lane's into the sweep's, what a checkpoint carried
// into the resumed run's. It leaves the three durations alone: lanes that
// run side by side have theirs folded in one place, superpose.Run
// (FactorTime summed, DCTime over the lanes that solve a DC point,
// TransientTime the slowest lane's).
func (s *Stats) Add(o *Stats) {
	s.Counters.Add(&o.Counters)
	s.Factorizations += o.Factorizations
	s.Steps += o.Steps
	s.Rejected += o.Rejected
	s.Regularized = s.Regularized || o.Regularized
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.SymbolicHits += o.SymbolicHits
	s.Refactors += o.Refactors
	s.InputPairs += o.InputPairs
	s.DeviationSpots += o.DeviationSpots
	s.InputAhead += o.InputAhead
	s.InputDiscarded += o.InputDiscarded
}

// carried returns a copy of s that owns its histogram, with the counters
// each life of a run pays on its own zeroed: factorizations, cache and
// symbolic counts, Regularized and the durations. It is what a checkpoint
// carries into the next life.
func (s *Stats) carried() *Stats {
	c := *s
	c.Dims = slices.Clone(s.Dims)
	c.Factorizations, c.CacheHits, c.CacheMisses, c.SymbolicHits, c.Refactors, c.Regularized = 0, 0, 0, 0, 0, false
	c.DCTime, c.FactorTime, c.TransientTime = 0, 0, 0
	return &c
}

// Result is a transient solution trace.
type Result struct {
	Times  []float64
	Probes [][]float64 // len(Times) rows of len(Options.Probes)
	Final  []float64
	Stats  Stats
}

// record appends an output sample and fires the streaming hook.
func (r *Result) record(t float64, x []float64, opts *Options) {
	r.Times = append(r.Times, t)
	var row []float64
	if len(opts.Probes) > 0 {
		row = make([]float64, len(opts.Probes))
		for i, p := range opts.Probes {
			row[i] = x[p]
		}
		r.Probes = append(r.Probes, row)
	}
	if opts.OnSample != nil {
		opts.OnSample(t, row)
	}
}

// ProbeSeries extracts the trace of probe column k. A result recorded
// without probes (or an out-of-range column) yields an empty series rather
// than a panic.
func (r *Result) ProbeSeries(k int) []float64 {
	if len(r.Probes) < len(r.Times) || k < 0 {
		return nil
	}
	out := make([]float64, len(r.Times))
	for i := range r.Times {
		if k >= len(r.Probes[i]) {
			return nil
		}
		out[i] = r.Probes[i][k]
	}
	return out
}

// InterpProbe linearly interpolates probe column k at time t. A result
// recorded without probes (or an out-of-range column) yields NaN rather
// than a panic.
func (r *Result) InterpProbe(t float64, k int) float64 {
	n := len(r.Times)
	if n == 0 || len(r.Probes) < n || k < 0 || k >= len(r.Probes[0]) {
		return math.NaN()
	}
	if t <= r.Times[0] {
		return r.Probes[0][k]
	}
	if t >= r.Times[n-1] {
		return r.Probes[n-1][k]
	}
	i := sort.SearchFloat64s(r.Times, t)
	t0, t1 := r.Times[i-1], r.Times[i]
	v0, v1 := r.Probes[i-1][k], r.Probes[i][k]
	if t1 == t0 {
		return v1
	}
	return v0 + (v1-v0)*(t-t0)/(t1-t0)
}

// Simulate dispatches to the selected integrator.
func Simulate(sys *circuit.System, method Method, opts Options) (*Result, error) {
	switch method {
	case TRFixed:
		return simulateFixed(sys, opts)
	case TRAdaptive:
		return simulateAdaptiveTR(sys, opts)
	case MEXP, IMATEX, RMATEX:
		return SimulateMatex(sys, method, opts)
	default:
		return nil, fmt.Errorf("transient: unknown method %d", method)
	}
}

// acquireFactor obtains a factorization of a through the run's cache and
// books the acquisition.
func acquireFactor(a *sparse.CSC, opts Options, stats *Stats) (sparse.Factorization, error) {
	f, info, err := opts.Cache.Factor(a, opts.Ordering)
	if err != nil {
		return nil, err
	}
	stats.addFactorInfo(info)
	return f, nil
}

// acquireFactorSum obtains a factorization of alpha·a + beta·b through the
// run's cache. On a hit the sum matrix is never even built; on a miss the
// cache's symbolic tier still collapses all scalar shifts of one pattern onto
// a single analysis.
func acquireFactorSum(alpha float64, a *sparse.CSC, beta float64, b *sparse.CSC, opts Options, stats *Stats) (sparse.Factorization, error) {
	f, info, err := opts.Cache.FactorSum(alpha, a, beta, b, opts.Ordering)
	if err != nil {
		return nil, err
	}
	stats.addFactorInfo(info)
	return f, nil
}

// addFactorInfo folds one cache acquisition into the work counters.
func (s *Stats) addFactorInfo(info sparse.FactorInfo) {
	if info.Hit {
		s.CacheHits++
		return
	}
	s.CacheMisses++
	s.Factorizations++
	if info.Refactored {
		s.Refactors++
	}
	if info.SymbolicHit {
		s.SymbolicHits++
	}
}

// ErrDCNotFinite reports a DC operating point with an infinite or NaN entry:
// the inputs at t = 0 are beyond what the system's conductances can carry in
// float64, and no integrator can start from it.
var ErrDCNotFinite = errors.New("transient: DC solution is not finite")

// DC solves the DC operating point G·x = B·u(0) over opts.ActiveInputs: G is
// factorized through opts.Cache (a cache of the call's own when nil) under
// opts.Ordering, and x is one SolveWith — the one every later G-solve takes,
// so the MATEX driver's q(0) = G⁻¹·B·u(0) and a resumed run's fresh q get
// the same bits. It returns x and the factorization of G, books the
// factorization, the pair and the time in stats, and refuses a non-finite x
// with ErrDCNotFinite. Every run's x(0) and every D-MATEX task's x_DC is
// solved here.
func DC(sys *circuit.System, opts Options, stats *Stats) ([]float64, sparse.Factorization, error) {
	t0 := time.Now()
	defer func() { stats.DCTime += time.Since(t0) }()
	opts = opts.withDefaults()
	fg, err := factorG(sys, opts, stats)
	if err != nil {
		return nil, nil, err
	}
	b := make([]float64, sys.N)
	sys.EvalB(0, b, opts.ActiveInputs)
	x := make([]float64, sys.N)
	fg.SolveWith(x, b, make([]float64, sys.N))
	stats.SolvePairs++
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, nil, ErrDCNotFinite
		}
	}
	return x, fg, nil
}

// factorG acquires the factorization of G, which the DC point and the MATEX
// input terms solve with.
func factorG(sys *circuit.System, opts Options, stats *Stats) (sparse.Factorization, error) {
	fg, err := acquireFactor(sys.G, opts, stats)
	if err != nil {
		return nil, fmt.Errorf("transient: factorizing G: %w", err)
	}
	return fg, nil
}

// initialState resolves x(0): a resumed run's checkpointed state, the
// caller-provided state, or the DC operating point. It returns the state and
// the factorization of G (reused by the MATEX input terms), and updates
// stats.
func initialState(sys *circuit.System, opts Options, stats *Stats) ([]float64, sparse.Factorization, error) {
	x0 := opts.InitialState
	if cp := opts.resumeFrom; cp != nil {
		// Resuming: the checkpointed state replaces the DC solve. G is still
		// factorized (the MATEX input terms need it); with a shared cache
		// that is a lookup, so recovery pays no re-analysis.
		x0 = cp.X
	} else if x0 == nil {
		return DC(sys, opts, stats)
	} else if len(x0) != sys.N {
		return nil, nil, fmt.Errorf("transient: initial state length %d != %d", len(x0), sys.N)
	}
	t0 := time.Now()
	fg, err := factorG(sys, opts, stats)
	stats.DCTime += time.Since(t0)
	if err != nil {
		return nil, nil, err
	}
	return append([]float64(nil), x0...), fg, nil
}

// evalGrid builds the sorted output grid for the MATEX solvers.
func evalGrid(sys *circuit.System, opts Options) []float64 {
	if len(opts.EvalTimes) > 0 {
		return waveform.MergeSpots(opts.EvalTimes, opts.Tstop, waveform.SpotEps, true)
	}
	return sys.GTS(opts.Tstop)
}
