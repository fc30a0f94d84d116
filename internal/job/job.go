// Package job is the one path from a request to an engine run, shared by
// the matex CLI (its flags fill a Spec) and the matexsrv service (a Spec is
// the JSON body of a submission). The paper treats a simulation as one task
// that MATEX splits into subtasks; this package builds that task:
//
//   - Check refuses, before any deck is read, what a service admits by
//     bound (a deck named twice or not at all, a deck hash that is not one,
//     an oversized netlist or pgbench case, too many sweep variants);
//   - ParseDeck and GenerateDeck parse or generate a deck and stamp it;
//   - Resolve validates the spec against the deck — method, Krylov process
//     and ordering names, the window and step the .tran card defaults, the
//     probes, the sweep — and every refusal a spec meets on a deck happens
//     there, once, for both front ends;
//   - Run hands the task to transient.Simulate (or transient.Resume),
//     sweep.Run, dist.Run or, for one D-MATEX task, dist.SolveTask under one
//     transient.Options and delivers every row through one hook; sweep.Run
//     and dist.Run plan, and one lane executor (superpose.Run) runs both. A
//     distributed run with workers posts each of its tasks to a job server
//     as a spec of its own that names its deck by hash (remote.go).
//
// The package imports the engine packages only, never internal/serve: the
// CLI links it without the service.
package job

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"github.com/matex-sim/matex/internal/dist"
	"github.com/matex-sim/matex/internal/krylov"
	"github.com/matex-sim/matex/internal/pdn"
	"github.com/matex-sim/matex/internal/sparse"
	"github.com/matex-sim/matex/internal/sweep"
	"github.com/matex-sim/matex/internal/transient"
)

// Spec is the JSON body of a job submission: the input deck (inline
// SPICE text, a named pgbench case or the hash of a deck the server holds)
// plus the solver configuration, all optional except the deck. The field
// spellings match the matex CLI flags, which fill the same struct (the CLI
// names its deck by file instead).
type Spec struct {
	// Netlist is an inline SPICE-subset deck (the IBM power grid format).
	// Exactly one of Netlist, Case and Deck must be set.
	Netlist string `json:"netlist,omitempty"`
	// Deck names a netlist by the hex SHA-256 of its text (DeckHash): one
	// the server already holds, from an earlier inline job or a PUT
	// /v1/decks/{hash}. A server that does not hold it refuses the spec
	// rather than guess.
	Deck string `json:"deck,omitempty"`
	// Case names a synthetic pgbench benchmark ("ibmpg1t" … "ibmpg6t");
	// Scale multiplies the grid edge (0 = 1.0) and NumProbes spreads that
	// many probes across the grid diagonal (0 = 4), exactly like
	// `pgbench -case X -scale S -probes P | matex`.
	Case      string  `json:"case,omitempty"`
	Scale     float64 `json:"scale,omitempty"`
	NumProbes int     `json:"num_probes,omitempty"`

	// Method selects the integrator ("tr", "tradpt", "mexp", "imatex",
	// "rmatex"; empty = rmatex). Any other name is refused at submit; a
	// journaled spec that names one restores as a failed job.
	Method string `json:"method,omitempty"`
	// Tstop/Step in seconds; 0 defers to the deck's .tran card.
	Tstop float64 `json:"tstop,omitempty"`
	Step  float64 `json:"step,omitempty"`
	// Tol, Gamma, MaxDim as in transient.Options (0 = defaults).
	Tol    float64 `json:"tol,omitempty"`
	Gamma  float64 `json:"gamma,omitempty"`
	MaxDim int     `json:"max_dim,omitempty"`
	// Krylov: "auto" (also spelled "lanczos"; empty = auto), "arnoldi".
	Krylov string `json:"krylov,omitempty"`
	// Ordering: "default", "natural", "mindeg", "nd" (empty =
	// default, which resolves to nd).
	Ordering string `json:"ordering,omitempty"`
	// Distributed runs the job through the dist scheduler (bump-feature
	// decomposition): over the server's worker job servers when configured,
	// else over the in-process pool. A distributed job streams its
	// superposed waveform as it leaves the scheduler: t = 0 once the DC
	// solve is done, later samples as the subtasks pass them.
	Distributed bool `json:"distributed,omitempty"`
	// Inputs, when set, makes the job one D-MATEX task: the zero-state
	// response to the stamped system's inputs at these indices (time-varying
	// sources, each once), delivered on the deck's transition-spot grid (a
	// fixed-step integration is interpolated onto it) — what a distributed
	// run posts to a worker per task. A task is never checkpointed, and is
	// neither a sweep nor distributed.
	Inputs []int `json:"inputs,omitempty"`
	// DC, on a task spec only, adds the DC operating point over all inputs
	// to the task's rows and final state: the task answers x_DC + its
	// zero-state response, which is how a distributed run's first task
	// carries the DC point.
	DC bool `json:"dc,omitempty"`
	// TimeoutSec, when positive, is the per-job deadline; an expired job
	// is reported canceled.
	TimeoutSec float64 `json:"timeout_sec,omitempty"`
	// Variants, when non-empty, makes this a sweep job: every variant of
	// the deck runs through internal/sweep as one computation (shared
	// factorization-cache lineage, parallel lanes, collinear-variant
	// sharing) and the stream interleaves all variants'
	// samples, each tagged with its variant name and per-variant sequence
	// number. Sweep jobs cannot be distributed, and are capped at
	// MaxSweepVariants variants.
	Variants []sweep.Variant `json:"variants,omitempty"`
}

// MaxSweepVariants bounds the variant count of one sweep job: enough for
// corner grids and modest Monte-Carlo batches, small enough that one job
// cannot monopolize the worker pool's memory.
const MaxSweepVariants = 64

// Check refuses, before any deck is parsed or generated, a spec a service
// cannot admit: one that names no deck or two (ErrDeckChoice), a deck hash
// that is not one (ErrDeckHash), a netlist longer than limit bytes, a
// pgbench case whose stamped matrices could be charged more than limit bytes
// or that spreads more probes than its grid has nodes, and a sweep of more
// than MaxSweepVariants variants. The CLI names its deck by file and has no
// such bounds, so it does not call Check.
func (s *Spec) Check(limit int64) error {
	named := 0
	for _, d := range []string{s.Netlist, s.Case, s.Deck} {
		if d != "" {
			named++
		}
	}
	if named != 1 {
		return ErrDeckChoice
	}
	if s.Deck != "" {
		if err := CheckDeckHash(s.Deck); err != nil {
			return err
		}
	}
	if int64(len(s.Netlist)) > limit {
		return fmt.Errorf("netlist is %d bytes; the limit is %d", len(s.Netlist), limit)
	}
	if len(s.Variants) > MaxSweepVariants {
		return fmt.Errorf("sweep has %d variants; the limit is %d", len(s.Variants), MaxSweepVariants)
	}
	if s.Case == "" {
		return nil
	}
	g, err := pdn.IBMCase(s.Case, s.Scale)
	if err != nil {
		return err
	}
	// A grid node stamps at most one entry of C and five of G (its diagonal
	// and four couplings), each charged 16 bytes (index + value) by
	// GenerateDeck. Counted in float64: an absurd scale overflows int.
	nodes := float64(g.NX) * float64(g.NY)
	if nodes*6*16 > float64(limit) {
		return fmt.Errorf("case %s at scale %g has %.3g grid nodes; the limit is %d", s.Case, s.Scale, nodes, limit/(6*16))
	}
	if float64(s.NumProbes) > nodes {
		return fmt.Errorf("%d probes on a grid of %.0f nodes", s.NumProbes, nodes)
	}
	return nil
}

// The refusals of a spec's deck (Check) and of a task spec's Inputs and DC
// (Resolve); each error is or wraps one.
var (
	ErrDeckChoice      = errors.New("exactly one of netlist, case and deck must be set")
	ErrDeckHash        = errors.New("a deck hash is 64 lowercase hex digits")
	ErrInputRange      = errors.New("input index out of range")
	ErrInputRepeated   = errors.New("input index repeated")
	ErrInputSupply     = errors.New("input is a supply")
	ErrInputsAlone     = errors.New("a task job cannot also be a sweep or distributed")
	ErrDCWithoutInputs = errors.New("dc is only valid on a task spec, with inputs")
)

// Task is a resolved job — the paper's one simulation task, before MATEX
// splits it into subtasks: the shared deck plus everything the spec's
// options resolve to on it.
type Task struct {
	// Names are the probed nodes, in the order of every row's values;
	// Skipped are the requested probes that sit on a supply rail, which
	// carries no waveform.
	Names, Skipped []string

	deck   *Deck
	spec   Spec
	method transient.Method
	krylov krylov.Method
	order  sparse.Ordering
	probes []int
	tstop  float64
	step   float64
}

// Resolve validates the spec against its deck and resolves it into a Task.
// Every refusal a spec can meet on a deck surfaces here — unknown method,
// Krylov process or ordering, no window, a fixed-step method without a
// step, a distributed sweep, bad task inputs, bad variants, unknown
// probes — before anything
// runs, so the service answers 400 before queueing and the CLI exits before
// its first row.
func (s *Spec) Resolve(d *Deck) (*Task, error) {
	t := &Task{deck: d, spec: *s, tstop: s.Tstop, step: s.Step}

	var err error
	if t.method, err = transient.ParseMethod(s.Method); err != nil {
		return nil, err
	}
	if t.krylov, err = krylov.ParseMethod(strings.ToLower(strings.TrimSpace(s.Krylov))); err != nil {
		return nil, err
	}
	if t.order, err = sparse.ParseOrdering(s.Ordering); err != nil {
		return nil, err
	}

	if t.tstop == 0 {
		t.tstop = d.tstop
	}
	if t.step == 0 {
		t.step = d.step
	}
	probeNames := d.prints
	if s.Case != "" {
		np := s.NumProbes
		if np <= 0 {
			np = 4
		}
		probeNames = make([]string, 0, np) // never append into the shared deck's slice
		for i := 0; i < np; i++ {
			x := (i + 1) * d.nx / (np + 1)
			y := (i + 1) * d.ny / (np + 1)
			probeNames = append(probeNames, pdn.NodeName(x, y))
		}
	}
	if t.tstop <= 0 {
		return nil, errors.New("no simulation window: set tstop or add a .tran card")
	}
	if t.method.FixedStep() && t.step <= 0 {
		return nil, fmt.Errorf("fixed-step method %q needs step or a .tran step in the deck", s.Method)
	}
	if s.DC && len(s.Inputs) == 0 {
		return nil, ErrDCWithoutInputs
	}
	if len(s.Inputs) > 0 {
		if err := checkInputs(d, s); err != nil {
			return nil, err
		}
	}
	if len(s.Variants) > 0 {
		if s.Distributed {
			return nil, errors.New("a sweep job cannot also be distributed")
		}
		if err := sweep.Validate(d.sys, s.Variants); err != nil {
			return nil, err
		}
	}

	// Probes: the deck's .print cards (or a case's diagonal spread), else
	// the first free node.
	if len(probeNames) == 0 {
		if names := d.sys.NodeNames(); len(names) > 0 {
			probeNames = names[:1]
		}
	}
	if t.probes, t.Names, t.Skipped, err = d.sys.ResolveProbes(probeNames); err != nil {
		return nil, err
	}
	return t, nil
}

// checkInputs refuses a task spec's inputs that are not time-varying
// sources of the deck, each named once, or that come with variants or
// distributed.
func checkInputs(d *Deck, s *Spec) error {
	if s.Distributed || len(s.Variants) > 0 {
		return ErrInputsAlone
	}
	seen := make([]bool, len(d.sys.Inputs))
	for _, k := range s.Inputs {
		switch {
		case k < 0 || k >= len(seen):
			return fmt.Errorf("%w: %d (the deck has %d inputs)", ErrInputRange, k, len(seen))
		case seen[k]:
			return fmt.Errorf("%w: %d", ErrInputRepeated, k)
		case d.sys.Inputs[k].Supply:
			return fmt.Errorf("%w: %d (%s)", ErrInputSupply, k, d.sys.Inputs[k].Name)
		}
		seen[k] = true
	}
	return nil
}

// Hooks are what a caller lends a run.
type Hooks struct {
	// Cache is shared with other runs (nil: the run's own).
	Cache *sparse.Cache
	// Workers are the job servers (host:port) a distributed run posts its
	// tasks to; empty runs them on the in-process pool.
	Workers []string
	// OnSample, which must be set, receives every row as it leaves the
	// engine: as a plain run integrates, as a distributed run's tasks pass
	// each grid point (t = 0 once task 0 has the DC point), as a sweep
	// variant's lanes pass each sample. variant is the sweep variant's
	// label, "" otherwise; a sweep's lanes call it concurrently.
	OnSample func(variant string, t float64, row []float64)
	// OnCheckpoint, when set, receives a plain run's and every sweep
	// variant's restartable snapshots, every CheckpointEvery accepted steps
	// (0 = the transient default). Distributed runs and tasks do not
	// checkpoint.
	OnCheckpoint    func(variant string, cp transient.Checkpoint) error
	CheckpointEvery int
	// Resume re-enters integrations at their checkpoints, by variant label
	// ("" = a plain run's one integration); no entry = from the start.
	// Shared sweep variants re-run: resuming disables sharing.
	Resume map[string]*transient.Checkpoint
}

// Outcome is what a finished run reports.
type Outcome struct {
	// Stats are the solver counters, folded across lanes by superpose.Run.
	Stats transient.Stats
	// Dist is a distributed run's scheduling report, Sweep a sweep's
	// sharing report; nil otherwise.
	Dist  *dist.Report
	Sweep *sweep.Stats
}

// Run executes the task under one transient.Options: a sweep through
// sweep.Run, a distributed job through dist.Run, a D-MATEX task through
// dist.SolveTask, any other as one integration, resumed when h.Resume holds
// its checkpoint.
func (t *Task) Run(ctx context.Context, h Hooks) (*Outcome, error) {
	d, spec := t.deck, &t.spec
	opts := transient.Options{
		Tstop:    t.tstop,
		Step:     t.step,
		Probes:   t.probes,
		Tol:      spec.Tol,
		Gamma:    spec.Gamma,
		MaxDim:   spec.MaxDim,
		Ordering: t.order,
		Krylov:   t.krylov,
		Cache:    h.Cache,
		Ctx:      ctx,
	}
	if h.OnCheckpoint != nil && !spec.Distributed {
		opts.CheckpointEvery = h.CheckpointEvery
	}
	switch {
	case len(spec.Variants) > 0:
		label := func(v int) string { return spec.Variants[v].Label(v) }
		sopts := sweep.Options{
			Base:            opts,
			Method:          t.method,
			OnVariantSample: func(v int, t float64, row []float64) { h.OnSample(label(v), t, row) },
			ResumeVariants:  make(map[int]transient.Checkpoint, len(h.Resume)),
		}
		if h.OnCheckpoint != nil {
			sopts.OnVariantCheckpoint = func(v int, cp transient.Checkpoint) error { return h.OnCheckpoint(label(v), cp) }
		}
		for v := range spec.Variants {
			if cp := h.Resume[label(v)]; cp != nil {
				sopts.ResumeVariants[v] = *cp
			}
		}
		res, err := sweep.Run(d.sys, spec.Variants, sopts)
		if err != nil {
			return nil, err
		}
		return &Outcome{Stats: res.Sim, Sweep: &res.Stats}, nil

	case spec.Distributed:
		opts.OnSample = func(t float64, row []float64) { h.OnSample("", t, row) }
		cfg := dist.Config{Base: opts}
		if len(h.Workers) > 0 {
			cfg.Pool = t.remotePool(h.Workers)
		}
		res, rep, err := dist.Run(d.dsys, t.method, cfg)
		if err != nil {
			return nil, err
		}
		return &Outcome{Stats: res.Stats, Dist: rep}, nil

	case len(spec.Inputs) > 0:
		opts.OnSample = func(t float64, row []float64) { h.OnSample("", t, row) }
		res, err := dist.SolveTask(ctx, d.dsys, dist.Task{InputIdx: spec.Inputs, DC: spec.DC}, dist.NewRequest(d.dsys, t.method, opts))
		if err != nil {
			return nil, err
		}
		return &Outcome{Stats: res.Stats}, nil
	}

	opts.OnSample = func(t float64, row []float64) { h.OnSample("", t, row) }
	if h.OnCheckpoint != nil {
		opts.OnCheckpoint = func(cp transient.Checkpoint) error { return h.OnCheckpoint("", cp) }
	}
	var res *transient.Result
	var err error
	if cp := h.Resume[""]; cp != nil {
		res, err = transient.Resume(d.sys, t.method, opts, *cp)
	} else {
		res, err = transient.Simulate(d.sys, t.method, opts)
	}
	if err != nil {
		return nil, err
	}
	return &Outcome{Stats: res.Stats}, nil
}
