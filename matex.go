// Package matex is a transient simulator for power distribution networks
// (PDNs), reproducing "MATEX: A Distributed Framework for Transient
// Simulation of Power Distribution Networks" (Zhuang, Weng, Lin, Cheng —
// DAC 2014).
//
// The simulator integrates the MNA system C·x' = -G·x + B·u(t) with matrix
// exponential kernels evaluated in Krylov subspaces. Three subspace families
// are provided — standard (MEXP), inverted (I-MATEX) and rational/
// shift-and-invert (R-MATEX) — next to the fixed-step and adaptive
// trapezoidal baselines. The distributed front end partitions
// the input current sources by their pulse "bump" features, simulates each
// group as an independent zero-state subtask, and superposes the results:
// in-process here, or over worker job servers through the job service
// (cmd/matex -workers, JobServerConfig.DistAddrs), where each subtask is a
// job on a worker that is handed the deck.
//
// Quick start:
//
//	spec, _ := matex.IBMCase("ibmpg1t", 1.0)
//	ckt, _ := spec.Build()
//	sys, _ := matex.Stamp(ckt, matex.StampOptions{CollapseSupplies: true})
//	res, _ := matex.Simulate(sys, matex.RMATEX, matex.Options{Tstop: 10e-9})
//
// See the examples directory for runnable programs and EXPERIMENTS.md for
// the paper reproduction harness.
package matex

import (
	"io"

	"github.com/matex-sim/matex/internal/circuit"
	"github.com/matex-sim/matex/internal/dist"
	"github.com/matex-sim/matex/internal/krylov"
	"github.com/matex-sim/matex/internal/netlist"
	"github.com/matex-sim/matex/internal/pdn"
	"github.com/matex-sim/matex/internal/serve"
	"github.com/matex-sim/matex/internal/sparse"
	"github.com/matex-sim/matex/internal/sweep"
	"github.com/matex-sim/matex/internal/transient"
	"github.com/matex-sim/matex/internal/waveform"
)

// Sparse solver configuration and the factorization cache.
type (
	// Ordering selects the fill-reducing ordering strategy.
	Ordering = sparse.Ordering
	// FactorCache is a concurrency-safe, content-addressed factorization
	// cache with an LRU byte budget. Share one instance via Options.Cache
	// (DistConfig.Base.Cache for distributed runs) to eliminate redundant
	// factorizations across solvers, adaptive steps, and repeated or
	// distributed runs.
	FactorCache = sparse.Cache
	// FactorCacheStats is a snapshot of cache effectiveness counters.
	FactorCacheStats = sparse.CacheStats
)

const (
	// OrderDefault (the zero value) resolves to OrderND, the ordering the
	// measured fill and one-shot wall pick (EXPERIMENTS.md "Ordering table").
	OrderDefault = sparse.OrderDefault
	// OrderNatural keeps the input order.
	OrderNatural = sparse.OrderNatural
	// OrderMinDegree applies a greedy minimum-degree ordering: the smallest
	// factors, at 5–10× nested dissection's ordering time.
	OrderMinDegree = sparse.OrderMinDegree
	// OrderND applies nested dissection with minimum-degree leaves.
	OrderND = sparse.OrderND
)

// NewFactorCache returns a factorization cache bounded to roughly maxBytes
// of factor storage; maxBytes <= 0 selects the default budget.
func NewFactorCache(maxBytes int64) *FactorCache { return sparse.NewCache(maxBytes) }

// Circuit building and MNA assembly.
type (
	// Circuit is an element-level netlist (R, C, L, V, I cards).
	Circuit = circuit.Circuit
	// System is the assembled MNA description C·x' = -G·x + B·u(t).
	System = circuit.System
	// StampOptions controls MNA assembly.
	StampOptions = circuit.StampOptions
)

// NewCircuit returns an empty circuit with a title.
func NewCircuit(title string) *Circuit { return circuit.New(title) }

// Stamp assembles the MNA system from a circuit.
func Stamp(c *Circuit, opts StampOptions) (*System, error) { return circuit.Stamp(c, opts) }

// Waveforms.
type (
	// Waveform is a piecewise-linear source value over time.
	Waveform = waveform.Waveform
	// DC is a constant source.
	DC = waveform.DC
	// Pulse is a SPICE-style pulse source.
	Pulse = waveform.Pulse
	// PWL is a piecewise-linear source through given points.
	PWL = waveform.PWL
)

// NewPWL validates and builds a PWL waveform.
func NewPWL(t, v []float64) (*PWL, error) { return waveform.NewPWL(t, v) }

// Netlist I/O.
type (
	// Deck is a parsed netlist plus its analysis directives.
	Deck = netlist.Deck
)

// ParseNetlist reads a SPICE-subset netlist (IBM power grid format).
func ParseNetlist(r io.Reader) (*Deck, error) { return netlist.Parse(r) }

// WriteNetlist emits a deck in the same format.
func WriteNetlist(w io.Writer, d *Deck) error { return netlist.Write(w, d) }

// Transient simulation.
type (
	// Method selects an integrator.
	Method = transient.Method
	// Options configures a transient run.
	Options = transient.Options
	// Result is a transient solution trace with work statistics.
	Result = transient.Result
	// Stats reports solver work (factorizations, substitution pairs,
	// Krylov dimensions, phase timings).
	Stats = transient.Stats
	// KrylovMethod selects the subspace process for the MATEX methods
	// (Options.Krylov; DistConfig.Base.Krylov for distributed runs).
	KrylovMethod = krylov.Method
)

// Krylov subspace processes.
const (
	// KrylovAuto (the default) takes the symmetric Lanczos fast path
	// whenever the stamped matrices are symmetric and the spot qualifies,
	// and Arnoldi otherwise.
	KrylovAuto = krylov.MethodAuto
	// KrylovArnoldi pins the full modified Gram-Schmidt reference process.
	KrylovArnoldi = krylov.MethodArnoldi
)

// Integrators.
const (
	// TRFixed is trapezoidal with fixed step and one factorization (the
	// TAU-contest framework the paper benchmarks against).
	TRFixed = transient.TRFixed
	// TRAdaptive is trapezoidal with LTE step control (factorizes at every
	// step size it has not used before).
	TRAdaptive = transient.TRAdaptive
	// MEXP is the matrix-exponential solver on the standard Krylov subspace.
	MEXP = transient.MEXP
	// IMATEX uses the inverted Krylov subspace (regularization-free).
	IMATEX = transient.IMATEX
	// RMATEX uses the rational (shift-and-invert) Krylov subspace — the
	// paper's best performer.
	RMATEX = transient.RMATEX
)

// Simulate runs one integrator over the system.
func Simulate(sys *System, method Method, opts Options) (*Result, error) {
	return transient.Simulate(sys, method, opts)
}

// Distributed simulation.
type (
	// DistConfig configures a distributed MATEX run.
	DistConfig = dist.Config
	// DistReport carries per-node scheduling metrics.
	DistReport = dist.Report
	// Task is one superposition subtask.
	Task = dist.Task
)

// SimulateDistributed partitions the sources, fans subtasks running method
// out to in-process workers and superposes the results (the paper's Fig. 4
// flow). A System built in code has no deck text for a remote worker to
// parse, so it distributes in-process; a deck distributes over worker job
// servers as a JobServer job (JobServerConfig.DistAddrs).
// cfg.Base.OnSample, like Options.OnSample for Simulate, receives each
// superposed row as it leaves: t = 0 once the DC point is solved, later rows
// as the subtasks pass them.
func SimulateDistributed(sys *System, method Method, cfg DistConfig) (*Result, *DistReport, error) {
	return dist.Run(dist.NewSystem(sys), method, cfg)
}

// Scenario sweeps: N variants of one deck as a single run.
type (
	// SweepVariant describes one scenario of a base deck: load-source
	// rescaling (uniform, per-source, or deterministic Monte-Carlo) and/or
	// per-source waveform overrides. The zero SweepVariant reproduces the
	// base deck exactly.
	SweepVariant = sweep.Variant
	// SweepOverride is the JSON-friendly waveform spec of
	// SweepVariant.Overrides ("dc", "pulse" or "pwl").
	SweepOverride = sweep.Override
	// SweepOptions configures a sweep run: the shared base Options, the
	// integrator, and the per-variant streaming/checkpoint/resume hooks.
	SweepOptions = sweep.Options
	// SweepResult is a completed sweep: one SweepVariantResult per
	// requested variant plus the sharing statistics.
	SweepResult = sweep.Result
	// SweepVariantResult is one variant's waveform, exactly as a solo
	// transient run of that variant would record it.
	SweepVariantResult = sweep.VariantResult
	// SweepStats reports a sweep's sharing: lanes actually integrated,
	// variants served by linearity, and folded solver counters.
	SweepStats = sweep.Stats
)

// SimulateSweep runs every variant of the deck as one sweep: all variants
// share a single symbolic analysis and factorization-cache lineage, the
// lanes integrate in parallel, and variants whose load vectors are exact
// scalar multiples of another's are served by linearity instead of
// integration. Results are bitwise identical to simulating each variant
// alone.
func SimulateSweep(sys *System, variants []SweepVariant, opts SweepOptions) (*SweepResult, error) {
	return sweep.Run(sys, variants, opts)
}

// ValidateSweep checks a variant list against the system without running
// anything, surfacing the spec errors SimulateSweep would return.
func ValidateSweep(sys *System, variants []SweepVariant) error {
	return sweep.Validate(sys, variants)
}

// Serving: the HTTP simulation job service (see cmd/matexsrv).
type (
	// JobServer is the simulation job service: a bounded worker-pool queue
	// over the shared factorization cache with incremental NDJSON/SSE
	// waveform streaming. Expose JobServer.Handler() over HTTP and stop it
	// with Shutdown.
	JobServer = serve.Server
	// JobServerConfig configures a JobServer; DistAddrs names the worker job
	// servers its distributed jobs post their tasks to.
	JobServerConfig = serve.Config
	// JobSpec is one job submission (the POST /v1/jobs body).
	JobSpec = serve.JobSpec
	// Job is a queued or running simulation job.
	Job = serve.Job
)

// NewJobServer starts a job service's worker pool and returns it. The
// error is the durable journal's (JobServerConfig.StateDir); an in-memory
// server cannot fail.
func NewJobServer(cfg JobServerConfig) (*JobServer, error) { return serve.New(cfg) }

// Benchmark generators.
type (
	// GridSpec describes a rectangular power-grid model.
	GridSpec = pdn.GridSpec
	// StiffMeshSpec describes the stiff RC meshes of the paper's Table 1.
	StiffMeshSpec = pdn.StiffMeshSpec
)

// IBMCase returns the synthetic stand-in for an IBM power grid benchmark
// ("ibmpg1t" … "ibmpg6t"); scale multiplies the grid edge length.
func IBMCase(name string, scale float64) (GridSpec, error) { return pdn.IBMCase(name, scale) }

// IBMSuite lists the six benchmark names.
func IBMSuite() []string { return pdn.IBMSuite() }

// Ladder builds an n-stage RC ladder with a drive current (analytic
// validation workload).
func Ladder(n int, r, c float64, drive Waveform) (*Circuit, error) {
	return pdn.Ladder(n, r, c, drive)
}

// Stiffness measures Re(λmin)/Re(λmax) of -C⁻¹G by power iteration.
func Stiffness(sys *System, iters int) (float64, error) { return pdn.Stiffness(sys, iters) }
