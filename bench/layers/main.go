// Command layers is the traced pass of the MATEX benchmark: it replays
// one deck in-process, stage by stage, through the public functions of
// each layer — netlist, circuit, sparse, dense, krylov, transient, dist —
// with a span around every call, and prints the per-layer metrics and the
// spans as one JSON object. Unlike bench/e2e it imports internal/
// packages; if a refactor breaks its build, the end-to-end metrics are
// still measured and the harness reports these as missing.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"github.com/matex-sim/matex/internal/circuit"
	"github.com/matex-sim/matex/internal/dense"
	"github.com/matex-sim/matex/internal/dist"
	"github.com/matex-sim/matex/internal/krylov"
	"github.com/matex-sim/matex/internal/netlist"
	"github.com/matex-sim/matex/internal/sparse"
	"github.com/matex-sim/matex/internal/transient"
)

// The solver settings are the matex CLI's defaults, so the replay does
// the work `matex deck` does.
const (
	gamma   = 1e-10
	tol     = 1e-6
	cacheMB = 256
	spotH   = 100e-12 // one segment of the 100 ps bump lattice
)

const (
	reps   = 3  // cheap stages: median of this many calls
	solves = 50 // triangular solve pairs per timing span
	panels = 8  // 8-wide SolveMulti panels per timing span
	expms  = 20 // small matrix exponentials per timing span
)

func main() {
	deckPath := flag.String("deck", "", "netlist to replay")
	workload := flag.String("workload", "", "workload name recorded in every span")
	seed := flag.Int64("seed", 1, "seed of the right-hand sides and the Krylov start vector")
	flag.Parse()
	if *deckPath == "" || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: layers -deck FILE [-workload NAME] [-seed N]")
		os.Exit(2)
	}
	r := &replay{
		tr:  NewTracer(*workload, fmt.Sprintf("%s-seed%d", *workload, *seed)),
		m:   map[string]float64{},
		rng: rand.New(rand.NewSource(*seed)),
	}
	r.tr.Do("bench", "replay", 1, func() { r.run(*deckPath) })
	if r.err != nil {
		fmt.Fprintln(os.Stderr, "layers:", r.err)
		os.Exit(1)
	}
	if err := Validate(r.tr.Spans()); err != nil {
		fmt.Fprintln(os.Stderr, "layers: invalid trace:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(map[string]any{"metrics": r.m, "spans": r.tr.Spans()})
	if err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// replay carries one traced pass: the tracer, the metrics so far and the
// first error, after which every stage is skipped.
type replay struct {
	tr  *Tracer
	m   map[string]float64
	rng *rand.Rand
	err error
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// stage calls f reps times, each under its own span inside one parent
// span, and returns the median call time in milliseconds. f reports
// failure through r.err.
func (r *replay) stage(layer, name string, f func()) float64 {
	return r.batches(layer, name, 1, f)
}

// loop times batches of count identical calls, each batch under one span,
// and returns the median batch's time per call.
func (r *replay) loop(layer, name string, count int, f func()) time.Duration {
	batch := r.batches(layer, name, count, func() {
		for i := 0; i < count; i++ {
			f()
		}
	})
	return time.Duration(batch * 1e6 / float64(count))
}

// batches runs f reps times, each run a span covering count calls, and
// returns the median run time in milliseconds.
func (r *replay) batches(layer, name string, count int, f func()) float64 {
	if r.err != nil {
		return 0
	}
	durs := make([]float64, 0, reps)
	r.tr.Do(layer, fmt.Sprintf("%s x%d", name, reps), reps*count, func() {
		for i := 0; i < reps && r.err == nil; i++ {
			durs = append(durs, ms(r.tr.Do(layer, name, count, f).Dur()))
		}
	})
	if r.err != nil {
		return 0
	}
	sort.Float64s(durs)
	return durs[len(durs)/2]
}

func (r *replay) randVec(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = r.rng.NormFloat64()
	}
	return v
}

func (r *replay) run(deckPath string) {
	var data []byte
	r.tr.Do("cmd", "os.ReadFile", 1, func() { data, r.err = os.ReadFile(deckPath) })

	var deck *netlist.Deck
	parse := r.stage("netlist", "netlist.Parse", func() { deck, r.err = netlist.Parse(bytes.NewReader(data)) })
	var sys *circuit.System
	stamp := r.stage("circuit", "circuit.Stamp", func() {
		sys, r.err = circuit.Stamp(deck.Circuit, circuit.StampOptions{CollapseSupplies: true})
	})
	if r.err != nil {
		return
	}
	r.m["netlist.parse_ms"] = parse
	r.m["netlist.parse_mb_per_s"] = float64(len(data)) / 1e6 / (parse / 1e3)
	r.m["netlist.deck_kb"] = float64(len(data)) / 1024
	r.m["circuit.stamp_ms"] = stamp
	r.m["circuit.unknowns"] = float64(sys.N)
	r.m["circuit.nnz"] = float64(sys.G.NNZ() + sys.C.NNZ())

	fact := r.sparse(sys)
	r.krylov(sys, fact)
	r.transient(deck, sys)

	var tasks []dist.Task
	r.m["dist.partition_ms"] = r.stage("dist", "dist.Partition", func() { tasks = dist.Partition(sys, deck.TranStop) })
	r.m["dist.groups"] = float64(len(tasks))
}

// sparse times the factorization of the R-MATEX shift matrix C + γG on
// the path sparse.Factor(FactorAuto) takes for it — LDLt when the deck
// stamps symmetric matrices, GP-LU when it does not — and then GP-LU
// unconditionally, so the other path has numbers on every deck.
func (r *replay) sparse(sys *circuit.System) sparse.Factorization {
	if r.err != nil {
		return nil
	}
	a := sparse.Add(1, sys.C, gamma, sys.G)
	var fact sparse.Factorization
	var analyze, refactor float64
	if a.IsSymmetric(0) {
		var symb *sparse.Symbolic
		analyze = r.stage("sparse", "sparse.AnalyzeLDLT", func() { symb, r.err = sparse.AnalyzeLDLT(a, sparse.OrderDefault) })
		refactor = r.stage("sparse", "Symbolic.Refactor", func() { fact, r.err = symb.Refactor(a) })
	} else {
		// LU has no symbolic phase; its analysis is the ordering alone,
		// which FactorLU then repeats inside the factor time.
		analyze = r.stage("sparse", "sparse.Order", func() { sparse.Order(a, sparse.OrderDefault) })
		refactor = r.stage("sparse", "sparse.FactorLU", func() { fact, r.err = sparse.FactorLU(a, sparse.OrderDefault, 1.0) })
	}
	if r.err != nil {
		return nil
	}
	n := fact.N()
	b, dst, work := r.randVec(n), make([]float64, n), make([]float64, n)
	pair := r.loop("sparse", "Factorization.SolveWith", solves, func() { fact.SolveWith(dst, b, work) })

	const k = 8
	bs, ds := make([][]float64, k), make([][]float64, k)
	for i := range bs {
		bs[i], ds[i] = r.randVec(n), make([]float64, n)
	}
	var perRHS time.Duration
	if multi, ok := fact.(sparse.MultiSolver); ok {
		perRHS = r.loop("sparse", "MultiSolver.SolveMulti k=8", panels, func() { multi.SolveMulti(ds, bs) }) / k
	} else {
		perRHS = r.loop("sparse", "Factorization.SolveWith k=8", panels, func() {
			for i := range bs {
				fact.SolveWith(ds[i], bs[i], work)
			}
		}) / k
	}

	var lu *sparse.LU
	luFactor := r.tr.Do("sparse", "sparse.FactorLU (forced)", 1, func() { lu, r.err = sparse.FactorLU(a, sparse.OrderDefault, 1.0) })
	if r.err != nil {
		return nil
	}
	luSolve := r.loop("sparse", "LU.SolveWith", solves, func() { lu.SolveWith(dst, b, work) })

	r.m["sparse.analyze_ms"] = analyze
	r.m["sparse.refactor_ms"] = refactor
	r.m["sparse.factor_nnz"] = float64(fact.NNZ())
	r.m["sparse.solve_pair_us"] = us(pair)
	// One forward and one backward sweep, each reading every stored
	// factor entry once: an 8-byte value and a 4-byte row index. Computed
	// from the factor size, not measured; cache misses are not in it.
	r.m["sparse.solve_bytes_computed"] = 12 * float64(fact.NNZ()) * 2
	r.m["sparse.solve_multi8_us_per_rhs"] = us(perRHS)
	r.m["sparse.lu_factor_ms"] = ms(luFactor.Dur())
	r.m["sparse.lu_solve_us"] = us(luSolve)
	return fact
}

// krylov times one rational-Krylov spot the way the R-MATEX driver runs
// it — generate the subspace for e^{hA}v to the CLI's tolerance, then the
// posterior error estimate — from a seeded start vector, pinned to the
// Arnoldi process (the one most spots of the dynamic decks take, and the
// one that forms the dense projection dense.Expm is timed on).
func (r *replay) krylov(sys *circuit.System, fact sparse.Factorization) {
	if r.err != nil {
		return
	}
	op := krylov.NewRationalOp(fact, sys.C, sys.G, gamma, &krylov.Counters{})
	op.ClearSegment()
	v := make([]float64, op.N())
	copy(v, r.randVec(sys.N))
	ws := krylov.DefaultWorkspaces.Get()
	defer krylov.DefaultWorkspaces.Put(ws)
	opts := krylov.Options{Tol: tol, Method: krylov.MethodArnoldi, Workspace: ws}
	hCheck := []float64{spotH}

	var sub *krylov.Subspace
	var mem0, mem1 runtime.MemStats
	spot := func() {
		if sub, r.err = krylov.Generate(op, v, hCheck, opts); r.err == nil {
			_, r.err = sub.ErrEstimate(spotH)
		}
	}
	spotMS := r.stage("krylov", "krylov.Generate+ErrEstimate", spot)
	if r.err != nil {
		return
	}
	// Allocations of one more spot, the workspace now warm.
	runtime.ReadMemStats(&mem0)
	spot()
	runtime.ReadMemStats(&mem1)
	if r.err != nil {
		return
	}
	r.m["krylov.spot_ms"] = spotMS
	r.m["krylov.spot_dim"] = float64(sub.Dim())
	r.m["krylov.spot_self_ms"] = spotMS - float64(sub.Dim())*r.m["sparse.solve_pair_us"]/1e3
	r.m["krylov.spot_allocs"] = float64(mem1.Mallocs - mem0.Mallocs)

	hm := sub.Hm().Clone().Scale(spotH)
	r.m["dense.expm_us"] = us(r.loop("dense", fmt.Sprintf("dense.Expm m=%d", sub.Dim()), expms, func() {
		if _, err := dense.Expm(hm); err != nil {
			r.err = err
		}
	}))
}

// transient runs the whole R-MATEX simulation as `matex deck` does,
// without a span and inside one; the difference is the tracing overhead.
// Counts come from the last traced run's Stats.
func (r *replay) transient(deck *netlist.Deck, sys *circuit.System) {
	if r.err != nil {
		return
	}
	probes, _, _, err := sys.ResolveProbes(deck.Prints)
	if err != nil {
		r.err = err
		return
	}
	simulate := func() *transient.Result {
		res, err := transient.Simulate(sys, transient.RMATEX, transient.Options{
			Tstop: deck.TranStop, Step: deck.TranStep, Tol: tol, Gamma: gamma,
			Probes: probes, Cache: sparse.NewCache(cacheMB << 20),
		})
		if err != nil {
			r.err = err
		}
		return res
	}
	// Alternate the two so that heap growth and machine noise fall on
	// both alike; report medians. Allocations are those of the last run.
	var res *transient.Result
	var mem0, mem1 runtime.MemStats
	untracedMS, tracedMS := make([]float64, reps), make([]float64, reps)
	for i := 0; i < reps && r.err == nil; i++ {
		start := time.Now()
		simulate()
		untracedMS[i] = ms(time.Since(start))
		runtime.ReadMemStats(&mem0)
		tracedMS[i] = ms(r.tr.Do("transient", "transient.Simulate", 1, func() { res = simulate() }).Dur())
		runtime.ReadMemStats(&mem1)
	}
	if r.err != nil {
		return
	}
	sort.Float64s(untracedMS)
	sort.Float64s(tracedMS)
	untraced, traced := untracedMS[reps/2], tracedMS[reps/2]
	s := &res.Stats
	r.m["transient.simulate_ms"] = traced
	// The two phases before the integration loop, as one figure: the
	// unsymmetric path reports no FactorTime of its own, and a time that
	// reads 0 on every run of a workload says nothing.
	r.m["transient.dc_factor_ms"] = ms(s.DCTime + s.FactorTime)
	r.m["transient.dc_ms"] = ms(s.DCTime) // not reported; the harness subtracts it from a D-MATEX run
	// Modelled, not measured: what is left of the run after DC, factor
	// and the solve pairs at the kernel's own timing — Krylov
	// orthogonalisation, small expm, error estimates, bookkeeping. The
	// kernel is timed on dense right-hand sides; in-situ ones with exact
	// zeros skip work, so this is a lower bound and can dip below 0.
	r.m["transient.self_ms"] = traced - r.m["transient.dc_factor_ms"] -
		float64(s.SolvePairs)*r.m["sparse.solve_pair_us"]/1e3
	r.m["transient.factorizations"] = float64(s.Factorizations)
	r.m["transient.solve_pairs"] = float64(s.SolvePairs)
	r.m["transient.spmvs"] = float64(s.SpMVs)
	r.m["transient.expm_evals"] = float64(s.ExpmEvals)
	r.m["transient.steps"] = float64(s.Steps)
	r.m["transient.rejected"] = float64(s.Rejected)
	r.m["transient.m_a"] = s.MA()
	r.m["transient.m_p"] = float64(s.MP())
	r.m["transient.lanczos_spots"] = float64(s.LanczosSpots)
	r.m["transient.mallocs"] = float64(mem1.Mallocs - mem0.Mallocs)
	r.m["transient.alloc_mb"] = float64(mem1.TotalAlloc-mem0.TotalAlloc) / (1 << 20)
	r.m["trace.overhead_pct"] = 100 * (traced - untraced) / untraced
}
