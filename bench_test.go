package matex

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/matex-sim/matex/internal/circuit"
	"github.com/matex-sim/matex/internal/dist"
	"github.com/matex-sim/matex/internal/experiments"
	"github.com/matex-sim/matex/internal/job"
	"github.com/matex-sim/matex/internal/krylov"
	"github.com/matex-sim/matex/internal/netlist"
	"github.com/matex-sim/matex/internal/pdn"
	"github.com/matex-sim/matex/internal/serve"
	"github.com/matex-sim/matex/internal/sparse"
	"github.com/matex-sim/matex/internal/sweep"
	"github.com/matex-sim/matex/internal/transient"
	"github.com/matex-sim/matex/internal/waveform"
)

// The benchmarks regenerate each paper table/figure at reduced scale so the
// full suite stays laptop-friendly; cmd/experiments runs the full versions.
// One benchmark per table row family / figure, as the reproduction contract
// requires.

func benchSystem(b *testing.B, name string, scale float64) *circuit.System {
	return benchSystemCNode(b, name, scale, 0)
}

// benchSystemCNode sets every node capacitor to cnode farads (0: the stock
// 10 fF).
func benchSystemCNode(b *testing.B, name string, scale, cnode float64) *circuit.System {
	b.Helper()
	spec, err := pdn.IBMCase(name, scale)
	if err != nil {
		b.Fatal(err)
	}
	if cnode > 0 {
		spec.CNode = cnode
	}
	ckt, err := spec.Build()
	if err != nil {
		b.Fatal(err)
	}
	sys, err := circuit.Stamp(ckt, circuit.StampOptions{CollapseSupplies: true})
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

func stiffBenchSystem(b *testing.B, spread float64) *circuit.System {
	b.Helper()
	spec := pdn.StiffMeshSpec{
		NX: 8, NY: 8, RSeg: 1, CBase: 1e-12, Spread: spread,
		Drive: &waveform.Pulse{V1: 0, V2: 1e-3, Delay: 0.02e-9, Rise: 0.01e-9, Width: 0.1e-9, Fall: 0.01e-9},
	}
	ckt, err := spec.Build()
	if err != nil {
		b.Fatal(err)
	}
	sys, err := circuit.Stamp(ckt, circuit.StampOptions{CollapseSupplies: true})
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

// --- Table 1: stiff RC mesh, MEXP vs I-MATEX vs R-MATEX ------------------

func benchTable1(b *testing.B, method transient.Method, spread float64) {
	sys := stiffBenchSystem(b, spread)
	evals := make([]float64, 0, 61)
	for t := 0.0; t <= 0.3e-9+1e-18; t += 5e-12 {
		evals = append(evals, t)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := transient.Simulate(sys, method, transient.Options{
			Tstop: 0.3e-9, EvalTimes: evals, Tol: 1e-7, Gamma: 5e-12,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Stats.MA(), "m_a")
			b.ReportMetric(float64(res.Stats.MP()), "m_p")
			b.ReportMetric(float64(res.Stats.SolvePairs), "solve_pairs")
		}
	}
}

func BenchmarkTable1_MEXP_Stiff1e8(b *testing.B)    { benchTable1(b, transient.MEXP, 2.1e8) }
func BenchmarkTable1_IMATEX_Stiff1e8(b *testing.B)  { benchTable1(b, transient.IMATEX, 2.1e8) }
func BenchmarkTable1_RMATEX_Stiff1e8(b *testing.B)  { benchTable1(b, transient.RMATEX, 2.1e8) }
func BenchmarkTable1_MEXP_Stiff1e12(b *testing.B)   { benchTable1(b, transient.MEXP, 2.1e12) }
func BenchmarkTable1_IMATEX_Stiff1e12(b *testing.B) { benchTable1(b, transient.IMATEX, 2.1e12) }
func BenchmarkTable1_RMATEX_Stiff1e12(b *testing.B) { benchTable1(b, transient.RMATEX, 2.1e12) }
func BenchmarkTable1_MEXP_Stiff1e16(b *testing.B)   { benchTable1(b, transient.MEXP, 2.1e16) }
func BenchmarkTable1_IMATEX_Stiff1e16(b *testing.B) { benchTable1(b, transient.IMATEX, 2.1e16) }
func BenchmarkTable1_RMATEX_Stiff1e16(b *testing.B) { benchTable1(b, transient.RMATEX, 2.1e16) }

// --- Table 2: IBM-style grids, adaptive TR vs I-MATEX vs R-MATEX ----------

func benchTable2(b *testing.B, method transient.Method, scale, cnode float64) {
	sys := benchSystemCNode(b, "ibmpg1t", scale, cnode)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := transient.Options{Tstop: 10e-9, Tol: 1e-6}
		if method == transient.TRAdaptive {
			opts.Tol = 1e-4
		}
		res, err := transient.Simulate(sys, method, opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && method != transient.TRAdaptive {
			// Counted, so scripts/benchcmp can hold them to the baseline's on
			// any runner: a lost deviation path shows as more pairs, and
			// input solves the MATEX loop computed ahead and threw away as
			// input_discarded.
			b.ReportMetric(float64(res.Stats.SolvePairs), "solve_pairs")
			b.ReportMetric(float64(res.Stats.LanczosSpots), "lanczos_spots")
			b.ReportMetric(float64(res.Stats.InputAhead), "input_ahead")
			b.ReportMetric(float64(res.Stats.InputDiscarded), "input_discarded")
		}
	}
}

func BenchmarkTable2_TRAdaptive_ibmpg1t(b *testing.B) { benchTable2(b, transient.TRAdaptive, 0.25, 0) }
func BenchmarkTable2_IMATEX_ibmpg1t(b *testing.B)     { benchTable2(b, transient.IMATEX, 0.25, 0) }
func BenchmarkTable2_RMATEX_ibmpg1t(b *testing.B)     { benchTable2(b, transient.RMATEX, 0.25, 0) }

// BenchmarkTable2_RMATEX_ibmpg1t_dyn is the R-MATEX row on the full-size
// grid at 0.5 pF per node, where the mesh time constants reach the segment
// scale and the ramps move from the augmented to the deviation treatment
// (see SimulateMatex; at scale 0.25 augmented stays the cheaper one).
func BenchmarkTable2_RMATEX_ibmpg1t_dyn(b *testing.B) {
	benchTable2(b, transient.RMATEX, 1, 0.5e-12)
}

// BenchmarkTable2_TRAdaptiveCached_ibmpg1t is the TR(adpt) row with one
// cache lent to every iteration: within a run step quantization already
// makes revisited step sizes hits (the run's own cache, as in
// BenchmarkTable2_TRAdaptive_ibmpg1t), and from the second iteration on
// every factorization is a hit, so the gap between the two rows is the
// reuse across runs. factorizations/cache_hits are the first iteration's.
func BenchmarkTable2_TRAdaptiveCached_ibmpg1t(b *testing.B) {
	sys := benchSystem(b, "ibmpg1t", 0.25)
	cache := sparse.NewCache(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := transient.Simulate(sys, transient.TRAdaptive, transient.Options{
			Tstop: 10e-9, Tol: 1e-4, Cache: cache,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.Stats.Factorizations), "factorizations")
			b.ReportMetric(float64(res.Stats.CacheHits), "cache_hits")
		}
	}
}

// --- Table 3: fixed-step TR (1000 steps) vs distributed MATEX -------------

func BenchmarkTable3_TR1000_ibmpg1t(b *testing.B) {
	sys := benchSystem(b, "ibmpg1t", 0.25)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := transient.Simulate(sys, transient.TRFixed, transient.Options{
			Tstop: 10e-9, Step: 10e-12,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.Stats.SolvePairs), "subst_pairs")
		}
	}
}

func BenchmarkTable3_MATEXDist_ibmpg1t(b *testing.B) {
	sys := benchSystem(b, "ibmpg1t", 0.25)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, rep, err := dist.Run(dist.NewSystem(sys), transient.RMATEX, dist.Config{
			Base: transient.Options{Tstop: 10e-9, Tol: 1e-6, Gamma: 1e-10},
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(rep.Groups), "groups")
		}
	}
}

// BenchmarkTable3_MATEXDistCached_ibmpg1t reuses one factorization cache
// across iterations — the steady-state cost of a scheduler issuing repeated
// distributed runs (every run after the first is refactorization-free).
func BenchmarkTable3_MATEXDistCached_ibmpg1t(b *testing.B) {
	sys := benchSystem(b, "ibmpg1t", 0.25)
	cache := sparse.NewCache(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _, err := dist.Run(dist.NewSystem(sys), transient.RMATEX, dist.Config{
			Base: transient.Options{Tstop: 10e-9, Tol: 1e-6, Gamma: 1e-10, Cache: cache},
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 1 && res.Stats.Factorizations != 0 {
			b.Fatalf("warm run performed %d factorizations, want 0", res.Stats.Factorizations)
		}
	}
}

// --- D-MATEX cut for the nodes present vs one task per group (PR 14) --------
//
// Both rows keep two tasks in flight over a warm factorization cache; they
// differ only in the node count the pool reports, hence in the plan: one
// task per bump-feature group (the paper's cluster, queued two at a time)
// against the same groups merged into two tasks. benchcmp gates the fresh
// 2Nodes row at ≤ 0.80x the fresh PerGroup row.

// benchDist runs D-MATEX on a pool of the given node count (0: one node per
// bump-feature group).
func benchDist(b *testing.B, nodes int) {
	sys := benchSystem(b, "ibmpg1t", 1)
	if nodes == 0 {
		nodes = len(dist.Partition(sys, 10e-9))
	}
	cache := sparse.NewCache(0)
	cfg := dist.Config{
		Base: transient.Options{Tstop: 10e-9, Tol: 1e-6, Gamma: 1e-10, Cache: cache},
		Pool: dist.NewLocalPool(nodes, cache), Workers: 2,
	}
	dsys := dist.NewSystem(sys)
	if _, _, err := dist.Run(dsys, transient.RMATEX, cfg); err != nil { // warm the cache
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, rep, err := dist.Run(dsys, transient.RMATEX, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(rep.Tasks), "tasks")
			b.ReportMetric(float64(res.Stats.Spots()), "spots")
			b.ReportMetric(float64(res.Stats.SolvePairs), "solve_pairs")
		}
	}
}

func BenchmarkDist_PerGroup_ibmpg1t(b *testing.B) { benchDist(b, 0) }
func BenchmarkDist_2Nodes_ibmpg1t(b *testing.B)   { benchDist(b, 2) }

// --- Symmetric Lanczos fast path vs Arnoldi (PR 3) -------------------------
//
// The stock ibmpg decks are quasi-static at their own time scale (node time
// constants ~10 fs against 100 ps segments), which collapses every subspace
// to m ≈ 1-4 and measures nothing. Raising the node capacitance to 0.5 pF
// puts the mesh dynamics at the segment scale, giving the realistic m ≈ 15
// subspaces the fast-path comparison is about. Regenerate BENCH_BASELINE.json
// with scripts/bench.sh after touching any of this.

func krylovBenchSystem(b *testing.B) *circuit.System {
	b.Helper()
	spec, err := pdn.IBMCase("ibmpg1t", 1.0)
	if err != nil {
		b.Fatal(err)
	}
	spec.CNode = 5e-13
	ckt, err := spec.Build()
	if err != nil {
		b.Fatal(err)
	}
	sys, err := circuit.Stamp(ckt, circuit.StampOptions{CollapseSupplies: true})
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

// benchKrylovSpot measures one transition spot's full Krylov pipeline — the
// solver's hot path: generate the subspace at the spot, then evaluate every
// snapshot of the segment's output grid by subspace reuse. The Arnoldi path
// pays a dense expm per snapshot; the Lanczos spectral form pays O(m²).
func benchKrylovSpot(b *testing.B, mode transient.Method, method krylov.Method, snapshots int) {
	sys := krylovBenchSystem(b)
	n := sys.N
	count := &krylov.Counters{}
	var op *krylov.Op
	var v []float64
	switch mode {
	case transient.RMATEX:
		gamma := 1e-10
		factS, _, err := sparse.NewCache(0).FactorSum(1, sys.C, gamma, sys.G, sparse.OrderDefault)
		if err != nil {
			b.Fatal(err)
		}
		op = krylov.NewRationalOp(factS, sys.C, sys.G, gamma, count)
		op.ClearSegment()
		v = make([]float64, n+2)
	case transient.IMATEX:
		factG, _, err := sparse.NewCache(0).Factor(sys.G, sparse.OrderDefault)
		if err != nil {
			b.Fatal(err)
		}
		op = krylov.NewInvertedOp(factG, sys.C, sys.G, count)
		v = make([]float64, n)
	default:
		b.Fatalf("unsupported mode %v", mode)
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < n; i++ {
		v[i] = rng.NormFloat64()
	}
	const h = 1e-10 // one GTS segment on the 100 ps corner lattice
	hCheck := []float64{h}
	opts := krylov.Options{Tol: 1e-7, MaxDim: 256, Method: method}
	ws := krylov.DefaultWorkspaces.Get()
	defer krylov.DefaultWorkspaces.Put(ws)
	opts.Workspace = ws
	dst := make([]float64, op.N())
	spot := func() *krylov.Subspace {
		sub, err := krylov.Generate(op, v, hCheck, opts)
		if err != nil {
			b.Fatal(err)
		}
		for s := 1; s <= snapshots; s++ {
			if err := sub.EvalExp(h*float64(s)/float64(snapshots), dst); err != nil {
				b.Fatal(err)
			}
		}
		return sub
	}
	// One spot outside the count grows the workspace to this spot's size,
	// as every spot after a solver's first finds it: the pool may hand the
	// benchmark a fresh one.
	dim := spot().Dim()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spot()
	}
	b.ReportMetric(float64(dim), "dim")
}

// The _Lanczos rows run the default (auto), which takes the Lanczos fast
// path on this symmetric mesh.
func BenchmarkKrylovSpot_RMATEX_Arnoldi(b *testing.B) {
	benchKrylovSpot(b, transient.RMATEX, krylov.MethodArnoldi, 16)
}
func BenchmarkKrylovSpot_RMATEX_Lanczos(b *testing.B) {
	benchKrylovSpot(b, transient.RMATEX, krylov.MethodAuto, 16)
}
func BenchmarkKrylovSpot_IMATEX_Arnoldi(b *testing.B) {
	benchKrylovSpot(b, transient.IMATEX, krylov.MethodArnoldi, 16)
}
func BenchmarkKrylovSpot_IMATEX_Lanczos(b *testing.B) {
	benchKrylovSpot(b, transient.IMATEX, krylov.MethodAuto, 16)
}

// Generation only (no snapshot reuse): isolates the three-term recurrence
// against modified Gram-Schmidt plus the dense Hessenberg check machinery.
// On solve-dominated systems the gap narrows — the solves are shared — so
// this pair bounds the fast path's generation-side win from below, and its
// allocs/op column documents the zero-allocation arena contract.
func BenchmarkKrylovGenerate_RMATEX_Arnoldi(b *testing.B) {
	benchKrylovSpot(b, transient.RMATEX, krylov.MethodArnoldi, 0)
}
func BenchmarkKrylovGenerate_RMATEX_Lanczos(b *testing.B) {
	benchKrylovSpot(b, transient.RMATEX, krylov.MethodAuto, 0)
}

// End-to-end: the full R-MATEX transient on the same mesh, Arnoldi-pinned vs
// auto (Lanczos on eligible spots), sharing a factorization cache across
// iterations so the subspace work dominates.
func benchKrylovE2E(b *testing.B, method krylov.Method) {
	sys := krylovBenchSystem(b)
	cache := sparse.NewCache(0)
	evals := make([]float64, 0, 501)
	for t := 0.0; t <= 10e-9+1e-18; t += 20e-12 {
		evals = append(evals, t)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := transient.Simulate(sys, transient.RMATEX, transient.Options{
			Tstop: 10e-9, Tol: 1e-7, EvalTimes: evals, Cache: cache, Krylov: method,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.Stats.LanczosSpots), "lanczos_spots")
			b.ReportMetric(res.Stats.MA(), "m_a")
		}
	}
}

func BenchmarkKrylovE2E_RMATEX_Arnoldi(b *testing.B) { benchKrylovE2E(b, krylov.MethodArnoldi) }
func BenchmarkKrylovE2E_RMATEX_Auto(b *testing.B)    { benchKrylovE2E(b, krylov.MethodAuto) }

// --- Factorization engine: symbolic/numeric split, substitution pair -------
//
// The mesh is the ibmpg1t topology at 2× pitch (n = 3564): large enough that
// the solver layer dominates, small enough for the CI smoke run. Minimum degree
// is the ordering of interest here — its elimination tree is bushy (many
// independent subtrees) and its fill on these meshes is the smallest of the
// orderings, which the bucketed implementation makes affordable.

func factorBenchMatrix(b *testing.B) *sparse.CSC {
	b.Helper()
	spec, err := pdn.IBMCase("ibmpg1t", 2.0)
	if err != nil {
		b.Fatal(err)
	}
	spec.CNode = 5e-13
	ckt, err := spec.Build()
	if err != nil {
		b.Fatal(err)
	}
	sys, err := circuit.Stamp(ckt, circuit.StampOptions{CollapseSupplies: true})
	if err != nil {
		b.Fatal(err)
	}
	return sparse.Add(1, sys.C, 1e-10, sys.G)
}

// BenchmarkFactor is the old cost of every γ-grid shift: a from-scratch
// factorization including ordering and symbolic analysis.
func BenchmarkFactor_ibmpg1t2x(b *testing.B) {
	a := factorBenchMatrix(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := sparse.FactorLDLT(a, sparse.OrderMinDegree)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(f.NNZ()), "factor_nnz")
		}
	}
}

// BenchmarkRefactor is the new steady-state cost: numeric refactorization
// against the shared symbolic analysis — the acceptance contract is ≥ 3×
// faster than BenchmarkFactor at 0 allocs/op.
func BenchmarkRefactor_ibmpg1t2x(b *testing.B) {
	a := factorBenchMatrix(b)
	sym, err := sparse.AnalyzeLDLT(a, sparse.OrderMinDegree)
	if err != nil {
		b.Fatal(err)
	}
	f, err := sym.Refactor(a)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sym.RefactorInto(f, a); err != nil {
			b.Fatal(err)
		}
	}
}

func solveBenchFactor(b *testing.B) (*sparse.LDLT, []float64) {
	b.Helper()
	a := factorBenchMatrix(b)
	f, err := sparse.FactorLDLT(a, sparse.OrderMinDegree)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	rhs := make([]float64, a.Rows)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	return f, rhs
}

func BenchmarkSolveSeq_ibmpg1t2x(b *testing.B) {
	f, rhs := solveBenchFactor(b)
	x := make([]float64, f.N())
	work := make([]float64, f.N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.SolveWith(x, rhs, work)
	}
}

// blockDiag tiles copies of a down the diagonal: the multi-domain PDN
// shape (separate power domains share no nodes), whose elimination forest
// has one independent subtree per domain.
func blockDiag(b *testing.B, a *sparse.CSC, copies int) *sparse.CSC {
	b.Helper()
	n := a.Rows
	tr := sparse.NewTriplet(n*copies, n*copies)
	for c := 0; c < copies; c++ {
		off := c * n
		for j := 0; j < n; j++ {
			for p := a.Colptr[j]; p < a.Colptr[j+1]; p++ {
				tr.Add(off+a.Rowidx[p], off+j, a.Values[p])
			}
		}
	}
	return tr.ToCSC()
}

func domainBenchFactor(b *testing.B) (*sparse.LDLT, []float64) {
	b.Helper()
	a := blockDiag(b, factorBenchMatrix(b), 4)
	f, err := sparse.FactorLDLT(a, sparse.OrderMinDegree)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	rhs := make([]float64, a.Rows)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	return f, rhs
}

// BenchmarkSolveSeq_4dom: one substitution pair on a four-domain system
// (block-diagonal ibmpg1t×4), the multi-domain PDN shape whose elimination
// forest forks into independent per-domain subtrees.
func BenchmarkSolveSeq_4dom(b *testing.B) {
	f, rhs := domainBenchFactor(b)
	x := make([]float64, f.N())
	work := make([]float64, f.N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.SolveWith(x, rhs, work)
	}
}

// BenchmarkRefactor_mesh96nd / BenchmarkSolveSeq_mesh96nd: one strongly
// coupled 96×96 mesh under nested dissection, whose fill concentrates in
// the top separators. They amalgamate into wide panels, so these are the
// rows where the blocked kernels carry the most work per factor entry (the
// ibmpg1t2x rows above are the narrow-panel end: minimum degree, ~1.6
// columns per supernode).
func mesh96CSC(b *testing.B) *sparse.CSC {
	b.Helper()
	side := 96
	n := side * side
	tr := sparse.NewTriplet(n, n)
	id := func(i, j int) int { return i*side + j }
	for i := 0; i < side; i++ {
		for j := 0; j < side; j++ {
			c := id(i, j)
			tr.Add(c, c, 4.5)
			if i+1 < side {
				tr.Add(c, id(i+1, j), -1)
				tr.Add(id(i+1, j), c, -1)
			}
			if j+1 < side {
				tr.Add(c, id(i, j+1), -1)
				tr.Add(id(i, j+1), c, -1)
			}
		}
	}
	return tr.ToCSC()
}

func meshNDBenchAnalysis(b *testing.B) (*sparse.Symbolic, *sparse.LDLT, *sparse.CSC, []float64) {
	b.Helper()
	a := mesh96CSC(b)
	sym, err := sparse.AnalyzeLDLT(a, sparse.OrderND)
	if err != nil {
		b.Fatal(err)
	}
	f, err := sym.Refactor(a)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	rhs := make([]float64, a.Rows)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	return sym, f, a, rhs
}

func meshNDBenchFactor(b *testing.B) (*sparse.LDLT, []float64) {
	b.Helper()
	_, f, _, rhs := meshNDBenchAnalysis(b)
	return f, rhs
}

func BenchmarkRefactor_mesh96nd(b *testing.B) {
	sym, f, a, _ := meshNDBenchAnalysis(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sym.RefactorInto(f, a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveSeq_mesh96nd(b *testing.B) {
	f, rhs := meshNDBenchFactor(b)
	x := make([]float64, f.N())
	work := make([]float64, f.N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.SolveWith(x, rhs, work)
	}
}

// gridSolveFactor is the factor matex reuses on a bench workload's deck: the
// deck text parsed and stamped as the CLI does, then the R-MATEX shift
// C + γG (γ = 1e-10) factored under the default ordering; plus a seeded
// dense right-hand side.
func gridSolveFactor(b *testing.B, name string, scale, cnode float64) (*sparse.LDLT, []float64) {
	b.Helper()
	deck, err := netlist.Parse(bytes.NewReader(benchDeckTextCNode(b, name, scale, cnode)))
	if err != nil {
		b.Fatal(err)
	}
	sys, err := deck.Build()
	if err != nil {
		b.Fatal(err)
	}
	f, err := sparse.FactorLDLT(sparse.Add(1, sys.C, 1e-10, sys.G), sparse.OrderDefault)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	rhs := make([]float64, f.N())
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	return f, rhs
}

func benchGridSolve(b *testing.B, name string, scale, cnode float64) {
	f, rhs := gridSolveFactor(b, name, scale, cnode)
	x := make([]float64, f.N())
	work := make([]float64, f.N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.SolveWith(x, rhs, work)
	}
}

// BenchmarkSolveSeq_ibmpg6t15 is one substitution pair on grid_static's
// factor (ibmpg6t × 1.5, stock capacitance): n = 18,029 and 538,654 panel
// entries (4.3 MB of values), more than a 2 MiB L2 holds, so it streams
// from L3.
func BenchmarkSolveSeq_ibmpg6t15(b *testing.B) { benchGridSolve(b, "ibmpg6t", 1.5, 0) }

// BenchmarkSolveSeq_ibmpg5t is one substitution pair on grid_dynamic's
// factor (ibmpg5t, 0.5 pF per node): n = 6,336 and 165,762 panel entries
// (1.3 MB of values), resident in a 2 MiB L2.
func BenchmarkSolveSeq_ibmpg5t(b *testing.B) { benchGridSolve(b, "ibmpg5t", 1, 0.5e-12) }

// --- Fig. 5: rational-Krylov error vs step size ----------------------------

func BenchmarkFig5_ErrorSweep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		series, err := experiments.RunFig5(experiments.Fig5Config{N: 12, Dims: []int{2, 4, 6}, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			experiments.PrintFig5(io.Discard, series)
		}
	}
}

// --- Ablations: design choices called out in DESIGN.md ---------------------

// Ablation: snapshot reuse. Disabling reuse would regenerate a subspace at
// every output point; we emulate the non-reuse cost by running R-MATEX with
// outputs only at transition spots vs a dense output grid, showing the
// per-snapshot cost stays substitution-free (time grows only with expm
// evaluations, not solves).
func BenchmarkAblation_SnapshotReuse_DenseOutputs(b *testing.B) {
	sys := benchSystem(b, "ibmpg1t", 0.25)
	evals := make([]float64, 0, 1001)
	for t := 0.0; t <= 10e-9+1e-18; t += 10e-12 {
		evals = append(evals, t)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := transient.Simulate(sys, transient.RMATEX, transient.Options{
			Tstop: 10e-9, Tol: 1e-6, EvalTimes: evals,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.Stats.SolvePairs), "subst_pairs")
			b.ReportMetric(float64(res.Stats.ExpmEvals), "expm_evals")
		}
	}
}

// Ablation: fill-reducing ordering for the up-front factorization.
func benchOrdering(b *testing.B, order sparse.Ordering) {
	sys := benchSystem(b, "ibmpg2t", 0.3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := transient.Simulate(sys, transient.RMATEX, transient.Options{
			Tstop: 10e-9, Tol: 1e-6, Ordering: order,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_Ordering_ND(b *testing.B)     { benchOrdering(b, sparse.OrderND) }
func BenchmarkAblation_Ordering_MinDeg(b *testing.B) { benchOrdering(b, sparse.OrderMinDegree) }

// --- PR 10: scenario sweeps ----------------------------------------------

// sweepCorners builds k pairwise non-collinear corner variants of the
// deck (each scales a different load source by a different factor), so
// every variant is its own lane and no linearity sharing applies.
func sweepCorners(sys *circuit.System, k int) []sweep.Variant {
	var loads []string
	for _, in := range sys.Inputs {
		if !in.Supply {
			loads = append(loads, in.Name)
		}
	}
	vs := make([]sweep.Variant, k)
	for i := range vs {
		vs[i] = sweep.Variant{
			Name:         fmt.Sprintf("c%d", i),
			SourceScales: map[string]float64{loads[i%len(loads)]: 1 + 0.1*float64(i+1)},
		}
	}
	return vs
}

// sweepCornerFamilies builds the EXPERIMENTS.md corner set: nfam hot-spot
// activity patterns (pattern i puts 1.5x on load i and 0.75x on the rest),
// each run at a low (0.875x) and a high (1.25x) global intensity. The
// values are dyadic, so each pattern's two corners are bitwise-collinear:
// every family plans as one sup+load superposition split and the shared
// supplies-only lane dedupes across all families — 2·nfam variants cost
// nfam load lanes plus one supply lane, all integrating at once.
func sweepCornerFamilies(sys *circuit.System, nfam int) []sweep.Variant {
	var loads []string
	for _, in := range sys.Inputs {
		if !in.Supply {
			loads = append(loads, in.Name)
		}
	}
	var vs []sweep.Variant
	for i := 0; i < nfam; i++ {
		pattern := make(map[string]float64, len(loads))
		for j, name := range loads {
			if j == i%len(loads) {
				pattern[name] = 1.5
			} else {
				pattern[name] = 0.75
			}
		}
		vs = append(vs,
			sweep.Variant{Name: fmt.Sprintf("p%dlo", i), Scale: 0.875, SourceScales: pattern},
			sweep.Variant{Name: fmt.Sprintf("p%dhi", i), Scale: 1.25, SourceScales: pattern})
	}
	return vs
}

// BenchmarkSweepSolo is the per-variant baseline: one solo transient run
// of the deck with a warm factorization cache — what each of a sweep's N
// variants would cost if simulated alone. benchcmp prints
// BenchmarkSweep_k8 over this row for context (the wall ratio follows the
// runner's core count; the gates are on what the sweep rows count).
func BenchmarkSweepSolo(b *testing.B) {
	sys := benchSystem(b, "ibmpg1t", 0.25)
	cache := sparse.NewCache(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := transient.Simulate(sys, transient.RMATEX, transient.Options{
			Tstop: 10e-9, Tol: 1e-6, Cache: cache,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func benchSweep(b *testing.B, variants []sweep.Variant) {
	sys := benchSystem(b, "ibmpg1t", 0.25)
	cache := sparse.NewCache(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sweep.Run(sys, variants, sweep.Options{
			Base:   transient.Options{Tstop: 10e-9, Tol: 1e-6, Cache: cache},
			Method: transient.RMATEX,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.Stats.Lanes), "lanes")
			b.ReportMetric(float64(res.Sim.Factorizations), "factorizations")
		}
	}
}

// BenchmarkSweep_k4 runs 4 pairwise non-collinear per-source corners: no
// linearity sharing is possible, so the row is 4 solo integrations run in
// parallel over one warm factorization cache — its wall over SweepSolo's
// follows the runner's core count.
func BenchmarkSweep_k4(b *testing.B) {
	sys := benchSystem(b, "ibmpg1t", 0.25)
	benchSweep(b, sweepCorners(sys, 4))
}

// BenchmarkSweep_k8 runs the EXPERIMENTS.md 8-corner set (4 collinear
// hot-spot families x 2 intensities): collinearity sharing plans 5 lanes
// for 8 variants, run in parallel over one cache; benchcmp gates the lanes
// and factorizations reported here against the baseline's.
func BenchmarkSweep_k8(b *testing.B) {
	sys := benchSystem(b, "ibmpg1t", 0.25)
	benchSweep(b, sweepCornerFamilies(sys, 4))
}

// benchServeSubmit times serve.Server.Submit on a durable server for the
// ibmpg3t deck as the serve_stream workload posts it (inline, ~310 KiB,
// n = 3,564), and counts what a submission costs besides time: decks parsed
// and stamped (parses/op, from the deck store's misses) and bytes appended
// to the journal (journal_B/op, the job's terminal record included). warm
// resubmits one deck the server has already seen; cold submits a deck it has
// not (a trailing comment makes each text new). The jobs only exist to be
// submitted — a one-step window, settled outside the timer, keeps the single
// worker ahead of the queue. benchcmp gates the warm row on the two counts,
// not on its wall: 0 parses, at most 2 KiB of journal.
// benchDeckText renders an IBM case as the deck text cmd/pgbench and bench/e2e
// write (no .print cards).
func benchDeckText(b *testing.B, name string, scale float64) []byte {
	return benchDeckTextCNode(b, name, scale, 0)
}

// benchDeckTextCNode is benchDeckText with every node capacitor set to cnode
// farads (0: the stock 10 fF).
func benchDeckTextCNode(b *testing.B, name string, scale, cnode float64) []byte {
	b.Helper()
	spec, err := pdn.IBMCase(name, scale)
	if err != nil {
		b.Fatal(err)
	}
	if cnode > 0 {
		spec.CNode = cnode
	}
	ckt, err := spec.Build()
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := netlist.Write(&buf, &netlist.Deck{Circuit: ckt, TranStep: 10e-12, TranStop: spec.Tstop}); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

func benchServeSubmit(b *testing.B, warm bool) {
	text := string(benchDeckText(b, "ibmpg3t", 1))

	dir := b.TempDir()
	srv, err := serve.New(serve.Config{Workers: 1, StateDir: dir})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	submit := func(i int, timed bool) {
		spec := serve.JobSpec{Netlist: text, Tstop: 10e-12}
		if !warm {
			spec.Netlist += fmt.Sprintf("* deck %d\n", i)
		}
		if timed {
			b.StartTimer()
		}
		job, err := srv.Submit(spec)
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		for !job.State().Terminal() {
			time.Sleep(50 * time.Microsecond)
		}
		if st := job.Status(); st.State != serve.JobDone {
			b.Fatalf("%s ended %s (%s)", st.ID, st.State, st.Error)
		}
	}
	journalBytes := func() int64 {
		fi, err := os.Stat(filepath.Join(dir, "journal.jsonl"))
		if err != nil {
			b.Fatal(err)
		}
		return fi.Size()
	}

	b.ReportAllocs()
	b.ResetTimer()
	b.StopTimer()
	submit(0, false) // the server's first job: the deck's first sight on the warm row
	size, parses := journalBytes(), srv.DeckStats().Misses
	for i := 1; i <= b.N; i++ {
		submit(i, true)
	}
	b.ReportMetric(float64(srv.DeckStats().Misses-parses)/float64(b.N), "parses/op")
	b.ReportMetric(float64(journalBytes()-size)/float64(b.N), "journal_B/op")
}

func BenchmarkServeSubmit_warm(b *testing.B) { benchServeSubmit(b, true) }
func BenchmarkServeSubmit_cold(b *testing.B) { benchServeSubmit(b, false) }

// --- Front end: the grid_static deck (ibmpg6t × 1.5, 1.6 MB, 18 k nodes) ---

// BenchmarkParse_ibmpg6t15 is netlist.Parse alone; benchcmp holds its
// allocs/op (a count, not a timing) under an absolute bound.
func BenchmarkParse_ibmpg6t15(b *testing.B) {
	text := benchDeckText(b, "ibmpg6t", 1.5)
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := netlist.Parse(bytes.NewReader(text)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStamp_ibmpg6t15 is circuit.Stamp alone on the parsed deck.
func BenchmarkStamp_ibmpg6t15(b *testing.B) {
	text := benchDeckText(b, "ibmpg6t", 1.5)
	deck, err := netlist.Parse(bytes.NewReader(text))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := circuit.Stamp(deck.Circuit, circuit.StampOptions{CollapseSupplies: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchParseDeck is the whole front end as the CLI and a -workers run see it:
// job.ParseDeck parses the text, stamps it and hashes it (keepText). It runs
// in a warm loop; a cold process pays its first page faults on top.
func benchParseDeck(b *testing.B, name string, scale float64) {
	text := string(benchDeckText(b, name, scale))
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := job.ParseDeck(text, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParseDeck_ibmpg3t is the front end on one of serve_stream's decks
// (0.4 MB); benchcmp holds its allocs/op under an absolute bound.
func BenchmarkParseDeck_ibmpg3t(b *testing.B) { benchParseDeck(b, "ibmpg3t", 1) }

// BenchmarkParseDeck_ibmpg6t15 is the front end on the grid_static deck.
func BenchmarkParseDeck_ibmpg6t15(b *testing.B) { benchParseDeck(b, "ibmpg6t", 1.5) }
