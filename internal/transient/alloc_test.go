package transient

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"github.com/matex-sim/matex/internal/circuit"
	"github.com/matex-sim/matex/internal/krylov"
	"github.com/matex-sim/matex/internal/pdn"
	"github.com/matex-sim/matex/internal/sparse"
	"github.com/matex-sim/matex/internal/waveform"
)

// TestWarmKernelsAllocateNothing is the allocation contract of the solver's
// hot path, held at run time: once a kernel has run on its scratch — a
// factor with its solve workspace, a Krylov workspace that has seen a spot
// as large — running it again allocates nothing. One row per warm kernel:
// the LDLᵀ refactorization, the LDLᵀ and LU substitution pairs, subspace
// generation for both Krylov processes over each of the three operators,
// and the snapshot evaluation of each subspace.
//
// The last rows are whole warm MATEX runs, held per spot to what a run
// hands out: the row it records (one slice per output sample; the deck
// samples at every spot) and, on a deviation run, the run-ahead launch of
// the next segment's input solves (the goroutine's closure and the state
// it captures: two objects). Everything else a run allocates — the result,
// the DC state, the time grids, the operator and segment buffers, and the
// amortized growth of the result's slices — is its setup, which the deck's
// 400 spots spread to under half an allocation per spot. A kernel that
// allocated once per spot would take a run over its budget.
func TestWarmKernelsAllocateNothing(t *testing.T) {
	// With the collector off and one P, the run takes back from
	// krylov.DefaultWorkspaces the workspace the previous run put (sync.Pool
	// keeps one per P and drops them at collections), so a warm run is
	// warm. Under the race detector the pool drops objects at random.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	type row struct {
		name string
		run  func() error
		// spots, when set, is the Krylov spots of the last run, and budget
		// bounds the allocations per spot; else a call allocates nothing.
		spots  func() int
		budget float64
	}
	var rows []row

	sys := allocPulsedMesh(t)
	cm, gm, n := sys.C, sys.G, sys.N
	cache := sparse.NewCache(0)
	sym, err := sparse.AnalyzeLDLT(gm, sparse.OrderDefault)
	if err != nil {
		t.Fatal(err)
	}
	ldlt, err := sym.Refactor(gm)
	if err != nil {
		t.Fatal(err)
	}
	lu, err := sparse.FactorLU(allocUnsym(gm), sparse.OrderDefault, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, x, work := allocVec(n, 1), make([]float64, n), make([]float64, n)
	rows = append(rows,
		row{name: "sparse/LDLT.RefactorInto", run: func() error { return sym.RefactorInto(ldlt, gm) }},
		row{name: "sparse/LDLT.SolveWith", run: func() error { ldlt.SolveWith(x, b, work); return nil }},
		row{name: "sparse/LU.SolveWith", run: func() error { lu.SolveWith(x, b, work); return nil }},
	)

	// The three operators on the mesh, each with steps its subspace
	// converges at: ‖A‖ ≈ 4e14, so MEXP's standard space needs h‖A‖ ~ 1.
	const gamma = 1e-11
	factC, _, err := cache.Factor(cm, sparse.OrderDefault)
	if err != nil {
		t.Fatal(err)
	}
	factG, _, err := cache.Factor(gm, sparse.OrderDefault)
	if err != nil {
		t.Fatal(err)
	}
	factS, _, err := cache.FactorSum(1, cm, gamma, gm, sparse.OrderDefault)
	if err != nil {
		t.Fatal(err)
	}
	count := &krylov.Counters{}
	ws := &krylov.Workspace{}
	for _, o := range []struct {
		name  string
		op    *krylov.Op
		steps []float64
	}{
		{"MEXP", krylov.NewStandardOp(factC, cm, gm, count), []float64{1e-14, 2.5e-15}},
		{"IMATEX", krylov.NewInvertedOp(factG, cm, gm, count), []float64{1e-11, 2.5e-12}},
		{"RMATEX", krylov.NewRationalOp(factS, cm, gm, gamma, count), []float64{1e-11, 2.5e-12}},
	} {
		v := allocVec(o.op.N(), 2)
		clear(v[n:]) // inputs off: the augmented operators stay Lanczos-eligible
		dst := make([]float64, o.op.N())
		for _, p := range []struct {
			name   string
			method krylov.Method
		}{{"Arnoldi", krylov.MethodArnoldi}, {"Lanczos", krylov.MethodAuto}} {
			opts := krylov.Options{MaxDim: 60, Tol: 1e-7, Method: p.method, Workspace: ws}
			generate := func() (*krylov.Subspace, error) {
				count.Dims = count.Dims[:0] // the counters' growth is the caller's
				sub, err := krylov.Generate(o.op, v, o.steps, opts)
				if err == nil && sub.Lanczos() != (p.method == krylov.MethodAuto) {
					t.Fatalf("%s: Generate ran the other process", o.name)
				}
				return sub, err
			}
			var sub *krylov.Subspace
			rows = append(rows,
				row{name: "krylov.Generate/" + o.name + "/" + p.name, run: func() error {
					_, err := generate()
					return err
				}},
				// The subspace is generated on the first call, in the warm-up
				// batch; the counted calls evaluate snapshots only.
				row{name: "Subspace.EvalExp/" + o.name + "/" + p.name, run: func() error {
					if sub == nil {
						var err error
						if sub, err = generate(); err != nil {
							return err
						}
					}
					for _, h := range o.steps {
						if err := sub.EvalExp(h, dst); err != nil {
							return err
						}
					}
					return nil
				}},
			)
		}
	}

	if !raceEnabled {
		for _, r := range []struct {
			name   string
			method Method
			krylov krylov.Method
			budget float64
		}{
			{"RMATEX/Arnoldi", RMATEX, krylov.MethodArnoldi, 1 + 0.5}, // augmented ramps: a row
			{"IMATEX/auto", IMATEX, krylov.MethodAuto, 1 + 2 + 0.5},   // deviation: a row and a launch
		} {
			opts := Options{Tstop: 40e-9, Probes: []int{0, n / 2, n - 1}, Cache: cache, Krylov: r.krylov}
			var res *Result
			rows = append(rows, row{
				name: "SimulateMatex/" + r.name,
				run: func() error {
					var err error
					res, err = SimulateMatex(sys, r.method, opts)
					return err
				},
				spots:  func() int { return len(res.Stats.KrylovDims) },
				budget: r.budget,
			})
		}
	}

	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			// A row counts the allocations of a whole batch of calls, after
			// one batch to warm it, not a mean floored per call: storage that
			// grows by doubling allocates every few calls, and a floored mean
			// would read 0.
			calls := 20
			if r.spots != nil {
				calls = 2
			}
			var err error
			allocs := testing.AllocsPerRun(1, func() {
				for i := 0; i < calls && err == nil; i++ {
					err = r.run()
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if r.spots == nil {
				if allocs != 0 {
					t.Errorf("%d warm calls allocate %v objects, want 0", calls, allocs)
				}
				return
			}
			spots := calls * r.spots()
			per := allocs / float64(spots)
			t.Logf("%v objects over %d spots: %.2f per spot", allocs, spots, per)
			if per > r.budget {
				t.Errorf("%d warm runs allocate %v objects over %d spots, %.2f per spot; budget %.1f", calls, allocs, spots, per, r.budget)
			}
		})
	}
}

// allocUnsym is g with its upper off-diagonal halved: an unsymmetric,
// diagonally dominant matrix for the LU row.
func allocUnsym(g *sparse.CSC) *sparse.CSC {
	tr := sparse.NewTriplet(g.Rows, g.Cols)
	for i, row := range g.Dense() {
		for j, v := range row {
			if v != 0 && j > i {
				v /= 2
			}
			if v != 0 {
				tr.Add(i, j, v)
			}
		}
	}
	return tr.ToCSC()
}

// allocPulsedMesh is a 16×16 RC mesh, its capacitors spread over two
// decades, driven by a 0.4 ns periodic pulse: 400 transition spots in
// 40 ns, each an output sample. Under nested dissection its LDLᵀ factor has
// separator panels several columns wide.
func allocPulsedMesh(t *testing.T) *circuit.System {
	t.Helper()
	spec := pdn.StiffMeshSpec{NX: 16, NY: 16, RSeg: 1, CBase: 1e-12, Spread: 100,
		Drive: &waveform.Pulse{V2: 1e-3, Delay: 0.1e-9, Rise: 0.02e-9, Width: 0.1e-9, Fall: 0.02e-9, Period: 0.4e-9}}
	ckt, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := circuit.Stamp(ckt, circuit.StampOptions{CollapseSupplies: true})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func allocVec(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}
