package transient

import (
	"math"
	"testing"

	"github.com/matex-sim/matex/internal/circuit"
	"github.com/matex-sim/matex/internal/pdn"
	"github.com/matex-sim/matex/internal/sparse"
)

func ibmSystem(t *testing.T, scale float64) *circuit.System {
	t.Helper()
	spec, err := pdn.IBMCase("ibmpg1t", scale)
	if err != nil {
		t.Fatal(err)
	}
	ckt, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := circuit.Stamp(ckt, circuit.StampOptions{CollapseSupplies: true})
	if err != nil {
		t.Fatal(err)
	}
	// The integrators form (C/h + G/2) families from these matrices; catch a
	// bad stamp here rather than as a downstream factorization failure.
	if err := sparse.CheckCSC(sys.C); err != nil {
		t.Fatalf("stamped C violates CSC invariants: %v", err)
	}
	if err := sparse.CheckCSC(sys.G); err != nil {
		t.Fatalf("stamped G violates CSC invariants: %v", err)
	}
	return sys
}

// TestAdaptiveTRCacheFewerFactorizations: on an IBM-case benchmark an
// adaptive-TR run factorizes each distinct step size once — step
// quantization makes revisited step sizes cache hits — whether the cache is
// lent to it or, with Options.Cache nil, is the run's own. The two runs book
// the same factorizations and hits and record bit-identical rows.
func TestAdaptiveTRCacheFewerFactorizations(t *testing.T) {
	sys := ibmSystem(t, 0.2)
	probes := []int{0, sys.NumNodes / 2, sys.NumNodes - 1}
	base := Options{Tstop: 10e-9, Tol: 1e-4, Probes: probes}

	own, err := Simulate(sys, TRAdaptive, base)
	if err != nil {
		t.Fatal(err)
	}
	lent := base
	lent.Cache = sparse.NewCache(0)
	cached, err := Simulate(sys, TRAdaptive, lent)
	if err != nil {
		t.Fatal(err)
	}

	for _, r := range []*Result{own, cached} {
		if r.Stats.CacheHits == 0 || r.Stats.Factorizations != r.Stats.CacheMisses {
			t.Errorf("factorized %d times over %d hits / %d misses — want the revisited step sizes to hit",
				r.Stats.Factorizations, r.Stats.CacheHits, r.Stats.CacheMisses)
		}
	}
	if own.Stats.Factorizations != cached.Stats.Factorizations || own.Stats.CacheHits != cached.Stats.CacheHits {
		t.Errorf("own cache: %d factorizations / %d hits; lent cache: %d / %d",
			own.Stats.Factorizations, own.Stats.CacheHits, cached.Stats.Factorizations, cached.Stats.CacheHits)
	}
	if len(own.Times) != len(cached.Times) {
		t.Fatalf("grids differ: %d vs %d points", len(own.Times), len(cached.Times))
	}
	for i := range own.Times {
		if own.Times[i] != cached.Times[i] {
			t.Fatalf("time grid diverges at %d: %g vs %g", i, own.Times[i], cached.Times[i])
		}
		for k := range probes {
			if math.Float64bits(own.Probes[i][k]) != math.Float64bits(cached.Probes[i][k]) {
				t.Fatalf("row %d column %d: own cache %g, lent cache %g", i, k, own.Probes[i][k], cached.Probes[i][k])
			}
		}
	}
	t.Logf("factorizations: %d (%d hits)", own.Stats.Factorizations, own.Stats.CacheHits)
}

// TestCacheSharedAcrossMethods: one cache serves every solver family — the
// G factorization computed by the first run is a hit for the others, and a
// repeated identical run performs zero new factorizations.
func TestCacheSharedAcrossMethods(t *testing.T) {
	sys := ibmSystem(t, 0.2)
	cache := sparse.NewCache(0)
	opts := Options{Tstop: 10e-9, Tol: 1e-6, Cache: cache}

	resI, err := Simulate(sys, IMATEX, opts)
	if err != nil {
		t.Fatal(err)
	}
	if resI.Stats.Factorizations != 1 || resI.Stats.CacheMisses != 1 {
		t.Errorf("first I-MATEX run: %d factorizations / %d misses, want 1/1",
			resI.Stats.Factorizations, resI.Stats.CacheMisses)
	}
	// R-MATEX reuses the cached G (DC solve) and adds only C + γG.
	resR, err := Simulate(sys, RMATEX, opts)
	if err != nil {
		t.Fatal(err)
	}
	if resR.Stats.Factorizations != 1 {
		t.Errorf("R-MATEX after I-MATEX factorized %d times, want 1 (G cached)", resR.Stats.Factorizations)
	}
	if resR.Stats.CacheHits == 0 {
		t.Error("R-MATEX did not hit the shared G entry")
	}
	// Identical repeat: zero new factorizations.
	resR2, err := Simulate(sys, RMATEX, opts)
	if err != nil {
		t.Fatal(err)
	}
	if resR2.Stats.Factorizations != 0 {
		t.Errorf("repeated R-MATEX run factorized %d times, want 0", resR2.Stats.Factorizations)
	}
	// And the answers are bit-identical (same factorization objects).
	for i := range resR.Final {
		if resR.Final[i] != resR2.Final[i] {
			t.Fatal("repeated cached run diverged")
		}
	}
}

// TestQuantizeStep pins the geometric-grid snapping: results lie on
// href·√2^k, never exceed h, and never fall below href.
func TestQuantizeStep(t *testing.T) {
	href := 1e-18
	for _, h := range []float64{1e-18, 1.4e-18, 3.7e-15, 2.2e-12, 1e-9, 5e-9} {
		q := quantizeStep(h, href)
		if q > h || q < href {
			t.Fatalf("quantizeStep(%g) = %g out of (href, h]", h, q)
		}
		k := 2 * math.Log2(q/href)
		if math.Abs(k-math.Round(k)) > 1e-6 {
			t.Errorf("quantizeStep(%g) = %g not on the √2 grid (k=%g)", h, q, k)
		}
		// Idempotent: a grid value stays put.
		if q2 := quantizeStep(q, href); q2 != q {
			t.Errorf("quantizeStep not idempotent: %g → %g", q, q2)
		}
	}
	if q := quantizeStep(0.5e-18, href); q != href {
		t.Errorf("sub-href step = %g, want href", q)
	}
}
