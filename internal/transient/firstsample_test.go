package transient

import (
	"math"
	"testing"

	"github.com/matex-sim/matex/internal/sparse"
)

// TestFirstSampleBeforeOperatorFactor: the t = 0 sample needs only the DC
// operating point, so it is delivered before the operator is factorized —
// inside its OnSample call the run's cache has seen one factorization, G's —
// and a resumed run, whose t = 0 row left in its first life, emits none.
func TestFirstSampleBeforeOperatorFactor(t *testing.T) {
	sys := streamTestSystem(t)
	for _, method := range []Method{RMATEX, MEXP} {
		t.Run(method.Name(), func(t *testing.T) {
			cache := sparse.NewCache(64 << 20)
			var atZero sparse.CacheStats
			zeros := 0
			var cps []Checkpoint
			opts := Options{Tstop: 2e-9, Probes: []int{0, 3}, Cache: cache, CheckpointEvery: 2}
			opts.OnSample = func(tt float64, _ []float64) {
				if tt == 0 {
					zeros++
					atZero = cache.Stats()
				}
			}
			opts.OnCheckpoint = func(cp Checkpoint) error {
				cps = append(cps, cp)
				return nil
			}
			if _, err := Simulate(sys, method, opts); err != nil {
				t.Fatal(err)
			}
			if zeros != 1 {
				t.Fatalf("%d samples at t = 0, want 1", zeros)
			}
			if atZero.Misses != 1 || atZero.Hits != 0 {
				t.Errorf("at the t = 0 sample the cache had %d misses and %d hits, want 1 (G) and 0", atZero.Misses, atZero.Hits)
			}
			if end := cache.Stats(); end.Misses != 2 {
				t.Errorf("the whole run missed %d times, want 2 (G and the operator)", end.Misses)
			}

			if len(cps) == 0 {
				t.Fatal("no checkpoint captured")
			}
			opts.OnCheckpoint = nil
			opts.OnSample = func(tt float64, _ []float64) {
				if tt <= cps[0].T {
					t.Errorf("resumed run emitted a sample at t = %g, at or before its checkpoint at %g", tt, cps[0].T)
				}
			}
			if _, err := Resume(sys, method, opts, cps[0]); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMaxAbsMatchesMathMax: the segment loop's running maximum has math.Max's
// bits wherever the driver's flatness decisions can depend on them, and keeps
// a NaN from either side.
func TestMaxAbsMatchesMathMax(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1e-300, -1e-300, 1, -1, 2.5, -2.5, math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1)}
	for _, m := range vals {
		m = math.Abs(m)
		for _, v := range vals {
			got, want := maxAbs(m, v), math.Max(m, math.Abs(v))
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("maxAbs(%g, %g) = %g, math.Max gives %g", m, v, got, want)
			}
		}
		if got := maxAbs(m, math.NaN()); got == got {
			t.Errorf("maxAbs(%g, NaN) = %g, want NaN", m, got)
		}
	}
	if got := maxAbs(math.NaN(), 1); got == got {
		t.Errorf("maxAbs(NaN, 1) = %g, want NaN", got)
	}
}
