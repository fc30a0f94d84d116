package transient

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/matex-sim/matex/internal/circuit"
	"github.com/matex-sim/matex/internal/krylov"
	"github.com/matex-sim/matex/internal/waveform"
)

// randomRCMesh builds a random SPD RC mesh: a ring of nodes with random
// segment resistances, random cross-links, a ground leak at every node,
// caps to ground (skipped on every third node when singularC, exercising
// the always-deviation R-MATEX path), and a few pulsed current loads.
func randomRCMesh(t *testing.T, n int, seed int64, singularC bool) *circuit.System {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ckt := circuit.New(fmt.Sprintf("mesh%d", seed))
	node := func(i int) string { return fmt.Sprintf("n%d", i) }
	for i := 0; i < n; i++ {
		if err := ckt.AddR(fmt.Sprintf("Rg%d", i), node(i), "0", 50+100*rng.Float64()); err != nil {
			t.Fatal(err)
		}
		if err := ckt.AddR(fmt.Sprintf("Rs%d", i), node(i), node((i+1)%n), 1+2*rng.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < n/2; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		if err := ckt.AddR(fmt.Sprintf("Rx%d", k), node(i), node(j), 2+4*rng.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if singularC && i%3 == 2 {
			continue // algebraic node: no capacitive coupling at all
		}
		if err := ckt.AddC(fmt.Sprintf("C%d", i), node(i), "0", 1e-12*(0.5+rng.Float64())); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < 3; k++ {
		delay := float64(1+rng.Intn(4)) * 1e-10
		ckt.AddI(fmt.Sprintf("I%d", k), node(rng.Intn(n)), "0", &waveform.Pulse{
			V1: 0, V2: 1e-3 * (0.5 + rng.Float64()),
			Delay: delay, Rise: 1e-10, Width: 2e-10, Fall: 1e-10,
		})
	}
	sys, err := circuit.Stamp(ckt, circuit.StampOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestLanczosWaveformEquivalence is the solver-level acceptance contract:
// on random SPD RC meshes, the default (auto/Lanczos) path and the pinned
// Arnoldi reference must produce waveforms identical to 1e-8 at equal
// tolerance, for I-MATEX, R-MATEX on a nonsingular C (where flat segments,
// and ramps when cheaper, take the deviation treatment's fast path) and
// R-MATEX on a singular C (deviation, hence fast-path eligible, throughout).
func TestLanczosWaveformEquivalence(t *testing.T) {
	cases := []struct {
		name      string
		method    Method
		singularC bool
		wantSpots bool // the auto run must actually exercise the fast path
	}{
		{"imatex", IMATEX, false, true},
		{"rmatex-augmented", RMATEX, false, true},
		{"rmatex-eq5", RMATEX, true, true},
	}
	for _, tc := range cases {
		for _, seed := range []int64{11, 12, 13} {
			sys := randomRCMesh(t, 18, seed, tc.singularC)
			probes := []int{0, 1, 2}
			opts := Options{Tstop: 2e-9, Tol: 1e-9, Probes: probes}
			ref, err := Simulate(sys, tc.method, optsWith(opts, krylov.MethodArnoldi))
			if err != nil {
				t.Fatalf("%s seed %d arnoldi: %v", tc.name, seed, err)
			}
			if ref.Stats.LanczosSpots != 0 {
				t.Fatalf("%s seed %d: arnoldi run reported %d Lanczos spots", tc.name, seed, ref.Stats.LanczosSpots)
			}
			got, err := Simulate(sys, tc.method, optsWith(opts, krylov.MethodAuto))
			if err != nil {
				t.Fatalf("%s seed %d auto: %v", tc.name, seed, err)
			}
			if tc.wantSpots && got.Stats.LanczosSpots == 0 {
				t.Errorf("%s seed %d: fast-path run generated no Lanczos subspaces", tc.name, seed)
			}
			if len(got.Times) != len(ref.Times) {
				t.Fatalf("%s seed %d: grid mismatch %d vs %d", tc.name, seed, len(got.Times), len(ref.Times))
			}
			var scale float64 = 1
			for i := range ref.Times {
				for k := range probes {
					if a := math.Abs(ref.Probes[i][k]); a > scale {
						scale = a
					}
				}
			}
			for i := range ref.Times {
				for k := range probes {
					if d := math.Abs(got.Probes[i][k] - ref.Probes[i][k]); d > 1e-8*scale {
						t.Fatalf("%s seed %d: waveforms differ by %g (%.3g of scale) at t=%g probe %d (lanczos spots %d/%d)",
							tc.name, seed, d, d/scale, ref.Times[i], k,
							got.Stats.LanczosSpots, got.Stats.Spots())
					}
				}
			}
		}
	}
}

func optsWith(o Options, m krylov.Method) Options {
	o.Krylov = m
	return o
}

// TestKrylovMethodArnoldiPinsSeedBehavior: forcing arnoldi must keep the
// solver off both the fast path and the deviation treatment.
func TestKrylovMethodArnoldiPinsSeedBehavior(t *testing.T) {
	sys := randomRCMesh(t, 12, 7, false)
	res, err := Simulate(sys, RMATEX, Options{Tstop: 1e-9, Tol: 1e-8, Krylov: krylov.MethodArnoldi})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.LanczosSpots != 0 || res.Stats.DeviationSpots != 0 || res.Stats.InputPairs != 0 {
		t.Errorf("arnoldi-pinned run: %d fast-path spots, %d deviation spots, %d input pairs",
			res.Stats.LanczosSpots, res.Stats.DeviationSpots, res.Stats.InputPairs)
	}
}
