package transient

import (
	"context"
	"errors"
	"math"
	"testing"

	"github.com/matex-sim/matex/internal/circuit"
	"github.com/matex-sim/matex/internal/pdn"
)

// streamTestSystem builds a small PDN mesh with transient loads.
func streamTestSystem(t *testing.T) *circuit.System {
	t.Helper()
	spec, err := pdn.IBMCase("ibmpg1t", 0.2)
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
	return sys
}

// TestOnSampleStreamsEveryRecordedSample: for every method, the rows the hook
// delivers live are the rows Result.EachSample replays, bit for bit and in
// order — what lets cmd/matex write a run's table as it integrates.
func TestOnSampleStreamsEveryRecordedSample(t *testing.T) {
	sys := streamTestSystem(t)
	type sample struct {
		t   float64
		row []float64
	}
	for _, name := range []string{"mexp", "imatex", "rmatex", "tr", "be", "fe", "tradpt"} {
		method, err := ParseMethod(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			var live, replayed []sample
			opts := Options{Tstop: 2e-9, Step: 0.25e-9, Probes: []int{0, 3}}
			opts.OnSample = func(tt float64, v []float64) {
				live = append(live, sample{tt, append([]float64(nil), v...)})
			}
			res, err := Simulate(sys, method, opts)
			if err != nil {
				t.Fatal(err)
			}
			res.EachSample(func(tt float64, v []float64) { replayed = append(replayed, sample{tt, v}) })
			if len(live) != len(replayed) || len(live) < 2 {
				t.Fatalf("streamed %d samples, result has %d", len(live), len(replayed))
			}
			for i := range live {
				if math.Float64bits(live[i].t) != math.Float64bits(replayed[i].t) {
					t.Fatalf("sample %d: streamed t=%g, result t=%g", i, live[i].t, replayed[i].t)
				}
				if len(live[i].row) != len(opts.Probes) || len(replayed[i].row) != len(opts.Probes) {
					t.Fatalf("sample %d: streamed %d probes, result %d", i, len(live[i].row), len(replayed[i].row))
				}
				for k := range live[i].row {
					if math.Float64bits(live[i].row[k]) != math.Float64bits(replayed[i].row[k]) {
						t.Fatalf("sample %d probe %d: streamed %g, result %g", i, k, live[i].row[k], replayed[i].row[k])
					}
				}
			}
		})
	}
}

// TestOnSampleNilRowWithoutProbes: a probe-less run still streams times.
func TestOnSampleNilRowWithoutProbes(t *testing.T) {
	sys := streamTestSystem(t)
	n := 0
	_, err := Simulate(sys, TRFixed, Options{
		Tstop: 1e-9, Step: 0.5e-9,
		OnSample: func(tt float64, v []float64) {
			if v != nil {
				t.Fatalf("expected nil probe row, got %v", v)
			}
			n++
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("hook never fired")
	}
}

// TestCtxCancelStopsRun: canceling the context mid-run aborts every
// integrator with the context error instead of running to Tstop.
func TestCtxCancelStopsRun(t *testing.T) {
	sys := streamTestSystem(t)
	for _, tc := range []struct {
		name   string
		method Method
		opts   Options
	}{
		{"tr", TRFixed, Options{Tstop: 10e-9, Step: 0.01e-9}},
		{"tradpt", TRAdaptive, Options{Tstop: 10e-9, Step: 0.01e-9}},
		{"rmatex", RMATEX, Options{Tstop: 10e-9}},
		{"imatex", IMATEX, Options{Tstop: 10e-9}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			opts := tc.opts
			opts.Ctx = ctx
			opts.OnSample = func(tt float64, v []float64) {
				if tt > 0 {
					cancel() // cancel after the first post-DC sample
				}
			}
			_, err := Simulate(sys, tc.method, opts)
			if err == nil {
				t.Fatal("canceled run returned nil error")
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("error %v does not wrap context.Canceled", err)
			}
			cancel()
		})
	}
}

// TestCtxDeadlineAlreadyExpired: a dead-on-arrival deadline fails fast.
func TestCtxDeadlineAlreadyExpired(t *testing.T) {
	sys := streamTestSystem(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Simulate(sys, RMATEX, Options{Tstop: 1e-9, Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestStreamedWaveformMatchesBuffered: a streamed run and a plain run of the
// same job produce identical waveforms (the serving-layer invariant).
func TestStreamedWaveformMatchesBuffered(t *testing.T) {
	sys := streamTestSystem(t)
	opts := Options{Tstop: 5e-9, Probes: []int{1, 5, 9}}
	plain, err := Simulate(sys, RMATEX, opts)
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]float64
	opts.OnSample = func(tt float64, v []float64) {
		rows = append(rows, append([]float64(nil), v...))
	}
	streamed, err := Simulate(sys, RMATEX, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(plain.Times) {
		t.Fatalf("streamed %d rows, plain run has %d", len(rows), len(plain.Times))
	}
	if len(streamed.Times) != len(plain.Times) {
		t.Fatalf("streamed result has %d times, plain %d", len(streamed.Times), len(plain.Times))
	}
	for i := range rows {
		for k := range rows[i] {
			if d := math.Abs(rows[i][k] - plain.Probes[i][k]); d > 1e-12 {
				t.Fatalf("sample %d probe %d differs by %g", i, k, d)
			}
		}
	}
}
