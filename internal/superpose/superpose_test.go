package superpose

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"github.com/matex-sim/matex/internal/transient"
)

// Term is one landed lane's share of a combine.
type Term struct {
	Lane *transient.Result
	Coef float64
}

// combine is the batch use of a Fold: every lane landed whole, the way a
// caller holding finished results would sum them. A lane whose own times
// coincide with a non-nil grid enters sample by sample, any other is
// interpolated onto it; a nil grid means the lanes' own shared grid. A
// non-nil base enters as D-MATEX's x_DC does, as the first lane
// (withBase).
func combine(grid, base []float64, probes []int, terms []Term) (*transient.Result, error) {
	terms = withBase(grid, base, probes, terms)
	addends := make([]Addend, len(terms))
	for j, t := range terms {
		addends[j] = Addend{Coef: t.Coef, Interp: grid != nil && !aligned(t.Lane.Times, grid)}
	}
	f := NewFold(Plan{Grid: grid, Probes: probes, Addends: addends}, nil)
	for j, t := range terms {
		if err := f.Land(j, t.Lane); err != nil {
			return nil, err
		}
	}
	return f.Result()
}

// withBase prepends to terms the constant lane base (nil: none) on grid:
// every row base's probe entries, the final state base itself, times 1.
func withBase(grid, base []float64, probes []int, terms []Term) []Term {
	if base == nil {
		return terms
	}
	l := &transient.Result{Times: grid, Final: base}
	if len(probes) > 0 {
		row := make([]float64, len(probes))
		for k, p := range probes {
			row[k] = base[p]
		}
		for range grid {
			l.Probes = append(l.Probes, row)
		}
	}
	return append([]Term{{Lane: l, Coef: 1}}, terms...)
}

// aligned reports whether a lane's output times are the grid, to rounding.
func aligned(times, grid []float64) bool {
	if len(times) != len(grid) {
		return false
	}
	for i, t := range grid {
		if !near(times[i], t) {
			return false
		}
	}
	return true
}

// lane builds a two-probe result on times whose probe k at sample i is
// f(k, t_i) and whose final state is final.
func lane(times []float64, f func(k int, t float64) float64, final ...float64) *transient.Result {
	r := &transient.Result{Times: times, Final: final}
	for _, t := range times {
		r.Probes = append(r.Probes, []float64{f(0, t), f(1, t)})
	}
	return r
}

func TestCombine(t *testing.T) {
	grid := []float64{0, 1, 2, 3}
	fine := []float64{0, 0.5, 1, 1.5, 2, 2.5, 3} // a fixed-step lane's own grid
	lin := func(k int, t float64) float64 { return float64(k+1) * t }
	sq := func(k int, t float64) float64 { return float64(k+1) + t*t }
	base := []float64{10, 20, 30}
	probes := []int{2, 0} // row column k records unknown probes[k]
	negZero := math.Copysign(0, -1)

	for _, c := range []struct {
		name   string
		grid   []float64
		base   []float64
		probes []int
		terms  []Term
		// want(i, k) is row i column k on wantT; final the expected state.
		wantT []float64
		want  func(i, k int) float64
		final []float64
		alias bool // rows and state are the single lane's own
		err   bool
	}{
		{
			name: "offset, coefficients 1 (D-MATEX)", grid: grid, base: base, probes: probes,
			terms: []Term{{lane(grid, lin, 1, 2, 3), 1}, {lane(grid, sq, 4, 5, 6), 1}},
			wantT: grid,
			want:  func(i, k int) float64 { return base[probes[k]] + lin(k, grid[i]) + sq(k, grid[i]) },
			final: []float64{15, 27, 39},
		},
		{
			name: "offset, no lanes (a deck without transient sources)", grid: grid, base: base, probes: probes,
			wantT: grid,
			want:  func(i, k int) float64 { return base[probes[k]] },
			final: base,
		},
		{
			name: "no offset, sup + c·load (split sweep group)", probes: probes,
			terms: []Term{{lane(grid, lin, 1, 2), 1}, {lane(grid, sq, 4, 5), 0.25}},
			wantT: grid,
			want:  func(i, k int) float64 { return lin(k, grid[i]) + 0.25*sq(k, grid[i]) },
			final: []float64{2, 3.25},
		},
		{
			name: "no offset, one lane times c (scaled sweep variant)", probes: probes,
			terms: []Term{{lane(grid, sq, 4, negZero), -3}},
			wantT: grid,
			want:  func(i, k int) float64 { return -3 * sq(k, grid[i]) },
			final: []float64{-12, 0}, // -3·(-0) = +0, bit for bit what c·x gives
		},
		{
			name: "no offset, one lane times 1 aliases", probes: probes,
			terms: []Term{{lane(grid, sq, 4, 5), 1}},
			wantT: grid, want: func(i, k int) float64 { return sq(k, grid[i]) },
			final: []float64{4, 5}, alias: true,
		},
		{
			name: "fixed-step lane interpolated onto the grid", grid: grid, base: base, probes: probes,
			terms: []Term{{lane(grid, sq, 4, 5, 6), 1}, {lane(fine, lin, 1, 2, 3), 2}},
			wantT: grid,
			want:  func(i, k int) float64 { return base[probes[k]] + sq(k, grid[i]) + 2*lin(k, grid[i]) },
			final: []float64{16, 29, 42},
		},
		{
			name: "no probes: state only", grid: grid, base: base,
			terms: []Term{{&transient.Result{Final: []float64{1, 2, 3}}, 1}},
			wantT: grid, final: []float64{11, 22, 33},
		},
		{
			name: "lanes disagree on their shared grid", probes: probes,
			terms: []Term{{lane(grid, lin), 1}, {lane(fine, lin), 1}},
			err:   true,
		},
		{name: "no grid and no lanes", err: true},
	} {
		t.Run(c.name, func(t *testing.T) {
			got, err := combine(c.grid, c.base, c.probes, c.terms)
			if c.err {
				if err == nil {
					t.Fatal("no error")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Times) != len(c.wantT) {
				t.Fatalf("%d samples, want %d", len(got.Times), len(c.wantT))
			}
			if len(c.probes) == 0 && got.Probes != nil {
				t.Fatalf("probe rows %v without probes", got.Probes)
			}
			for i, row := range got.Probes {
				for k, v := range row {
					if want := c.want(i, k); v != want {
						t.Errorf("row %d column %d: %g, want %g", i, k, v, want)
					}
				}
			}
			if len(got.Final) != len(c.final) {
				t.Fatalf("final state %v, want %v", got.Final, c.final)
			}
			for j, v := range got.Final {
				if v != c.final[j] || math.Signbit(v) != math.Signbit(c.final[j]) {
					t.Errorf("final[%d] = %g, want %g", j, v, c.final[j])
				}
			}
			aliased := false
			if len(c.terms) == 1 && len(got.Probes) > 0 {
				l := c.terms[0].Lane
				aliased = &got.Probes[0][0] == &l.Probes[0][0] && &got.Final[0] == &l.Final[0]
			}
			if aliased != c.alias {
				t.Errorf("aliases its lane: %v, want %v", aliased, c.alias)
			}
		})
	}
}

func TestFanOut(t *testing.T) {
	// Results come back in lane order and the bound holds.
	const n, limit = 40, 3
	var inFlight, peak atomic.Int32
	got, err := FanOut(context.Background(), n, limit, func(ctx context.Context, i int) (int, error) {
		now := inFlight.Add(1)
		for p := peak.Load(); now > p && !peak.CompareAndSwap(p, now); p = peak.Load() {
		}
		defer inFlight.Add(-1)
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("lane %d returned %d", i, v)
		}
	}
	if p := peak.Load(); p > limit {
		t.Fatalf("%d lanes in flight under a bound of %d", p, limit)
	}

	// The first error is the one returned, and it cancels the context the
	// lanes in flight see.
	boom := errors.New("boom")
	release := make(chan struct{})
	_, err = FanOut(context.Background(), 8, 8, func(ctx context.Context, i int) (int, error) {
		if i == 0 {
			defer close(release)
			return 0, boom
		}
		<-release // lane 0 has failed by now
		<-ctx.Done()
		return 0, ctx.Err()
	})
	if err != boom {
		t.Fatalf("returned %v, want the first error", err)
	}

	// After the first error no further lane starts.
	var calls atomic.Int32
	_, err = FanOut(context.Background(), 5, 1, func(ctx context.Context, i int) (int, error) {
		calls.Add(1)
		if i == 0 {
			return 0, boom
		}
		return i, nil
	})
	if err != boom {
		t.Fatalf("returned %v, want the first error", err)
	}
	if c := calls.Load(); c != 1 {
		t.Fatalf("run called %d times after lane 0 failed under limit 1, want 1", c)
	}

	// A parent context canceled up front starts no lane and is the error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls.Store(0)
	_, err = FanOut(ctx, 4, 2, func(ctx context.Context, i int) (int, error) {
		calls.Add(1)
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("returned %v, want context.Canceled", err)
	}
	if c := calls.Load(); c != 0 {
		t.Fatalf("run called %d times under a canceled context, want 0", c)
	}
}

func TestCheckBase(t *testing.T) {
	if err := CheckBase(&transient.Options{Tstop: 1, Probes: []int{0}}); err != nil {
		t.Fatal(err)
	}
	for name, o := range map[string]transient.Options{
		"OnSample":     {OnSample: func(float64, []float64) {}},
		"OnCheckpoint": {OnCheckpoint: func(transient.Checkpoint) error { return nil }},
		"ActiveInputs": {ActiveInputs: []bool{true}},
	} {
		if CheckBase(&o) == nil {
			t.Errorf("engine-owned Base.%s accepted", name)
		}
	}
}
