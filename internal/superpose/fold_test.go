package superpose

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/matex-sim/matex/internal/transient"
)

// oracleCombine is the batch sum superpose.Combine computed before the fold
// replaced it: term by term over whole landed lanes. The fold must reproduce
// it bit for bit wherever it returns a result (it also refuses short lanes,
// which the oracle flat-extrapolates).
func oracleCombine(grid, base []float64, probes []int, terms []Term) (*transient.Result, error) {
	add := func(dst, src []float64, c float64) {
		for k, x := range src[:len(dst)] {
			dst[k] += c * x
		}
	}
	set := func(dst, src []float64, c float64) {
		for k, x := range src[:len(dst)] {
			dst[k] = c * x
		}
	}
	onGrid := func(times []float64) bool {
		if len(times) != len(grid) {
			return false
		}
		for i, t := range grid {
			if math.Abs(times[i]-t) > 1e-15+1e-9*math.Abs(t) {
				return false
			}
		}
		return true
	}
	shared := grid == nil
	if shared {
		if len(terms) == 0 {
			return nil, errors.New("no grid and no lanes")
		}
		grid = terms[0].Lane.Times
		for _, t := range terms[1:] {
			if len(t.Lane.Times) != len(grid) {
				return nil, errors.New("lane grids diverged")
			}
		}
		if base == nil && len(terms) == 1 && terms[0].Coef == 1 {
			l := terms[0].Lane
			return &transient.Result{Times: l.Times, Probes: l.Probes, Final: l.Final}, nil
		}
	}
	res := &transient.Result{Times: grid}
	if len(probes) > 0 {
		res.Probes = make([][]float64, len(grid))
		for i := range res.Probes {
			res.Probes[i] = make([]float64, len(probes))
			if base != nil {
				for k, p := range probes {
					res.Probes[i][k] = base[p]
				}
			}
		}
	}
	if base != nil {
		res.Final = append([]float64(nil), base...)
	}
	row := make([]float64, len(probes))
	for ti, term := range terms {
		lane, c := term.Lane, term.Coef
		acc := add
		if base == nil && ti == 0 {
			acc = set
			res.Final = make([]float64, len(lane.Final))
		}
		switch {
		case len(probes) == 0:
		case shared || onGrid(lane.Times):
			if len(lane.Probes) < len(grid) {
				return nil, errors.New("short lane")
			}
			for i, dst := range res.Probes {
				acc(dst, lane.Probes[i], c)
			}
		default:
			for i, dst := range res.Probes {
				for k := range row {
					row[k] = lane.InterpProbe(grid[i], k)
				}
				acc(dst, row, c)
			}
		}
		n := min(len(res.Final), len(lane.Final))
		acc(res.Final[:n], lane.Final[:n], c)
	}
	return res, nil
}

const nState = 5

// value draws a lane or base entry: mostly ordinary, sometimes ±0 exactly.
func value(rng *rand.Rand) float64 {
	switch rng.Intn(6) {
	case 0:
		return math.Copysign(0, -1)
	case 1:
		return 0
	}
	return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
}

// foldCase is one random combination and the lanes that feed it.
type foldCase struct {
	grid, base []float64
	probes     []int
	terms      []Term
}

// randomCase draws a plan: on a grid or on the lanes' own, with or without a
// base and probes, over 1–4 lanes with coefficients 1 or c. A lane on a grid
// records it (to rounding) or, fixed-step, its own times — which hit grid
// points exactly, interior samples and the last one included.
func randomCase(rng *rand.Rand) foldCase {
	var c foldCase
	n := 2 + rng.Intn(8)
	own := make([]float64, n)
	for i := 1; i < n; i++ {
		own[i] = own[i-1] + 0.1 + rng.Float64()
	}
	if rng.Intn(3) > 0 {
		c.grid = own
	}
	if c.grid != nil && rng.Intn(2) == 0 {
		c.base = make([]float64, nState)
		for i := range c.base {
			c.base[i] = value(rng)
		}
	}
	for k := rng.Intn(4); k > 0; k-- {
		c.probes = append(c.probes, rng.Intn(nState))
	}
	lanes := 1 + rng.Intn(4)
	for j := 0; j < lanes; j++ {
		times := own
		if c.grid != nil {
			switch rng.Intn(3) {
			case 0: // on the grid, to rounding
				times = append([]float64(nil), own...)
				for i := range times {
					times[i] *= 1 + 1e-12*rng.NormFloat64()
				}
				times[0] = 0
			case 1: // fixed-step
				times = fixedTimes(rng, own)
			}
		}
		lane := &transient.Result{Times: times}
		if len(c.probes) > 0 {
			for range times {
				row := make([]float64, len(c.probes))
				for k := range row {
					row[k] = value(rng)
				}
				lane.Probes = append(lane.Probes, row)
			}
		}
		for i := 0; i < nState; i++ {
			lane.Final = append(lane.Final, value(rng))
		}
		coef := 1.0
		if rng.Intn(2) == 0 {
			coef = []float64{-1, 0.5, -3, 2.75, 1e-3}[rng.Intn(5)]
		}
		c.terms = append(c.terms, Term{Lane: lane, Coef: coef})
	}
	return c
}

// fixedTimes is a fixed-step lane's own times over [0, grid end] — or past
// it, so the last grid point falls on an interior sample — holding some grid
// points exactly.
func fixedTimes(rng *rand.Rand, grid []float64) []float64 {
	end := grid[len(grid)-1]
	times := []float64{0, end}
	if rng.Intn(3) == 0 {
		times = append(times, end+0.3)
	}
	for k := rng.Intn(12); k > 0; k-- {
		times = append(times, end*rng.Float64())
	}
	for _, g := range grid[1 : len(grid)-1] {
		if rng.Intn(3) == 0 {
			times = append(times, g)
		}
	}
	sort.Float64s(times)
	out := times[:1]
	for _, t := range times[1:] {
		if t > out[len(out)-1] {
			out = append(out, t)
		}
	}
	return out
}

// emitted is what a fold delivered, checked for one row at a time.
type emitted struct {
	t     *testing.T
	busy  atomic.Bool
	times []float64
	rows  [][]float64
}

func (e *emitted) hook(tt float64, row []float64) {
	if !e.busy.CompareAndSwap(false, true) {
		e.t.Error("two rows emitted at once")
	}
	e.times = append(e.times, tt)
	e.rows = append(e.rows, append([]float64(nil), row...))
	e.busy.Store(false)
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// feed delivers lanes to f from one goroutine each, in a random
// interleaving: a lane streams a random prefix of its samples (all, some or
// none) through Sample before it lands. It returns the first Land error.
func feed(rng *rand.Rand, f *Fold, lanes []Term) error {
	var wg sync.WaitGroup
	errs := make([]error, len(lanes))
	for j, term := range lanes {
		live := rng.Intn(len(term.Lane.Times) + 1)
		seed := rng.Int63()
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < live; i++ {
				if r.Intn(2) == 0 {
					runtime.Gosched()
				}
				var row []float64
				if i < len(term.Lane.Probes) {
					row = term.Lane.Probes[i]
				}
				f.Sample(j, term.Lane.Times[i], row)
			}
			errs[j] = f.Land(j, term.Lane)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// TestFoldMatchesCombineBitwise: over random plans and random concurrent
// delivery orders, the rows a fold emits and the result it returns are the
// pre-fold Combine's, bit for bit (signed zeros included), emitted one at a
// time and in time order. A base the oracle adds first is, to the fold, the
// constant first lane D-MATEX's x_DC is (withBase).
func TestFoldMatchesCombineBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	aliased := 0
	for n := 0; n < 600; n++ {
		c := randomCase(rng)
		want, err := oracleCombine(c.grid, c.base, c.probes, c.terms)
		if err != nil {
			t.Fatalf("case %d: oracle: %v", n, err)
		}
		lanes := withBase(c.grid, c.base, c.probes, c.terms)
		addends := make([]Addend, len(lanes))
		for j, term := range lanes {
			addends[j] = Addend{Coef: term.Coef, Interp: c.grid != nil && !aligned(term.Lane.Times, c.grid)}
		}
		out := &emitted{t: t}
		f := NewFold(Plan{Grid: c.grid, Probes: c.probes, Addends: addends}, out.hook)
		if err := feed(rng, f, lanes); err != nil {
			t.Fatalf("case %d: %v", n, err)
		}
		got, err := f.Result()
		if err != nil {
			t.Fatalf("case %d: %v", n, err)
		}
		where := fmt.Sprintf("case %d (grid %v, base %v, %d probes, %d lanes)", n, c.grid != nil, c.base != nil, len(c.probes), len(c.terms))
		if !sameBits(got.Times, want.Times) || !sameBits(out.times, want.Times) {
			t.Fatalf("%s: times %v emitted %v, want %v", where, got.Times, out.times, want.Times)
		}
		if len(got.Probes) != len(want.Probes) || len(out.rows) != len(want.Times) {
			t.Fatalf("%s: %d rows, %d emitted, want %d", where, len(got.Probes), len(out.rows), len(want.Probes))
		}
		for i := range want.Probes {
			if !sameBits(got.Probes[i], want.Probes[i]) || !sameBits(out.rows[i], want.Probes[i]) {
				t.Fatalf("%s: row %d is %v, emitted %v, want %v", where, i, got.Probes[i], out.rows[i], want.Probes[i])
			}
		}
		if !sameBits(got.Final, want.Final) {
			t.Fatalf("%s: final %v, want %v", where, got.Final, want.Final)
		}
		if len(c.terms) == 1 && len(want.Probes) > 0 && &want.Probes[0][0] == &c.terms[0].Lane.Probes[0][0] {
			aliased++
			if &got.Probes[0][0] != &want.Probes[0][0] || &got.Final[0] != &want.Final[0] {
				t.Fatalf("%s: a lane times 1 was copied", where)
			}
		}
	}
	if aliased == 0 {
		t.Fatal("no case drew a single lane times 1")
	}
}

// TestFoldZeroStateRowZeroLeavesWithTheBase: lanes declared zero-state have
// passed grid[0] before they start, so row 0 leaves the moment the one lane
// that is not — the base, as D-MATEX's first task carries x_DC — delivers
// it, before any zero-state lane delivers; the rows are still the batch
// sum's. A lane whose landed row 0 is not +0 fails the fold.
func TestFoldZeroStateRowZeroLeavesWithTheBase(t *testing.T) {
	grid := []float64{0, 1, 2, 3}
	fine := []float64{0, 0.7, 1.4, 2.1, 2.8, 3.5}
	base := []float64{1, math.Copysign(0, -1), 3}
	probes := []int{1, 0, 2}
	mk := func(times []float64, shift float64) *transient.Result {
		r := &transient.Result{Times: times, Final: []float64{shift, 2 * shift, 3 * shift}}
		for i, tt := range times {
			row := []float64{0, 0, 0}
			if i > 0 {
				row = []float64{tt + shift, -tt, tt * shift}
			}
			r.Probes = append(r.Probes, row)
		}
		return r
	}
	terms := []Term{{mk(grid, 1), 1}, {mk(fine, 2), 1}}
	want, err := oracleCombine(grid, base, probes, terms)
	if err != nil {
		t.Fatal(err)
	}
	lanes := withBase(grid, base, probes, terms)
	out := &emitted{t: t}
	f := NewFold(Plan{Grid: grid, Probes: probes, Addends: []Addend{
		{Coef: 1}, {Coef: 1, ZeroState: true}, {Coef: 1, Interp: true, ZeroState: true},
	}}, out.hook)
	f.Sample(0, 0, lanes[0].Lane.Probes[0])
	if len(out.rows) != 1 || !sameBits(out.rows[0], want.Probes[0]) {
		t.Fatalf("after the base's row 0 alone: rows %v, want row 0 %v", out.rows, want.Probes[0])
	}
	for j, l := range lanes {
		if err := f.Land(j, l.Lane); err != nil {
			t.Fatal(err)
		}
	}
	got, err := f.Result()
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Probes {
		if !sameBits(got.Probes[i], want.Probes[i]) {
			t.Fatalf("row %d: %v, want %v", i, got.Probes[i], want.Probes[i])
		}
	}

	for _, bad := range []float64{1e-9, math.Copysign(0, -1)} {
		l := mk(fine, 2)
		l.Probes[0][2] = bad
		f := NewFold(Plan{Grid: grid, Probes: probes, Addends: []Addend{{Coef: 1}, {Coef: 1, Interp: true, ZeroState: true}}}, nil)
		if err := f.Land(0, withBase(grid, base, probes, nil)[0].Lane); err != nil {
			t.Fatal(err)
		}
		if err := f.Land(1, l); err == nil {
			t.Errorf("a zero-state lane starting at %g landed", bad)
		}
		if _, err := f.Result(); err == nil {
			t.Errorf("a zero-state lane starting at %g gave a result", bad)
		}
	}
}

// TestFoldShortLane: a landed lane that stops before the end of the grid —
// in its samples or in its probe rows — is a ShortLaneError at the first
// grid point it does not reach, and no row at or past that point leaves,
// whether the lane streamed its prefix or landed whole. The oracle
// flat-extrapolates a short fixed-step lane; combine refuses it.
func TestFoldShortLane(t *testing.T) {
	grid := []float64{0, 1, 2, 3, 4}
	probes := []int{0}
	lane := func(times []float64, rows int) *transient.Result {
		r := &transient.Result{Times: times, Final: []float64{1}}
		for i := 0; i < rows; i++ {
			r.Probes = append(r.Probes, []float64{float64(i)})
		}
		return r
	}
	for _, c := range []struct {
		name   string
		lane   *transient.Result
		interp bool
		at     float64
	}{
		{"on the grid", lane(grid[:3], 3), false, 3},
		{"on the grid, rows short", lane(grid, 2), false, 2},
		{"fixed-step", lane([]float64{0, 0.5, 1, 1.5, 2, 2.5}, 6), true, 3},
		{"fixed-step, ends on a grid point", lane([]float64{0, 0.5, 1, 1.5, 2}, 5), true, 3},
		{"fixed-step, rows short", lane([]float64{0, 0.5, 1, 1.5, 2, 2.5, 3, 3.5, 4}, 5), true, 3},
		{"empty", lane(nil, 0), true, 0},
	} {
		for _, live := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/live=%v", c.name, live), func(t *testing.T) {
				out := &emitted{t: t}
				f := NewFold(Plan{Grid: grid, Probes: probes, Addends: []Addend{{Coef: 1, Interp: c.interp}, {Coef: 1}}}, out.hook)
				if err := f.Land(1, lane(grid, len(grid))); err != nil {
					t.Fatal(err)
				}
				if live {
					for i := range c.lane.Probes {
						f.Sample(0, c.lane.Times[i], c.lane.Probes[i])
					}
				}
				err := f.Land(0, c.lane)
				var short *ShortLaneError
				if !errors.As(err, &short) || short.Lane != 0 || short.At != c.at {
					t.Fatalf("landed %v, want a short lane at t=%g", err, c.at)
				}
				if _, err := f.Result(); !errors.As(err, &short) {
					t.Fatalf("result error %v", err)
				}
				for _, tt := range out.times {
					if tt >= c.at {
						t.Fatalf("row at t=%g left, the lane stops short at t=%g", tt, c.at)
					}
				}
			})
		}
	}
	if _, err := combine(grid, nil, probes, []Term{{lane([]float64{0, 0.5, 1, 1.5, 2, 2.5}, 6), 1}}); err == nil {
		t.Error("a short fixed-step lane was flat-extrapolated")
	}
}

// TestFoldRejectsOffGridSamples: a lane declared on the grid that records
// elsewhere is an error, not a silently shifted row.
func TestFoldRejectsOffGridSamples(t *testing.T) {
	grid := []float64{0, 1, 2}
	f := NewFold(Plan{Grid: grid, Probes: []int{0}, Addends: []Addend{{Coef: 1}}}, nil)
	f.Sample(0, 0, []float64{0})
	f.Sample(0, 1.5, []float64{1})
	if err := f.Land(0, &transient.Result{Times: []float64{0, 1.5, 2}, Probes: [][]float64{{0}, {1}, {2}}}); err == nil {
		t.Fatal("an off-grid sample was accepted")
	}
}

// TestFoldEmitsWithItsLockFree: emit runs with the fold's mutex released, so
// an emit hook that blocks or yields — a job server's publish does — holds
// up no other lane's delivery: a lane that delivers meanwhile folds its
// sample and returns, and the emitting call sends the row it completes.
func TestFoldEmitsWithItsLockFree(t *testing.T) {
	grid := []float64{0, 1, 2}
	var f *Fold
	var sent []float64
	f = NewFold(Plan{Grid: grid, Probes: []int{0}, Addends: []Addend{{Coef: 1}, {Coef: 1}}}, func(tt float64, row []float64) {
		if !f.mu.TryLock() {
			t.Fatalf("emit at t=%g runs with the fold's mutex held", tt)
		}
		f.mu.Unlock()
		sent = append(sent, tt)
		if tt == 0 {
			f.Sample(1, 1, []float64{1}) // the other lane passes t=1 mid-emit
		}
	})
	f.Sample(1, 0, []float64{0})
	f.Sample(0, 0, []float64{0}) // row 0 leaves; lane 1 delivers t=1 inside its emit
	f.Sample(0, 1, []float64{1}) // row 1 leaves
	if !slices.Equal(sent, []float64{0, 1}) {
		t.Fatalf("rows left at %v, want [0 1]", sent)
	}
}
