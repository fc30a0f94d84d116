// Package superpose runs a linear superposition plan: it is the one lane
// executor of internal/dist and internal/sweep, which only plan. The MNA
// system is linear in its inputs, so D-MATEX (x = x_DC + Σ_task x_task,
// paper Fig. 4) and the sweep's collinear sharing (x_m = x_sup + c_m·x_load)
// are the same object: Σ coef·lane over lanes of one deck. What the lanes
// are — LTS-balanced source-group tasks, variant representatives — and how
// one runs is the planners' business; so is a constant term such as x_DC,
// which D-MATEX's first task adds to its own rows (internal/dist). Run does
// the rest: it refuses a bad option bundle, fans the lanes out, folds them
// into their outputs and folds their Stats.
//
// The combination is a Fold: rows leave in time order the moment every lane
// has passed their grid point, whether a lane streams its samples as it
// integrates or lands whole.
package superpose

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"github.com/matex-sim/matex/internal/sparse"
	"github.com/matex-sim/matex/internal/transient"
)

// Output is one answer of a Run: the Plan it folds, the lane feeding each
// addend (Lanes[j] feeds Plan.Addends[j]; a lane may feed several outputs)
// and the hook its rows leave through (nil: none).
type Output struct {
	Plan  Plan
	Lanes []int
	Emit  func(t float64, row []float64)
}

// Run executes lanes [0, lanes) under base and method and folds them into
// outs. Before any lane starts it refuses a non-positive Tstop, a fixed-step
// method without a positive Step and an engine-owned field (checkBase), and
// defaults base.Cache (one cache every lane shares) and base.Ctx. run
// integrates a lane, at most limit at once, under base with the lane's Ctx
// (canceled on the first error, which is Run's and after which no row
// leaves) and an OnSample feeding every output the lane feeds; the result it
// returns lands there.
//
// Run returns each output's Fold.Result, each lane's result and their Stats
// folded by the one rule for lanes run side by side: counters through
// Stats.Add in lane order, FactorTime summed, DCTime summed over the lanes
// that solve a DC point (no output declares them ZeroState), TransientTime
// the slowest lane's — the fan-out's wall reading, Table 3's t_R-MATEX.
func Run(base transient.Options, method transient.Method, lanes, limit int, outs []Output,
	run func(lane int, opts transient.Options) (*transient.Result, error)) (outputs, results []*transient.Result, st transient.Stats, err error) {
	switch {
	case base.Tstop <= 0:
		return nil, nil, st, errors.New("superpose: needs positive Tstop")
	case method.FixedStep() && base.Step <= 0:
		return nil, nil, st, fmt.Errorf("superpose: fixed-step method %v needs positive Step", method)
	}
	if err := checkBase(&base); err != nil {
		return nil, nil, st, err
	}
	if base.Cache == nil {
		base.Cache = sparse.NewCache(0)
	}
	if base.Ctx == nil {
		base.Ctx = context.Background()
	}

	type feed struct {
		fold   *Fold
		addend int
	}
	folds := make([]*Fold, len(outs))
	feeds := make([][]feed, lanes)
	zeroState := make([]bool, lanes)
	for o, out := range outs {
		folds[o] = NewFold(out.Plan, out.Emit)
		for j, l := range out.Lanes {
			feeds[l] = append(feeds[l], feed{folds[o], j})
			zeroState[l] = zeroState[l] || out.Plan.Addends[j].ZeroState
		}
	}
	results, err = fanOut(base.Ctx, lanes, limit, func(ctx context.Context, i int) (*transient.Result, error) {
		opts := base
		opts.Ctx = ctx
		opts.OnSample = func(t float64, row []float64) {
			for _, fd := range feeds[i] {
				fd.fold.Sample(fd.addend, t, row)
			}
		}
		r, err := run(i, opts)
		for _, fd := range feeds[i] {
			if err == nil {
				err = fd.fold.Land(fd.addend, r)
			}
		}
		if err != nil {
			for _, f := range folds {
				f.fail(err) // the lanes still in flight emit no further row
			}
			return nil, err
		}
		return r, nil
	})
	if err != nil {
		return nil, nil, st, err
	}
	outputs = make([]*transient.Result, len(outs))
	for o, f := range folds {
		if outputs[o], err = f.Result(); err != nil {
			return nil, nil, st, err
		}
	}
	for i, r := range results {
		st.Add(&r.Stats)
		st.FactorTime += r.Stats.FactorTime
		if !zeroState[i] {
			st.DCTime += r.Stats.DCTime
		}
		st.TransientTime = max(st.TransientTime, r.Stats.TransientTime)
	}
	return outputs, results, st, nil
}

// checkBase rejects a shared option bundle that sets a field the engine
// assigns per lane: a hook there would fire per lane on a partial response.
func checkBase(base *transient.Options) error {
	if base.OnSample != nil || base.OnCheckpoint != nil || base.ActiveInputs != nil {
		return errors.New("superpose: Base.OnSample/OnCheckpoint/ActiveInputs are engine-owned, set per lane")
	}
	return nil
}

// fanOut calls run once for every lane in [0, n) with at most limit calls in
// flight (limit < 1 is 1) and returns the results in lane order. The first
// error cancels the context the other lanes see and is the error returned.
// Once the context is done no further lane starts — lanes in flight must
// honour ctx themselves — and, absent a lane error, the context's error is
// returned for the lanes that never ran.
func fanOut(ctx context.Context, n, limit int, run func(ctx context.Context, lane int) (*transient.Result, error)) ([]*transient.Result, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		out      = make([]*transient.Result, n)
		sem      = make(chan struct{}, max(1, limit))
		wg       sync.WaitGroup
		once     sync.Once
		firstErr error
		started  int
	)
	for ; started < n; started++ {
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
		}
		if ctx.Err() != nil {
			break
		}
		i := started
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			r, err := run(ctx, i)
			if err != nil {
				once.Do(func() {
					firstErr = err
					cancel()
				})
				return
			}
			out[i] = r
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if started < n {
		return nil, ctx.Err()
	}
	return out, nil
}

// Addend declares one lane of a Fold before the lane has run.
type Addend struct {
	// Coef scales the lane's rows and final state.
	Coef float64
	// Interp marks a lane that records on its own times — a fixed-step or
	// adaptive-TR integration — and is linearly interpolated onto the grid
	// (transient.Result.InterpProbe). Any other lane records exactly the
	// grid points, to rounding, and enters sample by sample.
	Interp bool
	// ZeroState marks a lane integrated from the zero state, such as a
	// D-MATEX task: on a Plan with a Grid it has passed grid[0] before it
	// starts and contributes an exact +0 there, which its landed result must
	// bear out bit for bit.
	ZeroState bool
}

// Plan is the combination Σ Addends[j].Coef·lane_j a Fold evaluates.
type Plan struct {
	// Grid is the output time grid; nil means the lanes' own shared grid,
	// sample by sample (every lane then records the same times).
	Grid []float64
	// Probes are the unknowns every row records.
	Probes []int
	// Addends are the lanes, in the order every row sums them.
	Addends []Addend
}

// ShortLaneError is a landed lane that never passed grid point At: its
// samples, or its probe rows, stop before it. No row at or past At leaves.
type ShortLaneError struct {
	Lane int     // the addend's index
	At   float64 // the first grid time the lane does not reach
}

func (e *ShortLaneError) Error() string {
	return fmt.Sprintf("superpose: lane %d stops short of the grid at t=%g", e.Lane, e.At)
}

// Fold is the streaming form of a Plan. Lanes deliver concurrently, live
// through Sample or whole through Land; row i leaves through the emit hook
// the moment every lane has passed grid[i], in time order and one at a
// time. Each row is summed in addend order — the first addend is set, c·x,
// so a lane's -0 survives, and every later one added, += c·x — so its bits
// do not depend on which lane delivered first. The first error sticks: no
// row leaves after it.
//
// The rows handed to emit, and Result's, alias fold memory (and, when the
// plan is exactly one lane times 1 on its own grid, that lane's rows, which
// pass through uncopied); treat them and the delivered lanes as read-only.
type Fold struct {
	grid   []float64
	probes []int
	alias  bool // no grid, one lane times 1: its rows are the answer
	emit   func(t float64, row []float64)

	mu       sync.Mutex
	lanes    []track
	rows     [][]float64
	ready    int  // rows folded
	sent     int  // rows emitted
	emitting bool // a delivery is calling emit, with mu released
	err      error
	sample   []float64 // one interpolated lane sample
	zeros    []float64 // a zero-state lane's grid[0] contribution
}

// track is one addend's samples as delivered so far.
type track struct {
	Addend
	times  []float64
	rows   [][]float64
	final  []float64
	passed int // grid points this lane can no longer change
	landed bool
}

// NewFold starts folding p. emit (nil: none) receives every row as it
// leaves, on one of the delivering goroutines, inside its Sample or Land
// call.
func NewFold(p Plan, emit func(t float64, row []float64)) *Fold {
	f := &Fold{
		grid: p.Grid, probes: p.Probes, emit: emit,
		alias:  p.Grid == nil && len(p.Addends) == 1 && p.Addends[0].Coef == 1,
		lanes:  make([]track, len(p.Addends)),
		sample: make([]float64, len(p.Probes)),
		zeros:  make([]float64, len(p.Probes)),
	}
	for j, a := range p.Addends {
		a.ZeroState = a.ZeroState && len(f.grid) > 0
		f.lanes[j].Addend = a
		if a.ZeroState {
			f.lanes[j].passed = 1
		}
	}
	return f
}

// Sample delivers lane j's next recorded sample, as its OnSample hook sees
// it. row is kept, not copied: it must be the lane's own recorded row,
// which transient.Result never reuses.
func (f *Fold) Sample(j int, t float64, row []float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err != nil {
		return
	}
	l := &f.lanes[j]
	l.times = append(l.times, t)
	l.rows = append(l.rows, row)
	f.err = f.advance(j, len(l.times)-1)
	f.drain()
}

// Land delivers lane j's whole result — the rest of a live lane, or all of
// one that streamed nothing — and returns the fold's error so far: a short
// lane (*ShortLaneError), a zero-state lane that did not start at zero, or
// samples off the grid.
func (f *Fold) Land(j int, r *transient.Result) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err != nil {
		return f.err
	}
	l := &f.lanes[j]
	from := len(l.times)
	l.times, l.rows, l.final, l.landed = r.Times, r.Probes, r.Final, true
	f.err = f.advance(j, from)
	f.drain()
	return f.err
}

// Result returns the combination once every lane has landed and every
// delivery call has returned: the rows that left, the grid, and the final
// state Σ c·final. Its Stats are zero.
func (f *Fold) Result() (*transient.Result, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err != nil {
		return nil, f.err
	}
	for j := range f.lanes {
		if !f.lanes[j].landed {
			return nil, fmt.Errorf("superpose: lane %d has not landed", j)
		}
	}
	times := f.grid
	if times == nil {
		if len(f.lanes) == 0 {
			return nil, errors.New("superpose: no grid and no lanes to take one from")
		}
		times = f.lanes[0].times
		for _, l := range f.lanes[1:] {
			if len(l.times) != len(times) {
				return nil, fmt.Errorf("superpose: lane grids diverged (%d vs %d samples)", len(times), len(l.times))
			}
		}
	}
	if f.alias {
		l := &f.lanes[0]
		return &transient.Result{Times: l.times, Probes: l.rows, Final: l.final}, nil
	}
	res := &transient.Result{Times: times, Probes: f.rows}
	for j := range f.lanes {
		l := &f.lanes[j]
		acc := addScaled
		if j == 0 {
			acc = setScaled
			res.Final = make([]float64, len(l.final))
		}
		n := min(len(res.Final), len(l.final))
		acc(res.Final[:n], l.final[:n], l.Coef)
	}
	return res, nil
}

// fail makes err the fold's error unless it already has one.
func (f *Fold) fail(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err == nil {
		f.err = err
	}
}

// advance checks lane j's samples from index from on and moves its cursor.
// Called with f.mu held.
func (f *Fold) advance(j, from int) error {
	l := &f.lanes[j]
	probed := len(f.probes) > 0
	// A landed lane's samples past its last probe row do not count: the lane
	// is short of them, and of the grid points they would have reached.
	var rowless error
	if l.landed && probed {
		if len(l.rows) < len(l.times) {
			rowless = &ShortLaneError{Lane: j, At: l.times[len(l.rows)]}
			l.times = l.times[:len(l.rows)]
		}
		for i := from; i < len(l.times); i++ {
			if len(l.rows[i]) < len(f.probes) {
				return fmt.Errorf("superpose: lane %d row %d has %d columns for %d probes", j, i, len(l.rows[i]), len(f.probes))
			}
		}
	}
	n := len(l.times)
	switch {
	case f.grid == nil:
		l.passed = n
		return rowless
	case l.landed && !probed:
		// The rows carry no lane values: a landed lane has nothing left to give.
		l.passed = len(f.grid)
		return nil
	case !l.Interp:
		for i := from; i < n; i++ {
			if i >= len(f.grid) || !near(l.times[i], f.grid[i]) {
				return fmt.Errorf("superpose: lane %d sample %d at t=%g is off the %d-point grid", j, i, l.times[i], len(f.grid))
			}
		}
		l.passed = max(l.passed, n)
	case n > 0:
		// Interpolation at grid[i] is final once a later sample exists; a
		// landed lane's last sample also settles the points it lands on.
		last := l.times[n-1]
		for l.passed < len(f.grid) && (f.grid[l.passed] < last || l.landed && (f.grid[l.passed] <= last || near(last, f.grid[l.passed]))) {
			l.passed++
		}
	}
	if !l.landed {
		return nil
	}
	reach := l.passed // how far the lane's own samples go
	if !l.Interp || n == 0 {
		reach = n
	}
	if reach < len(f.grid) {
		return &ShortLaneError{Lane: j, At: f.grid[reach]}
	}
	if rowless != nil {
		return rowless
	}
	if l.ZeroState {
		for k, v := range f.laneAt(l, 0)[:len(f.probes)] {
			if math.Float64bits(v) != 0 {
				return fmt.Errorf("superpose: zero-state lane %d starts at %g, not +0, in column %d", j, v, k)
			}
		}
	}
	return nil
}

// drain folds every row all lanes have passed and, unless another delivery
// is already emitting, emits the folded rows in order, with f.mu released
// around each emit call. Called with f.mu held.
func (f *Fold) drain() {
	if f.err != nil {
		return
	}
	f.fold()
	if f.emit == nil {
		f.sent = f.ready
	}
	if f.emitting {
		return // that delivery emits these rows too before it returns
	}
	f.emitting = true
	for f.err == nil && f.sent < f.ready {
		t, row := f.row(f.sent)
		f.mu.Unlock()
		f.emit(t, row)
		f.mu.Lock()
		f.sent++
	}
	f.emitting = false
}

// row returns folded row i with its time, nil when no probes are recorded.
// Called with f.mu held.
func (f *Fold) row(i int) (float64, []float64) {
	var t float64
	if f.grid != nil {
		t = f.grid[i]
	} else {
		t = f.lanes[0].times[i]
	}
	switch {
	case len(f.probes) == 0:
		return t, nil
	case f.alias:
		return t, f.lanes[0].rows[i]
	}
	return t, f.rows[i]
}

// fold sums the rows every lane has passed since the last call. Called with
// f.mu held.
func (f *Fold) fold() {
	end := len(f.grid)
	if f.grid == nil {
		end = 0
		if len(f.lanes) > 0 {
			end = len(f.lanes[0].times)
		}
	}
	for j := range f.lanes {
		end = min(end, f.lanes[j].passed)
	}
	if f.alias || len(f.probes) == 0 {
		f.ready = max(f.ready, end)
		return
	}
	for ; f.ready < end; f.ready++ {
		row := make([]float64, len(f.probes))
		for j := range f.lanes {
			l := &f.lanes[j]
			acc := addScaled
			if j == 0 {
				acc = setScaled
			}
			acc(row, f.laneAt(l, f.ready), l.Coef)
		}
		f.rows = append(f.rows, row)
	}
}

// laneAt is lane l's probe row at grid point i: its sample i, the exact +0
// of a zero-state lane at grid[0], or its samples interpolated there.
func (f *Fold) laneAt(l *track, i int) []float64 {
	switch {
	case l.ZeroState && i == 0 && !l.landed:
		return f.zeros
	case !l.Interp:
		return l.rows[i]
	}
	view := transient.Result{Times: l.times, Probes: l.rows}
	for k := range f.sample {
		f.sample[k] = view.InterpProbe(f.grid[i], k)
	}
	return f.sample
}

// addScaled is dst += c·src and setScaled dst = c·src, over len(dst) entries.
func addScaled(dst, src []float64, c float64) {
	for k, x := range src[:len(dst)] {
		dst[k] += c * x
	}
}

func setScaled(dst, src []float64, c float64) {
	for k, x := range src[:len(dst)] {
		dst[k] = c * x
	}
}

// near is the rounding slack between a lane's recorded time and a grid time.
func near(t, g float64) bool { return math.Abs(t-g) <= 1e-15+1e-9*math.Abs(g) }
