package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/matex-sim/matex"
)

// env locates the binaries under test and the scratch directory.
type env struct {
	bin string // directory holding matex, matexd, matexsrv (and layers)
	tmp string // scratch root, inside the checkout
}

func (e env) matex() string { return filepath.Join(e.bin, "matex") }

// sample is one timed operation as its caller saw it.
type sample struct {
	class int // which of the workload's inputs it ran; see classMedian
	wall  time.Duration
	first time.Duration // to the first sample row / line
	cpu   time.Duration // of the process exec'd for this op (0: none was)
	rssKB int64         // of that process
}

// instance is a set-up workload: op performs and checks operation i and
// is safe to call from `clients` goroutines at once.
type instance struct {
	clients int
	// sliceOps is how many consecutive operations make one slice of the
	// timed phase (see measure): one for an operation that is long and
	// ran alone, enough to fill a second or so and to cover every input
	// class several times otherwise.
	sliceOps int
	op       func(ctx context.Context, i int) (sample, error)
	daemons  []*daemon // serve the ops; their CPU and RSS are the workload's
}

func (in *instance) close() {
	for _, d := range in.daemons {
		d.stop()
	}
}

// workload is one benchmark workload. Every caller is closed-loop: it
// starts its next operation when the previous one has been answered.
type workload struct {
	name string
	// deck is what a traced run replays through every layer.
	deck deckSpec
	// setup builds inputs from deck and seed and references for them under
	// dir, starts daemons and warms them. Everything it does is set-up time.
	setup setupFunc
}

type setupFunc func(ctx context.Context, e env, dir string, deck deckSpec, seed int64) (*instance, error)

// Reference waveforms come from the same binary's fixed-step trapezoidal
// integrator, which shares the sparse layer with MATEX but none of krylov
// or the MATEX drivers. The step (and nd ordering on the largest deck) is
// the cheapest that keeps TR's own error an order below the tolerance.
var workloads = []workload{
	{name: "grid_static", deck: deckStatic,
		setup: gridSetup(1e-5, "-method", "tr", "-step", "10e-12", "-order", "nd")},
	{name: "grid_dynamic", deck: deckDynamic,
		setup: gridSetup(1e-5, "-method", "tr", "-step", "10e-12")},
	{name: "serve_stream", deck: decksServe[0], setup: serveSetup},
	{name: "dist_loopback", deck: deckDynamic, setup: distSetup},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// genDeck builds the deck for a seed and writes it under dir.
func genDeck(spec deckSpec, seed int64, dir, name string) (*matex.Deck, string, error) {
	deck, err := spec.build(seed)
	if err != nil {
		return nil, "", err
	}
	path := filepath.Join(dir, name)
	return deck, path, writeDeck(path, deck)
}

// runTable execs matex and parses its waveform table.
func runTable(ctx context.Context, e env, args ...string) (cliRun, table, error) {
	r, err := runCLI(ctx, e.matex(), args...)
	if err != nil {
		return r, table{}, err
	}
	t, err := parseTSV(r.stdout, 0, "")
	return r, t, err
}

func cliSample(r cliRun) sample {
	return sample{wall: r.wall, first: r.first, cpu: r.cpu, rssKB: r.rssKB}
}

// gridSetup is the one-shot CLI workload: `matex deck`, full TSV out to a
// pipe, checked against a fixed-step reference made with refArgs.
func gridSetup(tol float64, refArgs ...string) setupFunc {
	return func(ctx context.Context, e env, dir string, spec deckSpec, seed int64) (*instance, error) {
		_, path, err := genDeck(spec, seed, dir, "deck.sp")
		if err != nil {
			return nil, err
		}
		_, ref, err := runTable(ctx, e, append(refArgs, path)...)
		if err != nil {
			return nil, fmt.Errorf("reference run: %w", err)
		}
		return &instance{clients: 1, sliceOps: 1, op: func(ctx context.Context, _ int) (sample, error) {
			r, got, err := runTable(ctx, e, path)
			if err != nil {
				return sample{}, err
			}
			return cliSample(r), checkAgainst(got, ref, tol)
		}}, nil
	}
}

// startWorkers starts two matexd for a D-MATEX run and returns them with
// the -workers argument.
func startWorkers(ctx context.Context, e env) ([]*daemon, string, error) {
	var ds []*daemon
	addrs := ""
	for i := 0; i < 2; i++ {
		d, err := startDaemon(ctx, filepath.Join(e.bin, "matexd"))
		if err != nil {
			for _, d := range ds {
				d.stop()
			}
			return nil, "", err
		}
		ds = append(ds, d)
		if i > 0 {
			addrs += ","
		}
		addrs += d.addr
	}
	return ds, addrs, nil
}

// distOp is `matex -workers a,b deck`, checked against the one-shot
// table of the same deck: same rows, within 1e-6 V.
func distOp(ctx context.Context, e env, addrs, path string, oneshot table) (cliRun, error) {
	r, got, err := runTable(ctx, e, "-workers", addrs, "-stats", path)
	if err != nil {
		return r, err
	}
	if len(got.rows) != len(oneshot.rows) {
		return r, fmt.Errorf("distributed run has %d rows, one-shot %d", len(got.rows), len(oneshot.rows))
	}
	return r, checkAgainst(got, oneshot, 1e-6)
}

// distSetup is D-MATEX over loopback: two matexd kept up across
// operations, so after the set-up's first operation their factor caches
// are warm. Same deck as grid_dynamic.
func distSetup(ctx context.Context, e env, dir string, spec deckSpec, seed int64) (*instance, error) {
	_, path, err := genDeck(spec, seed, dir, "deck.sp")
	if err != nil {
		return nil, err
	}
	_, oneshot, err := runTable(ctx, e, path)
	if err != nil {
		return nil, fmt.Errorf("one-shot reference run: %w", err)
	}
	ds, addrs, err := startWorkers(ctx, e)
	if err != nil {
		return nil, err
	}
	in := &instance{clients: 1, sliceOps: 1, daemons: ds, op: func(ctx context.Context, _ int) (sample, error) {
		r, err := distOp(ctx, e, addrs, path, oneshot)
		return cliSample(r), err
	}}
	if _, err := in.op(ctx, 0); err != nil {
		in.close()
		return nil, fmt.Errorf("cold run: %w", err)
	}
	return in, nil
}

// startService starts matexsrv with two job workers and a durable state
// directory, as a deployment would run it.
func startService(ctx context.Context, e env, dir string) (*daemon, string, error) {
	state := filepath.Join(dir, "state")
	if err := os.MkdirAll(state, 0o755); err != nil {
		return nil, "", err
	}
	d, err := startDaemon(ctx, filepath.Join(e.bin, "matexsrv"), "-workers", "2", "-state-dir", state)
	if err != nil {
		return nil, "", err
	}
	return d, "http://" + d.addr, nil
}

// serveSetup is the warm job service: two closed-loop clients POST
// /v1/simulate, rotating four inline decks, and read each NDJSON stream
// to its done tail. Every job is checked against the one-shot table of
// its deck. The warm pass puts every deck's factors in the cache, so the
// timed jobs pay parse, stamp, journal, queue, integrate and stream —
// not factorization.
func serveSetup(ctx context.Context, e env, dir string, _ deckSpec, seed int64) (*instance, error) {
	bodies := make([][]byte, len(decksServe))
	refs := make([]table, len(decksServe))
	for i, spec := range decksServe {
		_, path, err := genDeck(spec, seed*int64(len(decksServe))+int64(i), dir, fmt.Sprintf("deck%d.sp", i))
		if err != nil {
			return nil, err
		}
		if _, refs[i], err = runTable(ctx, e, path); err != nil {
			return nil, fmt.Errorf("one-shot reference run: %w", err)
		}
		text, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		if bodies[i], err = jobBody(text); err != nil {
			return nil, err
		}
	}
	srv, base, err := startService(ctx, e, dir)
	if err != nil {
		return nil, err
	}
	in := &instance{clients: 2, sliceOps: serveSliceOps, daemons: []*daemon{srv}, op: func(ctx context.Context, i int) (sample, error) {
		k := i % len(bodies)
		s, err := simulate(ctx, base, bodies[k], refs[k], 1e-9)
		return sample{class: k, wall: s.wall, first: s.first}, err
	}}
	for i := range bodies {
		if _, err := in.op(ctx, i); err != nil {
			in.close()
			return nil, fmt.Errorf("warm pass: %w", err)
		}
	}
	return in, nil
}

// serveSliceOps makes a slice of the service workload five passes over
// its four decks: 0.6 s or so, and five samples of each deck.
const serveSliceOps = 20

// minOps is the fewest operations a run's timed phase performs, however
// long they take.
const minOps = 10

// slice is a stretch of the timed phase: sliceOps consecutive operations
// as they completed. The metrics are computed per slice and the run
// reports its best slice — see runE2E for why.
type slice struct {
	samples []sample      // of the operations that passed
	elapsed time.Duration // from the end of the slice before to the end of this one
	cpu     time.Duration // the daemons' CPU over it
}

// timed is the outcome of a workload's timed phase.
type timed struct {
	slices  []slice
	passed  int
	failed  int
	errs    []error       // the first few failures, for the report
	elapsed time.Duration // of the whole phase
}

// add appends a later part of the timed phase.
func (t *timed) add(part timed) {
	t.slices = append(t.slices, part.slices...)
	t.passed += part.passed
	t.failed += part.failed
	t.errs = append(t.errs, part.errs...)
	t.elapsed += part.elapsed
}

// measure runs the closed loop for at least d and at least minOps
// operations, and ends on a slice boundary: each client starts its next
// operation when its last one has been answered and checked.
func measure(ctx context.Context, in *instance, d time.Duration, minOps int) (timed, error) {
	var t timed
	cpu0, err := daemonsCPU(in.daemons)
	if err != nil {
		return t, err
	}
	var (
		mu       sync.Mutex
		next     int   // operations started
		done     int   // operations finished
		cur      slice // the slice being filled
		firstErr error // of reading the daemons' CPU
	)
	start := time.Now()
	last := start
	var wg sync.WaitGroup
	for c := 0; c < in.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				stop := ctx.Err() != nil || firstErr != nil ||
					(time.Since(start) >= d && i >= minOps && i%in.sliceOps == 0)
				if !stop {
					next++
				}
				mu.Unlock()
				if stop {
					return
				}
				s, err := in.op(ctx, i)
				mu.Lock()
				if err != nil {
					t.failed++
					if len(t.errs) < 3 {
						t.errs = append(t.errs, err)
					}
				} else {
					t.passed++
					cur.samples = append(cur.samples, s)
				}
				if done++; done%in.sliceOps == 0 {
					now := time.Now()
					cpu1, err := daemonsCPU(in.daemons)
					if err != nil && firstErr == nil {
						firstErr = err
					}
					cur.elapsed, cur.cpu = now.Sub(last), cpu1-cpu0
					if len(cur.samples) == in.sliceOps { // a slice with a failure in it is not measured
						t.slices = append(t.slices, cur)
					}
					cur, last, cpu0 = slice{}, now, cpu1
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	t.elapsed = time.Since(start)
	if firstErr == nil {
		firstErr = ctx.Err()
	}
	return t, firstErr
}

func daemonsCPU(ds []*daemon) (time.Duration, error) {
	var sum time.Duration
	for _, d := range ds {
		c, err := d.cpu()
		if err != nil {
			return 0, err
		}
		sum += c
	}
	return sum, nil
}
