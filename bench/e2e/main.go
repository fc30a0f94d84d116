// Command e2e is the MATEX benchmark harness. It drives the system from
// outside only: it execs the matex, matexd and matexsrv binaries, speaks
// HTTP and TSV to them, checks every output, and prints every metric by
// name with its unit. It imports nothing from this repository but the
// root facade (for deck generation), so refactors under internal/ cannot
// break the numbers that judge them.
//
// run.sh builds the binaries and then runs one of:
//
//	e2e --workload W --seed N --seconds S --trace 0   # end-to-end metrics of W
//	e2e --workload W --seed N --trace 1               # per-layer metrics of W's deck
//	e2e [--seed N] [--trace 1]                        # every workload
//	e2e --repeat-check                                # two sets must agree
//
// The last line of standard output is the result as one JSON object (of
// the last workload, when several ran).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"sort"
	"syscall"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result of one run of one workload, in the shape the
// benchmark contract prints.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// def names a metric, its unit and, for per-layer metrics, whether it is
// a count that must repeat exactly for a fixed seed.
type def struct {
	name, unit string
	exact      bool
}

// endToEnd lists the end-to-end metrics; BENCHMARK.json carries the same
// names with their regression bounds. A failed share is not among them
// because it is 0 on a healthy run: failures are the report's
// attempted/failed counts.
var endToEnd = []def{
	{name: "wall_s", unit: "s"},
	{name: "cpu_s", unit: "s"},
	{name: "peak_rss_mb", unit: "MB"},
	{name: "jobs_per_s", unit: "1/s"},
	{name: "ttfs_s", unit: "s"},
	{name: "setup_s", unit: "s"},
}

// A run sets its workload up several times — at least minSetups, and
// more if, going by the first, they are cheap enough to fit setupBudget —
// and reports the fastest, for the reason runE2E gives.
const (
	minSetups   = 3
	maxSetups   = 7
	setupBudget = 4 * time.Second
)

func main() { os.Exit(run()) }

func run() int {
	var (
		name     = flag.String("workload", "", "workload to run (default: all of them)")
		seed     = flag.Int64("seed", 1, "input seed; 2 is the hold-out seed")
		seconds  = flag.Float64("seconds", 24, "length of each timed phase")
		trace    = flag.Int("trace", 0, "1: report per-layer metrics from the traced pass instead of end-to-end metrics")
		repeat   = flag.Bool("repeat-check", false, "run two sets and fail unless they agree; then require seed 2 to pass")
		binDir   = flag.String("bin", "", "directory holding the built binaries")
		outDir   = flag.String("out", "", "directory for trace.json, metrics.json and scratch files")
		specPath = flag.String("spec", "BENCHMARK.json", "benchmark definition, for the bounds --repeat-check applies")
		layerErr = flag.String("layers-error", "", "file holding the compile error of bench/layers, if its build failed")
	)
	flag.Parse()
	if flag.NArg() > 0 || *binDir == "" || *outDir == "" {
		fmt.Fprintln(os.Stderr, "usage: e2e -bin DIR -out DIR [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--repeat-check]")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	for _, b := range []string{"matex", "matexd", "matexsrv"} {
		if _, err := os.Stat(filepath.Join(*binDir, b)); err != nil {
			return fail(fmt.Errorf("binary under test missing: %w", err))
		}
	}
	tmp, err := os.MkdirTemp(*outDir, "run-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(tmp)
	h := &harness{
		env:      env{bin: *binDir, tmp: tmp},
		out:      *outDir,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		layerErr: *layerErr,
	}

	if *repeat {
		if err := h.repeatCheck(ctx, *specPath); err != nil {
			return fail(err)
		}
		fmt.Println("repeat-check: passed")
		return 0
	}
	ws := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			return fail(fmt.Errorf("unknown workload %q", *name))
		}
		ws = []workload{w}
	}
	set, err := h.runSet(ctx, ws, *seed, *trace == 1, *name == "")
	if err != nil {
		return fail(err)
	}
	// The contract's result line: of the one workload asked for, or of
	// the last one when all ran.
	last := set[ws[len(ws)-1].name]
	rep := last.e2e
	if *trace == 1 {
		rep = last.layers
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(line))
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 1
}

// harness carries what every run needs.
type harness struct {
	env      env
	out      string
	seconds  time.Duration
	layerErr string
}

// result holds a workload's reports: end-to-end always when all
// workloads run, otherwise whichever pass was asked for.
type result struct {
	e2e    *report
	layers *report
}

func (r result) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		E2E    *report `json:"end_to_end,omitempty"`
		Layers *report `json:"per_layer,omitempty"`
	}{r.e2e, r.layers})
}

// runSet runs the given workloads one after the other: the end-to-end
// pass (skipped for a single traced workload, which is what the
// contract's --trace 1 asks for) and, if traced, the traced pass. With
// all set it also writes metrics.json.
func (h *harness) runSet(ctx context.Context, ws []workload, seed int64, traced, all bool) (map[string]result, error) {
	set := map[string]result{}
	var spans []json.RawMessage
	for _, w := range ws {
		var r result
		if !traced || all {
			rep, err := h.runE2E(ctx, w, seed)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
			r.e2e = rep
		}
		if traced {
			rep, sp, err := h.runTraced(ctx, w, seed)
			if err != nil {
				return nil, fmt.Errorf("%s (traced): %w", w.name, err)
			}
			r.layers = rep
			spans = append(spans, sp...)
		}
		set[w.name] = r
	}
	if traced {
		if err := writeJSON(filepath.Join(h.out, "trace.json"), spans); err != nil {
			return nil, err
		}
	}
	if all {
		if err := writeJSON(filepath.Join(h.out, "metrics.json"), map[string]any{"seed": seed, "workloads": set}); err != nil {
			return nil, err
		}
	}
	return set, nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runE2E runs the workload with tracing off and reports the end-to-end
// metrics. The run is a number of rounds, each a fresh set-up followed by
// its share of the timed phase, so that the set-ups are spread over the
// whole run like the operations are (back to back at its start, they
// would all see the host in one state).
func (h *harness) runE2E(ctx context.Context, w workload, seed int64) (*report, error) {
	var (
		t        timed
		setupS   []float64
		rssKB    float64 // the largest daemon high-water mark of any round
		clients  int
		sliceOps int
	)
	rounds := minSetups
	for r := 0; r < rounds; r++ {
		dir, err := os.MkdirTemp(h.env.tmp, w.name+"-")
		if err != nil {
			return nil, err
		}
		start := time.Now()
		in, err := w.setup(ctx, h.env, dir, w.deck, seed)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		took := time.Since(start)
		setupS = append(setupS, took.Seconds())
		if r == 0 {
			rounds = min(max(int(setupBudget/took), minSetups), maxSetups)
			clients, sliceOps = in.clients, in.sliceOps
		}
		part, err := measure(ctx, in, h.seconds/time.Duration(rounds), (minOps+rounds-1)/rounds)
		for _, d := range in.daemons {
			kb, rssErr := d.peakRSSKB()
			if err == nil {
				err = rssErr
			}
			rssKB = max(rssKB, float64(kb))
		}
		in.close()
		if err != nil {
			return nil, err
		}
		t.add(part)
	}
	rep := &report{Attempted: t.passed + t.failed, Failed: t.failed, Correct: t.failed == 0}
	for _, e := range t.errs {
		fmt.Fprintf(os.Stderr, "bench: %s: failed operation: %v\n", w.name, e)
	}
	if len(t.slices) == 0 {
		return nil, errors.New("no slice of the timed phase passed whole")
	}

	// Each time metric is computed per slice, and the run reports its best
	// slice, not its median one. This guest shares its host, and for
	// minutes at a time a neighbour makes every operation here 40-70 %
	// slower, CPU time included, so a run's median says which state the
	// host was in; the best slice is the time on a quiet host, which is
	// what a change to the program moves. The console shows both.
	var all []sample
	wall, first, cpu, rate := make([]float64, len(t.slices)), make([]float64, len(t.slices)), make([]float64, len(t.slices)), make([]float64, len(t.slices))
	for i, sl := range t.slices {
		all = append(all, sl.samples...)
		ops := float64(len(sl.samples))
		wall[i] = classMedian(sl.samples, func(s sample) float64 { return s.wall.Seconds() })
		first[i] = classMedian(sl.samples, func(s sample) float64 { return s.first.Seconds() })
		// CPU per operation: the exec'd children's rusage plus the
		// daemons' /proc delta over the slice.
		cpu[i] = sl.cpu.Seconds() / ops
		for _, s := range sl.samples {
			cpu[i] += s.cpu.Seconds() / ops
		}
		rate[i] = ops / sl.elapsed.Seconds()
	}
	// Memory of the process doing the work: the largest daemon's
	// high-water mark if daemons serve the operations, else the child's.
	rssKB = max(rssKB, median(column(all, func(s sample) float64 { return float64(s.rssKB) })))
	values := []float64{
		slices.Min(wall), slices.Min(cpu), rssKB / 1024, slices.Max(rate),
		slices.Min(first), slices.Min(setupS),
	}
	rep.Metrics = map[string]metric{}
	for i, d := range endToEnd {
		rep.Metrics[d.name] = metric{values[i], d.unit}
	}

	fmt.Printf("%s seed %d: %d operations by %d closed-loop client(s) in %.1f s, %d failed\n",
		w.name, seed, rep.Attempted, clients, t.elapsed.Seconds(), rep.Failed)
	of := func(xs []float64) string {
		return fmt.Sprintf("best of %d slices of %d; median slice %.4g", len(xs), sliceOps, median(xs))
	}
	printMetrics(rep.Metrics, map[string]string{
		"wall_s":     of(wall) + "; " + spread(all, func(s sample) float64 { return s.wall.Seconds() }),
		"cpu_s":      of(cpu),
		"jobs_per_s": of(rate),
		"ttfs_s":     of(first),
		"setup_s":    fmt.Sprintf("best of %d set-ups, one per round; median %.4g", len(setupS), median(setupS)),
	})
	return rep, nil
}

// column extracts one quantity from every sample.
func column(samples []sample, f func(sample) float64) []float64 {
	xs := make([]float64, len(samples))
	for i, s := range samples {
		xs[i] = f(s)
	}
	return xs
}

// classMedian is the median of f over the samples when they all ran the
// same input. A workload that rotates inputs of different cost
// (serve_stream's four decks) has a multimodal distribution whose overall
// median jumps between modes from run to run; for it, this is the mean of
// the per-input medians.
func classMedian(samples []sample, f func(sample) float64) float64 {
	byClass := map[int][]sample{}
	for _, s := range samples {
		byClass[s.class] = append(byClass[s.class], s)
	}
	sum := 0.0
	for _, ss := range byClass {
		sum += median(column(ss, f))
	}
	return sum / float64(len(byClass))
}

// spread describes the samples behind a reported figure: their count and
// the highest percentile that still has ten samples beyond it, if any.
func spread(samples []sample, f func(sample) float64) string {
	xs := column(samples, f)
	s := fmt.Sprintf("%d samples", len(xs))
	if p, ok := tailPercentile(len(xs)); ok {
		s += fmt.Sprintf(", p%g %.4g", p, percentile(xs, p))
	}
	return s
}

// printMetrics prints metrics by name with value, unit and a note.
func printMetrics(ms map[string]metric, notes map[string]string) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		line := fmt.Sprintf("  %-32s %14.6g %-6s", n, ms[n].Value, ms[n].Unit)
		if note := notes[n]; note != "" {
			line += " (" + note + ")"
		}
		fmt.Println(line)
	}
}
