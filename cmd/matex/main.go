// Command matex simulates a power distribution network netlist.
//
// It parses a SPICE-subset deck (the IBM power grid benchmark format), runs
// the selected transient integrator, and writes the probed node waveforms as
// tab-separated values.
//
// Usage:
//
//	matex -method rmatex -tstop 10n grid.sp
//	matex -method tr -step 10p grid.sp            # fixed-step trapezoidal
//	matex -method rmatex -distributed grid.sp     # bump-group decomposition
//	matex -method rmatex -workers host1:9090,host2:9090 grid.sp  # matexd workers
//	matex -sweep corners.json grid.sp             # N variants, one run
//
// Probed nodes come from the deck's ".print tran v(...)" cards; without any,
// the first node of the deck is probed.
//
// Every run writes each row as it leaves the engine, t = 0 as soon as the DC
// operating point exists: a single-process run as it integrates, a
// -distributed/-workers run as the slowest task passes each grid point (the
// DC point is solved by the first task's node, so t = 0 leaves with that
// task's first row), a -sweep run each variant's rows as its lanes pass
// them, interleaved across variants. Check the exit status: a run
// that fails after rows have left exits 1, error on stderr, table ending on
// a complete row — a partial table is a failed run. SIGINT/SIGTERM cancel
// the run, and a -workers run's tasks on their workers with it.
//
// -workers names job servers (matexd or matexsrv, host:port): each task is
// posted to one as a job, the run's spec narrowed to the task's sources and
// naming the deck by the SHA-256 of its text, and its rows are read back
// from the job's stream as they arrive. A worker that does not hold the deck
// is sent it once per run; the coordinator itself factorizes nothing. A task
// whose worker dies, drains or is full moves to the next worker, which
// streams it again from the start.
//
// -sweep FILE runs every scenario variant in FILE (a JSON array of sweep
// variant objects, or an object with a "variants" key — the same schema
// as the serving API's POST /sweep) as one computation: one
// factorization-cache lineage, every lane integrating in parallel, and
// collinear-variant sharing. The TSV output gains a leading "variant"
// column; -stats adds the sweep's lane report above the solver line, whose
// counters are folded across the lanes.
//
// The flags fill a job.Spec, the value a matexsrv submission decodes to, and
// internal/job resolves and runs it: the CLI and the service default, refuse
// (a -sweep that is also -distributed, a fixed-step method with no step) and
// run a spec the same way.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"

	"github.com/matex-sim/matex/internal/job"
	"github.com/matex-sim/matex/internal/sparse"
	"github.com/matex-sim/matex/internal/sweep"
)

func main() {
	method := flag.String("method", "rmatex", "integrator: tr, tradpt, mexp, imatex, rmatex")
	tstop := flag.Float64("tstop", 0, "simulation window in seconds (default: the deck's .tran stop)")
	step := flag.Float64("step", 0, "fixed step for tr, initial step for tradpt, in seconds (default: the deck's .tran step)")
	tol := flag.Float64("tol", 0, "Krylov error budget (MATEX) or LTE target (tradpt); 0 = the method's default, 1e-6 for MATEX, 1e-4 for tradpt")
	gamma := flag.Float64("gamma", 1e-10, "rational shift γ for rmatex")
	distributed := flag.Bool("distributed", false, "decompose sources by bump feature and superpose")
	workers := flag.String("workers", "", "comma-separated host:port of the job servers (matexd or matexsrv) the tasks are posted to, each naming the deck by hash; a worker without it is sent the deck once (implies -distributed)")
	order := flag.String("order", "default", "fill-reducing ordering: default (=nd), natural, mindeg, nd")
	krylovFlag := flag.String("krylov", "auto", "Krylov subspace process: auto (symmetric Lanczos fast path where eligible; lanczos is a synonym), arnoldi")
	cacheMB := flag.Int("cache-mb", 256, "factorization cache budget in MiB (<=0 selects the default)")
	stats := flag.Bool("stats", false, "print solver work statistics to stderr")
	sweepFile := flag.String("sweep", "", "JSON variant file: run every scenario variant of the deck as one sweep")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: matex [flags] netlist.sp")
		flag.Usage()
		os.Exit(2)
	}
	spec := job.Spec{
		Method: *method, Tstop: *tstop, Step: *step, Tol: *tol, Gamma: *gamma,
		Krylov: *krylovFlag, Ordering: *order, Distributed: *distributed || *workers != "",
	}
	cache := sparse.NewCache(int64(*cacheMB) << 20)

	text, err := readDeck(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	deck, err := job.ParseDeck(text, *workers != "")
	if err != nil {
		fatal(err)
	}
	if *sweepFile != "" {
		if spec.Variants, err = loadVariants(*sweepFile); err != nil {
			fatal(err)
		}
	}
	task, err := spec.Resolve(deck)
	if err != nil {
		fatal(err)
	}
	for _, name := range task.Skipped {
		fmt.Fprintf(os.Stderr, "matex: %s is a supply rail, skipping probe\n", name)
	}

	// One TSV table through one buffer; a sweep's has a leading variant column
	// and interleaves its variants' rows. The header waits there for the first
	// row, so a run that fails before it has a sample prints nothing. Each row
	// is flushed whole as the engine delivers it: what a failed run leaves on
	// stdout ends on a complete row. A row is nil/empty when every probe was
	// skipped (all supply rails): the table has no voltage columns.
	sweeping := len(spec.Variants) > 0
	tsv := []byte("time")
	if sweeping {
		tsv = []byte("variant\ttime")
	}
	for _, name := range task.Names {
		tsv = fmt.Appendf(tsv, "\tv(%s)", name)
	}
	tsv = append(tsv, '\n')
	flush := func() {
		if _, err := os.Stdout.Write(tsv); err != nil {
			fatal(err)
		}
		tsv = tsv[:0]
	}
	var mu sync.Mutex // sweep variants stream concurrently
	hooks := job.Hooks{Cache: cache}
	hooks.OnSample = func(variant string, t float64, row []float64) {
		mu.Lock()
		defer mu.Unlock()
		if sweeping {
			tsv = fmt.Appendf(tsv, "%s\t", variant)
		}
		tsv = fmt.Appendf(tsv, "%.6e", t)
		for k := range task.Names {
			if k < len(row) {
				tsv = fmt.Appendf(tsv, "\t%.9e", row[k])
			}
		}
		tsv = append(tsv, '\n')
		flush()
	}
	if *workers != "" {
		hooks.Workers = strings.Split(*workers, ",")
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	out, err := task.Run(ctx, hooks)
	if err != nil {
		fatal(err)
	}
	flush() // the header of a table no row reached

	if *stats {
		// Readers of -stats collect key=value tokens across lines, so no key
		// repeats between the lines below.
		if rep := out.Dist; rep != nil {
			fmt.Fprintf(os.Stderr, "tasks=%d groups=%d retried=%d max_node_time=%v max_node_transient=%v\n",
				rep.Tasks, rep.Groups, rep.Retried, rep.MaxNodeTime, out.Stats.TransientTime)
			// One line per dispatched task.
			for i, t := range rep.PerTask {
				st := &rep.TaskStats[i]
				fmt.Fprintf(os.Stderr, "task=%d members=%s lts=%d wait=%v elapsed=%v retries=%d spots=%d pairs=%d",
					i, joinInts(t.Groups), t.Spots, t.Wait, t.Elapsed, t.Retried, st.Spots(), st.SolvePairs)
				if t.Worker != "" {
					fmt.Fprintf(os.Stderr, " worker=%s", t.Worker)
				}
				fmt.Fprintln(os.Stderr)
			}
		}
		if st := out.Sweep; st != nil {
			// Every solve is one right-hand side per factor traversal; the two
			// panel keys stay, constant, for readers that still parse them.
			fmt.Fprintf(os.Stderr, "variants=%d lanes=%d shared=%d panel_batched=0 mean_panel_width=1.00\n",
				st.Variants, st.Lanes, st.SharedVariants)
		}
		s := &out.Stats
		fmt.Fprintf(os.Stderr, "factorizations=%d refactors=%d symbolic_hits=%d cache_hits=%d cache_misses=%d solve_pairs=%d spmvs=%d expm_evals=%d steps=%d m_a=%.1f m_p=%d lanczos_spots=%d/%d dc=%v factor=%v transient=%v input_pairs=%d deviation_spots=%d input_ahead=%d input_discarded=%d\n",
			s.Factorizations, s.Refactors, s.SymbolicHits, s.CacheHits, s.CacheMisses, s.SolvePairs, s.SpMVs, s.ExpmEvals, s.Steps, s.MA(), s.MP(), s.LanczosSpots, s.Spots(), s.DCTime, s.FactorTime, s.TransientTime, s.InputPairs, s.DeviationSpots, s.InputAhead, s.InputDiscarded)
	}
}

// readDeck reads the deck file into one string: the text the deck is parsed
// from and a -workers run hashes and sends a worker that does not hold it.
func readDeck(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	var text strings.Builder
	if st, err := f.Stat(); err == nil {
		text.Grow(int(st.Size()))
	}
	_, err = io.Copy(&text, f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return text.String(), err
}

// joinInts renders ids as "0,3,5".
func joinInts(ids []int) string {
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = strconv.Itoa(id)
	}
	return strings.Join(parts, ",")
}

// loadVariants reads a sweep variant file: either a bare JSON array of
// variants or an object with a "variants" field (the POST /sweep body
// shape, so one file serves both the CLI and curl).
func loadVariants(path string) ([]sweep.Variant, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var list []sweep.Variant
	if err := json.Unmarshal(b, &list); err != nil {
		var obj struct {
			Variants []sweep.Variant `json:"variants"`
		}
		if err := json.Unmarshal(b, &obj); err != nil {
			return nil, fmt.Errorf("parsing %s: want a JSON array of variants or {\"variants\": [...]}: %w", path, err)
		}
		list = obj.Variants
	}
	if len(list) == 0 {
		return nil, fmt.Errorf("%s: sweep: no variants", path)
	}
	return list, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "matex:", err)
	os.Exit(1)
}
