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
//	matex -method rmatex -workers host1:9090,host2:9090 grid.sp
//	matex -sweep corners.json grid.sp             # N variants, one batched run
//
// Probed nodes come from the deck's ".print tran v(...)" cards; without any,
// the first node of the deck is probed.
//
// Every run writes each row as it leaves the engine, t = 0 as soon as the DC
// operating point exists: a single-process run as it integrates, a
// -distributed/-workers run as the slowest task passes each grid point (a
// remote task's rows when it lands), a -sweep run each variant's rows as its
// lanes pass them, interleaved across variants. Check the exit status: a run
// that fails after rows have left exits 1, error on stderr, table ending on
// a complete row — a partial table is a failed run.
//
// -sweep FILE runs every scenario variant in FILE (a JSON array of sweep
// variant objects, or an object with a "variants" key — the same schema
// as the serving API's POST /sweep) through one batched computation: one
// factorization-cache lineage, cross-variant multi-RHS solve panels, and
// collinear-variant sharing. The TSV output gains a leading "variant"
// column; -stats adds the sweep's lane and panel report above the solver
// line, whose counters are folded across the lanes.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"

	"github.com/matex-sim/matex/internal/circuit"
	"github.com/matex-sim/matex/internal/dist"
	"github.com/matex-sim/matex/internal/krylov"
	"github.com/matex-sim/matex/internal/netlist"
	"github.com/matex-sim/matex/internal/sparse"
	"github.com/matex-sim/matex/internal/sweep"
	"github.com/matex-sim/matex/internal/transient"
)

func main() {
	method := flag.String("method", "rmatex", "integrator: tr, be, fe, tradpt, mexp, imatex, rmatex")
	tstop := flag.Float64("tstop", 0, "simulation window in seconds (default: the deck's .tran stop)")
	step := flag.Float64("step", 0, "fixed step for tr/be/fe in seconds (default: the deck's .tran step)")
	tol := flag.Float64("tol", 0, "Krylov error budget (MATEX) or LTE target (tradpt); 0 = the method's default, 1e-6 for MATEX, 1e-4 for tradpt")
	gamma := flag.Float64("gamma", 1e-10, "rational shift γ for rmatex")
	distributed := flag.Bool("distributed", false, "decompose sources by bump feature and superpose")
	workers := flag.String("workers", "", "comma-separated matexd TCP addresses (implies -distributed)")
	order := flag.String("order", "default", "fill-reducing ordering: default (=nd), natural, mindeg, nd")
	krylovFlag := flag.String("krylov", "auto", "Krylov subspace process: auto (symmetric Lanczos fast path where eligible), arnoldi, lanczos")
	cacheMB := flag.Int("cache-mb", 256, "factorization cache budget in MiB (0 disables the cache)")
	stats := flag.Bool("stats", false, "print solver work statistics to stderr")
	sweepFile := flag.String("sweep", "", "JSON variant file: run every scenario variant of the deck as one batched sweep")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: matex [flags] netlist.sp")
		flag.Usage()
		os.Exit(2)
	}
	m, err := transient.ParseMethod(*method)
	if err != nil {
		fatal(err)
	}
	ord, err := sparse.ParseOrdering(*order)
	if err != nil {
		fatal(err)
	}
	km, err := krylov.ParseMethod(strings.ToLower(*krylovFlag))
	if err != nil {
		fatal(err)
	}
	var cache *sparse.Cache
	if *cacheMB > 0 {
		cache = sparse.NewCache(int64(*cacheMB) << 20)
	}

	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	deck, err := netlist.Parse(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fatal(err)
	}
	sys, err := circuit.Stamp(deck.Circuit, circuit.StampOptions{CollapseSupplies: true})
	if err != nil {
		fatal(err)
	}

	if *tstop == 0 {
		*tstop = deck.TranStop
	}
	if *tstop <= 0 {
		fatal(fmt.Errorf("no simulation window: pass -tstop or add a .tran card"))
	}
	if *step == 0 {
		*step = deck.TranStep
	}

	// Probes from .print cards, else the first node.
	probeNames := deck.Prints
	if len(probeNames) == 0 {
		names := sys.NodeNames()
		if len(names) > 0 {
			probeNames = names[:1]
		}
	}
	probes, kept, skipped, err := sys.ResolveProbes(probeNames)
	if err != nil {
		fatal(err)
	}
	for _, name := range skipped {
		fmt.Fprintf(os.Stderr, "matex: %s is a supply rail, skipping probe\n", name)
	}

	sweeping := *sweepFile != ""
	if sweeping && (*distributed || *workers != "") {
		fatal(fmt.Errorf("-sweep and -distributed are mutually exclusive (a sweep batches within one process)"))
	}
	var variants []sweep.Variant
	if sweeping {
		if variants, err = loadVariants(*sweepFile); err != nil {
			fatal(err)
		}
	}

	// One TSV table through one buffer; a sweep's has a leading variant column
	// and interleaves its variants' rows. The header waits there for the first
	// row, so a run that fails before it has a sample prints nothing. Each row
	// is flushed whole as the engine delivers it: what a failed run leaves on
	// stdout ends on a complete row. A row is nil/empty when every probe was
	// skipped (all supply rails): the table has no voltage columns.
	tsv := []byte("time")
	if sweeping {
		tsv = []byte("variant\ttime")
	}
	for _, name := range kept {
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
	writeRow := func(variant string, t float64, row []float64) {
		mu.Lock()
		defer mu.Unlock()
		if sweeping {
			tsv = fmt.Appendf(tsv, "%s\t", variant)
		}
		tsv = fmt.Appendf(tsv, "%.6e", t)
		for k := range kept {
			if k < len(row) {
				tsv = fmt.Appendf(tsv, "\t%.9e", row[k])
			}
		}
		tsv = append(tsv, '\n')
		flush()
	}

	opts := transient.Options{
		Tstop: *tstop, Step: *step, Tol: *tol, Gamma: *gamma, Probes: probes,
		Ordering: ord, Cache: cache, Krylov: km,
	}
	var res *transient.Result
	var rep *dist.Report
	var sres *sweep.Result
	switch {
	case sweeping:
		sopts := sweep.Options{Base: opts, Method: m}
		sopts.OnVariantSample = func(v int, t float64, row []float64) { writeRow(variants[v].Label(v), t, row) }
		if sres, err = sweep.Run(sys, variants, sopts); err == nil {
			res = &transient.Result{Stats: sres.Stats.Sim}
		}
	case *distributed || *workers != "":
		opts.OnSample = func(t float64, row []float64) { writeRow("", t, row) }
		cfg := dist.Config{Base: opts}
		if *workers != "" {
			if cfg.Pool, err = dist.NewRPCPool(context.Background(), strings.Split(*workers, ",")); err != nil {
				fatal(err)
			}
			defer cfg.Pool.Close() //matex:err-ok(process exit; a failed close of a worker connection has no recovery)
		}
		res, rep, err = dist.Run(dist.NewSystem(sys), m, cfg)
	default:
		opts.OnSample = func(t float64, row []float64) { writeRow("", t, row) }
		res, err = transient.Simulate(sys, m, opts)
	}
	if err != nil {
		fatal(err)
	}
	flush() // the header of a table no row reached

	if *stats {
		// Readers of -stats collect key=value tokens across lines, so no key
		// repeats between the lines below.
		if rep != nil {
			fmt.Fprintf(os.Stderr, "tasks=%d groups=%d retried=%d max_node_time=%v max_node_transient=%v\n",
				rep.Tasks, rep.Groups, rep.Retried, rep.MaxNodeTime, rep.MaxNodeTrTime)
			// One line per dispatched task.
			for i, t := range rep.PerTask {
				st := &rep.TaskStats[i]
				fmt.Fprintf(os.Stderr, "task=%d members=%s lts=%d wait=%v elapsed=%v retries=%d spots=%d pairs=%d",
					i, joinInts(t.Groups), t.Spots, t.Wait, t.Elapsed, t.Retried, len(st.KrylovDims), st.SolvePairs)
				if t.Worker != "" {
					fmt.Fprintf(os.Stderr, " worker=%s", t.Worker)
				}
				fmt.Fprintln(os.Stderr)
			}
		}
		if sres != nil {
			st := &sres.Stats
			fmt.Fprintf(os.Stderr, "variants=%d lanes=%d shared=%d panel_rounds=%d panel_batched=%d mean_panel_width=%.2f\n",
				st.Variants, st.Lanes, st.SharedVariants, st.Panel.Rounds, st.Panel.Batched, st.Panel.MeanWidth())
		}
		s := &res.Stats
		fmt.Fprintf(os.Stderr, "factorizations=%d refactors=%d symbolic_hits=%d cache_hits=%d cache_misses=%d solve_pairs=%d spmvs=%d expm_evals=%d steps=%d m_a=%.1f m_p=%d lanczos_spots=%d/%d dc=%v factor=%v transient=%v input_pairs=%d deviation_spots=%d\n",
			s.Factorizations, s.Refactors, s.SymbolicHits, s.CacheHits, s.CacheMisses, s.SolvePairs, s.SpMVs, s.ExpmEvals, s.Steps, s.MA(), s.MP(), s.LanczosSpots, len(s.KrylovDims), s.DCTime, s.FactorTime, s.TransientTime, s.InputPairs, s.DeviationSpots)
	}
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
	if err := json.Unmarshal(b, &list); err == nil {
		return list, nil
	}
	var obj struct {
		Variants []sweep.Variant `json:"variants"`
	}
	if err := json.Unmarshal(b, &obj); err != nil {
		return nil, fmt.Errorf("parsing %s: want a JSON array of variants or {\"variants\": [...]}: %w", path, err)
	}
	return obj.Variants, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "matex:", err)
	os.Exit(1)
}
