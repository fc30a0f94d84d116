// Command benchcmp compares a fresh scripts/bench.sh JSON trajectory
// against a committed baseline and fails when any selected row slowed down
// past a tolerance factor — the CI bench-regression gate.
//
// Usage:
//
//	go run ./scripts/benchcmp -base BENCH_BASELINE.json -new bench-ci.json \
//	    -rows '^Benchmark(Factor_|Refactor|Solve)' -max-ratio 2.5
//
// It prints a Markdown comparison table (pipe it into
// "$GITHUB_STEP_SUMMARY" for the job summary) and exits non-zero on a
// regression, or when one of the intra-run gates of the table below — ratios
// and counted invariants inside the fresh run, immune to machine speed — is
// out of bounds. `benchcmp -base X -new X` must pass on every committed
// baseline. The tolerance is deliberately generous: CI machines are
// noisy and the gate is meant to catch order-of-magnitude regressions
// (a lost fast path, an accidental re-analysis per step), not jitter.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"regexp"
	"sort"
	"strings"
)

type benchFile struct {
	Benchtime  string           `json:"benchtime"`
	Benchmarks []map[string]any `json:"benchmarks"`
}

// rows maps a benchmark name to its metrics: ns/op, B/op, allocs/op and
// whatever the benchmark reported itself (lanes, tasks, solve_pairs, …).
type rows map[string]map[string]float64

// load reads a bench JSON file.
func load(path string) (rows, string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, "", err
	}
	var f benchFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, "", fmt.Errorf("%s: %w", path, err)
	}
	out := make(rows, len(f.Benchmarks))
	for _, b := range f.Benchmarks {
		name, _ := b["name"].(string)
		if _, ok := b["ns/op"].(float64); name == "" || !ok {
			continue
		}
		out[name] = make(map[string]float64, len(b))
		for k, v := range b {
			if x, ok := v.(float64); ok {
				out[name][k] = x
			}
		}
	}
	return out, f.Benchtime, nil
}

// gate is one check that does not depend on how fast the machine is: a
// metric of a fresh row divided by the same metric of another fresh row
// (over), or — over empty — of the same row in the baseline, held inside
// [lo, hi]. A zero bound is open; both zero prints the ratio for context
// and gates nothing. An abs gate holds the fresh value itself inside
// [lo, hi], both bounds closed (a count that must be 0 has no ratio). A gate
// whose row the fresh run did not measure is skipped; one whose reference is
// missing fails.
type gate struct {
	row, metric, over string
	abs               bool
	lo, hi            float64
	why               string
}

// gates is the whole intra-run table. Every bound must hold when the
// committed baseline is compared against itself (CI checks exactly that):
// a gate the baseline cannot pass measures the runner, not the code.
var gates = []gate{
	{row: "BenchmarkDist_2Nodes_ibmpg1t", metric: "ns/op", over: "BenchmarkDist_PerGroup_ibmpg1t", hi: 0.80,
		why: "the planner merges bump groups for the nodes present; a plan that stops merging, or merges groups far apart in time, lands near 1"},
	// The sweep is gated on what it counted, not on a wall ratio: Sweep_k8
	// is 5 independent lanes at n = 891 run in parallel on however many
	// cores the runner has, so its wall over a solo run follows the core
	// count, while lost sharing shows as more lanes or factorizations on
	// any machine.
	{row: "BenchmarkSweep_k8", metric: "lanes", lo: 1, hi: 1, why: "collinear sharing plans 5 lanes for the 8 corners"},
	{row: "BenchmarkSweep_k8", metric: "factorizations", lo: 1, hi: 1, why: "one cache lineage: G and C+γG, once"},
	{row: "BenchmarkSweep_k4", metric: "lanes", lo: 1, hi: 1, why: "4 non-collinear corners share nothing"},
	{row: "BenchmarkSweep_k8", metric: "ns/op", over: "BenchmarkSweepSolo", why: "context: 8 variants in solo walls"},
	// The MATEX driver's input treatments, counted: substitution pairs do
	// not depend on the runner, and a lost deviation path (or a ramp that
	// leaves augmented on the floor-dimension deck) shows as more of them.
	{row: "BenchmarkTable2_RMATEX_ibmpg1t", metric: "solve_pairs", hi: 1, why: "floor-dimension deck: every ramp stays augmented, q(0) comes from the DC solve"},
	{row: "BenchmarkTable2_IMATEX_ibmpg1t", metric: "solve_pairs", hi: 1, why: "deviation throughout: two input solves per ramp, none per flat segment"},
	{row: "BenchmarkTable2_RMATEX_ibmpg1t_dyn", metric: "solve_pairs", hi: 1, why: "0.5 pF deck: ramps move to deviation and the Lanczos path"},
	// The next ramp's input solves run ahead on a helper goroutine when the
	// cost rule predicts the deviation; on these decks the prediction holds
	// at every launch, so a discarded pair is a prediction that went wrong.
	{row: "BenchmarkTable2_RMATEX_ibmpg1t_dyn", metric: "input_discarded", abs: true, why: "once the ramps move to deviation they stay: every input solve computed ahead is used"},
	{row: "BenchmarkTable2_IMATEX_ibmpg1t", metric: "input_discarded", abs: true, why: "deviation throughout and no split: every input solve computed ahead is used"},
	// A warm submission to matexsrv, counted: the deck comes from the store
	// and the journal gets a spec line that references it. Wall is the
	// runner's fsync; a lost store shows as a parse, a deck journaled per job
	// as ~320 KB.
	{row: "BenchmarkServeSubmit_warm", metric: "parses/op", abs: true, why: "a deck the server has seen is neither parsed nor stamped again"},
	{row: "BenchmarkServeSubmit_warm", metric: "journal_B/op", abs: true, hi: 2048, why: "a spec record references its deck by hash; the body is journaled once"},
	{row: "BenchmarkServeSubmit_cold", metric: "parses/op", abs: true, lo: 1, hi: 1, why: "an unseen deck is parsed exactly once"},
	// A warm Krylov spot, counted: generation and snapshots run on the
	// workspace's dense scratch (expm, LU, the projection's inverse) and
	// allocate nothing on either process. Each row warms its workspace with
	// one spot outside the count.
	{row: "BenchmarkKrylovSpot_RMATEX_Arnoldi", metric: "allocs/op", abs: true, why: "a warm Arnoldi spot allocates nothing"},
	{row: "BenchmarkKrylovSpot_RMATEX_Lanczos", metric: "allocs/op", abs: true, why: "a warm Lanczos spot allocates nothing"},
	{row: "BenchmarkKrylovSpot_IMATEX_Arnoldi", metric: "allocs/op", abs: true, why: "a warm Arnoldi spot allocates nothing"},
	{row: "BenchmarkKrylovSpot_IMATEX_Lanczos", metric: "allocs/op", abs: true, why: "a warm Lanczos spot allocates nothing"},
	{row: "BenchmarkKrylovGenerate_RMATEX_Arnoldi", metric: "allocs/op", abs: true, why: "a warm Arnoldi generation allocates nothing"},
	{row: "BenchmarkKrylovGenerate_RMATEX_Lanczos", metric: "allocs/op", abs: true, why: "a warm Lanczos generation allocates nothing"},
	// The parser's allocations on the 56 k-card grid_static deck, counted: it
	// makes ~6 k (name blocks, element chunks, the ~1.5 k source cards); a
	// string per card is ~62 k, a copied and Fields-split line per card 230 k.
	{row: "BenchmarkParse_ibmpg6t15", metric: "allocs/op", abs: true, hi: 20000, why: "one pass, tokenized in place: cards are not copied, names come from blocks"},
}

func main() {
	basePath := flag.String("base", "BENCH_BASELINE.json", "committed baseline JSON")
	newPath := flag.String("new", "bench-ci.json", "freshly measured JSON")
	rowsPat := flag.String("rows", "^Benchmark(Factor_|Refactor|SolveSeq)", "regexp selecting the gated rows")
	maxRatio := flag.Float64("max-ratio", 2.5, "fail when new/base ns/op exceeds this on any gated row")
	flag.Parse()

	sel, err := regexp.Compile(*rowsPat)
	if err != nil {
		fatal(err)
	}
	base, baseTime, err := load(*basePath)
	if err != nil {
		fatal(err)
	}
	fresh, freshTime, err := load(*newPath)
	if err != nil {
		fatal(err)
	}

	names := make([]string, 0, len(base))
	for name := range base {
		if sel.MatchString(name) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fatal(fmt.Errorf("no baseline rows match %q", *rowsPat))
	}

	fmt.Printf("## Solver bench regression gate\n\n")
	fmt.Printf("Baseline `%s` (%s) vs fresh `%s` (%s); gate: ratio ≤ %.2fx on gated rows.\n\n",
		*basePath, baseTime, *newPath, freshTime, *maxRatio)
	fmt.Printf("| benchmark | base ns/op | new ns/op | ratio | gated | status |\n")
	fmt.Printf("|---|---:|---:|---:|:-:|:-:|\n")

	failed := 0
	missing := 0
	for _, name := range names {
		b := base[name]["ns/op"]
		n, ok := fresh[name]
		if !ok {
			fmt.Printf("| %s | %.0f | (missing) | — | yes | :x: |\n", name, b)
			missing++
			continue
		}
		ratio := n["ns/op"] / b
		status := ":white_check_mark:"
		if ratio > *maxRatio {
			status = ":x:"
			failed++
		}
		fmt.Printf("| %s | %.0f | %.0f | %.2fx | yes | %s |\n", name, b, n["ns/op"], ratio, status)
	}
	// Ungated rows ride along for context, never failing the gate.
	var rest []string
	for name := range base {
		if !sel.MatchString(name) {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	for _, name := range rest {
		n, ok := fresh[name]
		if !ok {
			continue
		}
		fmt.Printf("| %s | %.0f | %.0f | %.2fx | no | — |\n", name, base[name]["ns/op"], n["ns/op"], n["ns/op"]/base[name]["ns/op"])
	}

	fmt.Printf("\n### Intra-run gates (independent of machine speed)\n\n")
	fmt.Printf("| row | metric | over | value | reference | ratio | bounds | status |\n")
	fmt.Printf("|---|---|---|---:|---:|---:|:-:|:-:|\n")
	gateFailed := 0
	for _, g := range gates {
		r, ok := fresh[g.row]
		if !ok {
			continue
		}
		ref, over := base[g.row][g.metric], "baseline"
		switch {
		case g.abs:
			ref, over = 1, "(absolute)"
		case g.over != "":
			ref, over = fresh[g.over][g.metric], strings.TrimPrefix(g.over, "Benchmark")
		}
		ratio := math.NaN() // a metric the row stopped reporting passes no gate
		if v, ok := r[g.metric]; ok {
			ratio = v / ref
		}
		lo, hi := g.lo, g.hi
		if hi == 0 && !g.abs {
			hi = math.Inf(1)
		}
		bounds, status := "—", "—"
		if g.abs || g.lo != 0 || g.hi != 0 {
			status = ":white_check_mark:"
			switch {
			case lo == hi:
				bounds = fmt.Sprintf("= %g", lo)
			case math.IsInf(hi, 1):
				bounds = fmt.Sprintf("≥ %g", lo)
			case lo == 0:
				bounds = fmt.Sprintf("≤ %g", hi)
			default:
				bounds = fmt.Sprintf("%g … %g", lo, hi)
			}
			// A missing metric or reference makes the ratio NaN or ±Inf,
			// which fails every comparison it should.
			if !(ratio >= lo && ratio <= hi) || math.IsInf(ratio, 0) {
				status = ":x: " + g.why
				gateFailed++
			}
		}
		refCol, ratioCol := fmt.Sprintf("%.4g", ref), fmt.Sprintf("%.2fx", ratio)
		if g.abs {
			refCol, ratioCol = "—", "—" // the value itself is what the bounds hold
		}
		fmt.Printf("| %s | %s | %s | %.4g | %s | %s | %s | %s |\n",
			strings.TrimPrefix(g.row, "Benchmark"), g.metric, over, r[g.metric], refCol, ratioCol, bounds, status)
	}

	fmt.Println()
	if gateFailed > 0 {
		fmt.Printf("**FAIL**: %d intra-run gate(s) out of bounds.\n", gateFailed)
		os.Exit(1)
	}
	if failed > 0 || missing > 0 {
		fmt.Printf("**FAIL**: %d row(s) past %.2fx, %d missing from the fresh run.\n", failed, *maxRatio, missing)
		os.Exit(1)
	}
	fmt.Printf("**PASS**: all %d gated rows within %.2fx, every intra-run gate in bounds.\n", len(names), *maxRatio)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchcmp:", err)
	os.Exit(1)
}
