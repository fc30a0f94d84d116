// Command benchcmp compares a fresh scripts/bench.sh JSON trajectory
// against a committed baseline and fails when any selected row slowed down
// past a tolerance factor — the CI bench-regression gate.
//
// Usage:
//
//	go run ./scripts/benchcmp -base BENCH_PR6.json -new bench-ci.json \
//	    -rows '^Benchmark(Factor_|Refactor|Solve)' -max-ratio 2.5
//
// It prints a Markdown comparison table (pipe it into
// "$GITHUB_STEP_SUMMARY" for the job summary) and exits non-zero on a
// regression. The tolerance is deliberately generous: CI machines are
// noisy and the gate is meant to catch order-of-magnitude regressions
// (a lost fast path, an accidental re-analysis per step), not jitter.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strings"
)

type benchFile struct {
	Benchtime  string           `json:"benchtime"`
	Benchmarks []map[string]any `json:"benchmarks"`
}

// load reads a bench JSON file into name → ns/op.
func load(path string) (map[string]float64, string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, "", err
	}
	var f benchFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, "", fmt.Errorf("%s: %w", path, err)
	}
	rows := make(map[string]float64, len(f.Benchmarks))
	for _, b := range f.Benchmarks {
		name, _ := b["name"].(string)
		ns, ok := b["ns/op"].(float64)
		if name == "" || !ok {
			continue
		}
		rows[name] = ns
	}
	return rows, f.Benchtime, nil
}

func main() {
	basePath := flag.String("base", "BENCH_PR6.json", "committed baseline JSON")
	newPath := flag.String("new", "bench-ci.json", "freshly measured JSON")
	rowsPat := flag.String("rows", "^Benchmark(Factor_|Refactor|SolvePar|SolveSeq|SolveMulti)", "regexp selecting the gated rows")
	maxRatio := flag.Float64("max-ratio", 2.5, "fail when new/base ns/op exceeds this on any gated row")
	parMaxRatio := flag.Float64("par-max-ratio", 1.15, "fail when a fresh SolvePar_* row is slower than its SolveSeq_* twin past this factor (small headroom for CI jitter; a broken task schedule blows well past it)")
	sweepMaxRatio := flag.Float64("sweep-max-ratio", 5.0, "fail when the fresh BenchmarkSweep_k8 row costs more than this many fresh BenchmarkSweepSolo walls (8 variants for under 5 solo runs; lost sharing or batching blows past it)")
	distMaxRatio := flag.Float64("dist-max-ratio", 0.80, "fail when the fresh BenchmarkDist_2Nodes_ibmpg1t row costs more than this fraction of the fresh BenchmarkDist_PerGroup_ibmpg1t row (the planner merges bump groups for the nodes present; a plan that stops merging, or merges groups far apart in time, lands near 1)")
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
		b := base[name]
		n, ok := fresh[name]
		if !ok {
			fmt.Printf("| %s | %.0f | (missing) | — | yes | :x: |\n", name, b)
			missing++
			continue
		}
		ratio := n / b
		status := ":white_check_mark:"
		if ratio > *maxRatio {
			status = ":x:"
			failed++
		}
		fmt.Printf("| %s | %.0f | %.0f | %.2fx | yes | %s |\n", name, b, n, ratio, status)
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
		fmt.Printf("| %s | %.0f | %.0f | %.2fx | no | — |\n", name, base[name], n, n/base[name])
	}

	// Parallel-solve sanity gate: every fresh SolvePar_<shape> row must not
	// be slower than its SolveSeq_<shape> twin. A parallel path that loses
	// to sequential means the fallback heuristic broke, not that the
	// machine is slow, so this gate checks the fresh run against itself.
	parFailed := 0
	var parNames []string
	for name := range fresh {
		if strings.HasPrefix(name, "BenchmarkSolvePar_") {
			parNames = append(parNames, name)
		}
	}
	sort.Strings(parNames)
	if len(parNames) > 0 {
		fmt.Printf("\n### Parallel vs sequential solve (fresh run, gate: par ≤ %.2fx seq)\n\n", *parMaxRatio)
		fmt.Printf("| shape | seq ns/op | par ns/op | ratio | status |\n")
		fmt.Printf("|---|---:|---:|---:|:-:|\n")
		for _, name := range parNames {
			shape := strings.TrimPrefix(name, "BenchmarkSolvePar_")
			seq, ok := fresh["BenchmarkSolveSeq_"+shape]
			if !ok {
				continue
			}
			par := fresh[name]
			ratio := par / seq
			status := ":white_check_mark:"
			if ratio > *parMaxRatio {
				status = ":x:"
				parFailed++
			}
			fmt.Printf("| %s | %.0f | %.0f | %.2fx | %s |\n", shape, seq, par, ratio, status)
		}
	}

	// Sweep amortization gate: a fresh k-variant sweep must beat k solo
	// runs by a healthy margin — the whole point of the sweep engine. Like
	// the parallel gate this checks the fresh run against itself, so a slow
	// CI machine cannot trip it; only a lost sharing/batching path can.
	sweepFailed := 0
	if solo, ok := fresh["BenchmarkSweepSolo"]; ok {
		var sweepNames []string
		for name := range fresh {
			if strings.HasPrefix(name, "BenchmarkSweep_k") {
				sweepNames = append(sweepNames, name)
			}
		}
		sort.Strings(sweepNames)
		if len(sweepNames) > 0 {
			fmt.Printf("\n### Sweep vs solo (fresh run, gate: Sweep_k8 ≤ %.2fx SweepSolo)\n\n", *sweepMaxRatio)
			fmt.Printf("| sweep | solo ns/op | sweep ns/op | ratio | gated | status |\n")
			fmt.Printf("|---|---:|---:|---:|:-:|:-:|\n")
			for _, name := range sweepNames {
				ratio := fresh[name] / solo
				gated := name == "BenchmarkSweep_k8"
				status := "—"
				if gated {
					status = ":white_check_mark:"
					if ratio > *sweepMaxRatio {
						status = ":x:"
						sweepFailed++
					}
				}
				fmt.Printf("| %s | %.0f | %.0f | %.2fx | %v | %s |\n",
					strings.TrimPrefix(name, "Benchmark"), solo, fresh[name], ratio, gated, status)
			}
		}
	}

	// Plan gate: D-MATEX cut for two nodes must beat one task per bump
	// group at the same in-flight bound — again fresh against fresh.
	distFailed := false
	if per, ok := fresh["BenchmarkDist_PerGroup_ibmpg1t"]; ok {
		two := fresh["BenchmarkDist_2Nodes_ibmpg1t"]
		ratio := two / per
		status := ":white_check_mark:"
		if distFailed = two == 0 || ratio > *distMaxRatio; distFailed {
			status = ":x:"
		}
		fmt.Printf("\n### D-MATEX plan (fresh run, gate: Dist_2Nodes ≤ %.2fx Dist_PerGroup)\n\n", *distMaxRatio)
		fmt.Printf("| per-group ns/op | 2-node ns/op | ratio | status |\n")
		fmt.Printf("|---:|---:|---:|:-:|\n")
		fmt.Printf("| %.0f | %.0f | %.2fx | %s |\n", per, two, ratio, status)
	}

	fmt.Println()
	if distFailed {
		fmt.Printf("**FAIL**: D-MATEX on two nodes costs more than %.2fx the one-task-per-group run.\n", *distMaxRatio)
		os.Exit(1)
	}
	if sweepFailed > 0 {
		fmt.Printf("**FAIL**: Sweep_k8 costs more than %.2fx a solo run.\n", *sweepMaxRatio)
		os.Exit(1)
	}
	if parFailed > 0 {
		fmt.Printf("**FAIL**: %d parallel-solve row(s) slower than sequential past %.2fx.\n", parFailed, *parMaxRatio)
		os.Exit(1)
	}
	if failed > 0 || missing > 0 {
		fmt.Printf("**FAIL**: %d row(s) past %.2fx, %d missing from the fresh run.\n", failed, *maxRatio, missing)
		os.Exit(1)
	}
	fmt.Printf("**PASS**: all %d gated rows within %.2fx.\n", len(names), *maxRatio)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchcmp:", err)
	os.Exit(1)
}
