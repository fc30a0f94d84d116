#!/usr/bin/env bash
# bench.sh — run the solver-layer benchmark suite (Krylov fast path +
# factorization engine) and emit a JSON trajectory file (name → ns/op,
# B/op, allocs/op, custom metrics).
#
# Usage:
#   scripts/bench.sh [out.json]          # default out: BENCH_PR16.json
#   BENCHTIME=200x scripts/bench.sh      # longer runs for stable numbers
#   BENCH_PATTERN='^Benchmark' scripts/bench.sh all.json   # whole suite
#
# CI runs this with a short BENCHTIME and uploads the JSON as an artifact;
# the committed BENCH_PR16.json is regenerated manually with the default
# settings when the solver layer changes. The default pattern covers the
# Krylov spot pipeline (PR 3), the factorization engine rows (PR 4-6),
# the scenario-sweep rows (PR 10), the D-MATEX plan rows (PR 14) and one
# end-to-end row per MATEX input treatment (PR 15: Table2_IMATEX_ibmpg1t is
# the Eq. 5 treatment, Table2_RMATEX_ibmpg1t the augmented and
# constant-shift treatments of the one driver) and one end-to-end row per
# selectable fill-reducing ordering (PR 16: Ablation_Ordering_ND is the
# default's resolution, Ablation_Ordering_MinDeg the alternative):
# BenchmarkFactor vs BenchmarkRefactor is the symbolic/numeric split,
# the *_ibmpg1t2x rows (minimum degree, ~1.6 columns per supernode) and the
# *_mesh96nd rows (nested dissection, wide separator panels) the two ends
# of the panel-width range, BenchmarkSolveSeq_k* vs BenchmarkSolveMulti_k*
# the blocked panel solves, BenchmarkSolveSeq/Par_4dom the task-parallel solve
# on separate domains, BenchmarkSolveSeq/Par_mesh96nd the coupled mesh
# that only nested dissection can parallelize, and BenchmarkSweepSolo vs
# BenchmarkSweep_k{4,8} the scenario-sweep amortization (benchcmp gates
# Sweep_k8 ≤ 5x SweepSolo within the fresh run), and
# BenchmarkDist_PerGroup vs BenchmarkDist_2Nodes the distributed plan (one
# task per bump group against the groups merged for two nodes; benchcmp
# gates 2Nodes ≤ 0.80x PerGroup within the fresh run).
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_PR16.json}"
benchtime="${BENCHTIME:-100x}"
pattern="${BENCH_PATTERN:-^Benchmark(Krylov|Factor_|Refactor|SolveSeq|SolvePar|SolveMulti|Sweep|Dist_|Table2_(IMATEX|RMATEX)_ibmpg1t|Ablation_Ordering_)}"

tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

go test -run '^$' -bench "$pattern" -benchtime "$benchtime" -benchmem . | tee "$tmp"

awk -v benchtime="$benchtime" '
BEGIN { n = 0 }
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)   # strip the GOMAXPROCS suffix
    iters = $2
    metrics = ""
    for (i = 3; i + 1 <= NF; i += 2) {
        val = $i
        unit = $(i + 1)
        if (metrics != "") metrics = metrics ", "
        metrics = metrics "\"" unit "\": " val
    }
    line = "    {\"name\": \"" name "\", \"iters\": " iters ", " metrics "}"
    lines[n++] = line
    next
}
END {
    print "{"
    print "  \"benchtime\": \"" benchtime "\","
    print "  \"benchmarks\": ["
    for (i = 0; i < n; i++) {
        printf "%s%s\n", lines[i], (i + 1 < n ? "," : "")
    }
    print "  ]"
    print "}"
}' "$tmp" > "$out"

echo "wrote $out"
