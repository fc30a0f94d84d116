#!/usr/bin/env bash
# bench.sh — run the solver-layer benchmark suite (Krylov fast path +
# factorization engine) and emit a JSON trajectory file (name → ns/op,
# B/op, allocs/op, custom metrics).
#
# Usage:
#   scripts/bench.sh [out.json]          # default out: BENCH_BASELINE.json
#   BENCHTIME=200x scripts/bench.sh      # longer runs for stable numbers
#   BENCH_RUNS=8 scripts/bench.sh        # 8 passes over the suite, each row
#                                        # kept from its fastest pass
#   BENCH_PATTERN='^Benchmark' scripts/bench.sh all.json   # whole suite
#
# CI runs this with a short BENCHTIME and uploads the JSON as an artifact;
# the committed BENCH_BASELINE.json is regenerated manually with BENCH_RUNS=8
# when the solver layer changes: a shared host slows down in windows of
# seconds, which one pass bakes into whichever rows it was running (PR 17's
# first baseline had untouched sparse rows at 2x their PR 16 values), and a
# slow baseline loosens the regression gate; the fastest of several
# separate passes is the quiet-host number. The default pattern covers the
# Krylov spot pipeline (PR 3), the factorization engine rows (PR 4-6),
# the scenario-sweep rows (PR 10), the D-MATEX plan rows (PR 14) and one
# end-to-end row per way the one MATEX driver treats inputs (PR 18:
# Table2_IMATEX_ibmpg1t is deviation throughout, Table2_RMATEX_ibmpg1t the
# floor-dimension deck whose ramps stay augmented, Table2_RMATEX_ibmpg1t_dyn
# the 0.5 pF deck whose ramps move to deviation; each reports solve_pairs
# and lanczos_spots, and benchcmp holds the pairs to the baseline's) and one
# end-to-end row per
# selectable fill-reducing ordering (PR 16: Ablation_Ordering_ND is the
# default's resolution, Ablation_Ordering_MinDeg the alternative):
# BenchmarkFactor vs BenchmarkRefactor is the symbolic/numeric split,
# the *_ibmpg1t2x rows (minimum degree, ~1.6 columns per supernode) and the
# *_mesh96nd rows (nested dissection, wide separator panels) the two ends
# of the panel-width range, BenchmarkSolveSeq_4dom the substitution pair on
# separate domains, and BenchmarkSweepSolo vs
# BenchmarkSweep_k{4,8} the scenario sweep: parallel lanes over one cache
# lineage (benchcmp gates the lanes and factorizations they report against
# the baseline's, and prints the Sweep_k8 / SweepSolo wall ratio ungated), and
# BenchmarkDist_PerGroup vs BenchmarkDist_2Nodes the distributed plan (one
# task per bump group against the groups merged for two nodes; benchcmp
# gates 2Nodes ≤ 0.80x PerGroup within the fresh run), and
# BenchmarkServeSubmit_warm / _cold the matexsrv submission path on a durable
# server (PR 20: the ibmpg3t deck inline; each reports parses/op and
# journal_B/op, and benchcmp holds the warm row to 0 parses and ≤ 2 KiB of
# journal — counted, not timed: its wall is the runner's fsync), and
# BenchmarkParse_ibmpg6t15 / BenchmarkStamp_ibmpg6t15 the front end on the
# grid_static deck (PR 22: MB/s and allocs/op; benchcmp holds the parser's
# allocs/op under 20 k, a count).
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_BASELINE.json}"
benchtime="${BENCHTIME:-100x}"
runs="${BENCH_RUNS:-1}"
pattern="${BENCH_PATTERN:-^Benchmark(Krylov|Factor_|Refactor|SolveSeq|Sweep|Dist_|Table2_(IMATEX|RMATEX)_ibmpg1t|Ablation_Ordering_|ServeSubmit_|Parse_|Stamp_)}"

tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

for ((i = 0; i < runs; i++)); do
    go test -run '^$' -bench "$pattern" -benchtime "$benchtime" -benchmem . | tee -a "$tmp"
done

awk -v benchtime="$benchtime" -v runs="$runs" '
BEGIN { n = 0 }
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)   # strip the GOMAXPROCS suffix
    if (name in best && $3 + 0 >= best[name]) next   # ns/op is the first metric
    if (!(name in best)) order[n++] = name
    best[name] = $3 + 0
    iters = $2
    metrics = ""
    for (i = 3; i + 1 <= NF; i += 2) {
        val = $i
        unit = $(i + 1)
        if (metrics != "") metrics = metrics ", "
        metrics = metrics "\"" unit "\": " val
    }
    lines[name] = "    {\"name\": \"" name "\", \"iters\": " iters ", " metrics "}"
    next
}
END {
    print "{"
    print "  \"benchtime\": \"" benchtime "\","
    print "  \"runs\": " runs ","
    print "  \"benchmarks\": ["
    for (i = 0; i < n; i++) {
        printf "%s%s\n", lines[order[i]], (i + 1 < n ? "," : "")
    }
    print "  ]"
    print "}"
}' "$tmp" > "$out"

echo "wrote $out"
