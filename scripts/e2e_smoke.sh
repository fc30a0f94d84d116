#!/usr/bin/env bash
# e2e_smoke.sh — end-to-end smoke of the three binaries working together:
#
#   1. pgbench | matex            one-shot CLI over a generated deck; its
#                                 t = 0 row read from a pipe while the run
#                                 is still integrating, the same bytes to a
#                                 pipe and a file; a -sweep's interleaved
#                                 rows, grouped by variant, are the
#                                 one-variant sweeps' tables; a failed
#                                 run exits 1 on whole rows, a closed pipe
#                                 ends it quietly, a full stdout
#                                 (/dev/full) exits 1 with one error
#                                 line, a distributed sweep is
#                                 refused before its first row; then
#                                 -method imatex against -method rmatex: the
#                                 two MATEX input treatments must agree to
#                                 1e-6 V
#   2. matexd loopback            distributed run over a real worker — a
#                                 matexsrv under a second name, so its
#                                 /readyz answers and its /stats counts one
#                                 completed job per task it ran — then a
#                                 SIGTERM graceful-drain check
#   3. matexd chaos               a distributed run's t = 0 row read from a
#                                 pipe while its worker integrates, its
#                                 table that of the same run to a file;
#                                 kill -9 one of two workers mid-run; the
#                                 task must move whole to the survivor,
#                                 report retries, and still match the local
#                                 waveform
#   3b. matexsrv over matexd     the service holds no worker state: jobs on
#                                 two decks over one worker, kill -9 the
#                                 worker (a job fails), restart it on the
#                                 same port, both decks run again — each
#                                 task names its deck by hash, so the
#                                 restarted worker answers 404 and is sent
#                                 each deck once (one PUT per deck, no
#                                 inline text), matexsrv never restarted,
#                                 the bytes those of `matex -distributed`
#   4. matexsrv submit-and-stream curl submit, NDJSON stream, /stats and
#                                 /healthz checks; a deck PUT by hash, a
#                                 job naming it streaming the inline job's
#                                 rows, an unknown hash 404, a PUT whose
#                                 text is not its hash's 400; SIGTERM
#                                 drain, exit 0
#   5. matexsrv crash-restart     kill -9 with two jobs on one deck mid-run
#                                 and -state-dir set: the journal holds the
#                                 deck once; a restart must resume both (the
#                                 first from its journaled checkpoint) and
#                                 finish with the same waveform as an
#                                 uninterrupted run
#
# CI runs this on every PR; it is also runnable locally (only needs curl).
set -euo pipefail
cd "$(dirname "$0")/.."

workdir="$(mktemp -d)"
cleanup() {
    # Kill anything we left running, ignore failures.
    [[ -n "${LIVE_PID:-}" ]] && kill "$LIVE_PID" 2>/dev/null || true
    [[ -n "${MATEXD_PID:-}" ]] && kill "$MATEXD_PID" 2>/dev/null || true
    [[ -n "${W1_PID:-}" ]] && kill "$W1_PID" 2>/dev/null || true
    [[ -n "${W2_PID:-}" ]] && kill -9 "$W2_PID" 2>/dev/null || true
    [[ -n "${W3_PID:-}" ]] && kill -9 "$W3_PID" 2>/dev/null || true
    [[ -n "${MATEXSRV3_PID:-}" ]] && kill "$MATEXSRV3_PID" 2>/dev/null || true
    [[ -n "${MATEXSRV_PID:-}" ]] && kill "$MATEXSRV_PID" 2>/dev/null || true
    [[ -n "${MATEXSRV2_PID:-}" ]] && kill -9 "$MATEXSRV2_PID" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

say() { printf '\n== %s\n' "$*"; }

say "building binaries"
go build -o "$workdir/pgbench" ./cmd/pgbench
go build -o "$workdir/matex" ./cmd/matex
go build -o "$workdir/matexd" ./cmd/matexd
go build -o "$workdir/matexsrv" ./cmd/matexsrv

say "pgbench | matex one-shot"
"$workdir/pgbench" -case ibmpg1t -scale 0.25 > "$workdir/deck.sp"
"$workdir/matex" "$workdir/deck.sp" > "$workdir/oneshot.tsv"
lines=$(wc -l < "$workdir/oneshot.tsv")
[[ "$lines" -gt 2 ]] || { echo "matex produced only $lines lines"; exit 1; }
head -3 "$workdir/oneshot.tsv"

say "matex writes rows while it integrates"
# A plain run's header and t = 0 row leave once the DC operating point
# exists: they are read from a pipe while the process is still integrating.
"$workdir/pgbench" -case ibmpg6t > "$workdir/big.sp"
mkfifo "$workdir/rows"
"$workdir/matex" "$workdir/big.sp" > "$workdir/rows" &
LIVE_PID=$!
exec 3< "$workdir/rows"
IFS= read -r header <&3
IFS= read -r first <&3
kill -0 "$LIVE_PID" 2>/dev/null || { echo "matex had exited before its t = 0 row was read"; exit 1; }
[[ "$header" == time* && "$first" == 0.000000e+00* ]] || { echo "unexpected first rows: $header / $first"; exit 1; }
{ printf '%s\n%s\n' "$header" "$first"; cat <&3; } > "$workdir/live.tsv"
exec 3<&-
wait "$LIVE_PID"
LIVE_PID=""
# Same bytes whichever way they left: to a pipe and to a file.
"$workdir/matex" "$workdir/big.sp" > "$workdir/big.tsv"
cmp "$workdir/live.tsv" "$workdir/big.tsv"
"$workdir/matex" "$workdir/deck.sp" | cmp "$workdir/oneshot.tsv" -
echo "t = 0 row read while matex was running; finished tables identical"

say "matex -sweep rows, grouped by variant, are the per-variant tables"
# The variants stream concurrently, so their rows interleave; each
# variant's rows, in order, are what a sweep of that variant alone prints.
echo '[{"name":"typ"},{"name":"hot","source_scales":{"Iload1":1.4}},{"name":"cool","source_scales":{"Iload2":0.7}}]' > "$workdir/corners.json"
"$workdir/matex" -sweep "$workdir/corners.json" "$workdir/deck.sp" > "$workdir/sweep.tsv"
for v in typ hot cool; do
    python3 -c 'import json, sys; print(json.dumps([v for v in json.load(open(sys.argv[1])) if v["name"] == sys.argv[2]]))' \
        "$workdir/corners.json" "$v" > "$workdir/one.json"
    "$workdir/matex" -sweep "$workdir/one.json" "$workdir/deck.sp" > "$workdir/one.tsv"
    [[ "$(head -1 "$workdir/one.tsv")" == "$(head -1 "$workdir/sweep.tsv")" ]] || { echo "sweep headers differ"; exit 1; }
    awk -F'\t' -v v="$v" 'NR > 1 && $1 == v' "$workdir/sweep.tsv" | cmp - <(tail -n +2 "$workdir/one.tsv") \
        || { echo "variant $v: sweep rows are not its own table"; exit 1; }
done
echo "sweep rows grouped by variant match the one-variant tables"

say "matex failure contract: exit status, whole rows, closed pipe"
# γ = 1e-30 stops R-MATEX a few rows in — a plain run, and every task of a
# distributed one, whose row 0 (x_DC) has left by then: exit 1, the error on
# stderr, and what did reach stdout ends on a complete row.
"$workdir/pgbench" -case ibmpg1t > "$workdir/full.sp"
for mode in "" -distributed; do
    rc=0
    # shellcheck disable=SC2086 # an empty $mode is no argument
    GOMAXPROCS=2 "$workdir/matex" $mode -gamma 1e-30 "$workdir/full.sp" > "$workdir/partial.tsv" 2> "$workdir/partial.err" || rc=$?
    mode=${mode:-plain}
    [[ "$rc" -eq 1 ]] || { echo "$mode: failed run exited $rc, want 1"; exit 1; }
    grep -q '^matex: ' "$workdir/partial.err" || { echo "$mode: failed run left no error on stderr"; exit 1; }
    awk -F'\t' 'NR == 1 { n = NF } NF != n { bad = 1 } END { exit !(NR >= 2 && !bad) }' "$workdir/partial.tsv" \
        || { echo "$mode: partial table has a torn row or no row"; cat "$workdir/partial.tsv"; exit 1; }
    [[ "$(tail -c 1 "$workdir/partial.tsv" | od -An -c | tr -d ' ')" == '\n' ]] || { echo "$mode: partial table does not end on a newline"; exit 1; }
done
# A reader that leaves early ends the run quietly (SIGPIPE), not with a Go
# stack trace.
set +o pipefail
"$workdir/matex" "$workdir/big.sp" 2> "$workdir/pipe.err" | head -2 > /dev/null
prc=${PIPESTATUS[0]}
set -o pipefail
[[ "$prc" -eq 141 ]] || { echo "matex | head -2 exited $prc, want 141 (SIGPIPE)"; exit 1; }
[[ ! -s "$workdir/pipe.err" ]] || { echo "matex | head -2 wrote to stderr:"; cat "$workdir/pipe.err"; exit 1; }
# A stdout that refuses its bytes (a full disk) is an error: exit 1, one
# line on stderr naming it.
if [[ -w /dev/full ]]; then
    rc=0
    "$workdir/matex" "$workdir/deck.sp" > /dev/full 2> "$workdir/full.err" || rc=$?
    [[ "$rc" -eq 1 ]] || { echo "matex > /dev/full exited $rc, want 1"; exit 1; }
    [[ "$(wc -l < "$workdir/full.err")" -eq 1 ]] && grep -q '^matex: .*no space left on device' "$workdir/full.err" \
        || { echo "matex > /dev/full stderr is not one matex: line:"; cat "$workdir/full.err"; exit 1; }
    cat "$workdir/full.err"
    rc=0
    "$workdir/pgbench" -case ibmpg1t -scale 0.25 > /dev/full 2> "$workdir/full.err" || rc=$?
    [[ "$rc" -eq 1 ]] && grep -q '^pgbench: .*no space left on device' "$workdir/full.err" \
        || { echo "pgbench > /dev/full exited $rc:"; cat "$workdir/full.err"; exit 1; }
fi
echo "failed run: exit 1, whole rows; closed pipe: quiet exit; full stdout: exit 1"

say "matex refuses a distributed sweep before its first row"
# The spec is resolved by the same code as a matexsrv submission, which
# refuses a sweep that is also distributed: nothing runs, nothing reaches
# stdout, one line says why.
rc=0
"$workdir/matex" -sweep "$workdir/corners.json" -distributed "$workdir/deck.sp" > "$workdir/refused.tsv" 2> "$workdir/refused.err" || rc=$?
[[ "$rc" -eq 1 ]] || { echo "-sweep -distributed exited $rc, want 1"; exit 1; }
[[ ! -s "$workdir/refused.tsv" ]] || { echo "-sweep -distributed wrote to stdout:"; cat "$workdir/refused.tsv"; exit 1; }
[[ "$(wc -l < "$workdir/refused.err")" -eq 1 ]] && grep -q '^matex: ' "$workdir/refused.err" \
    || { echo "-sweep -distributed stderr is not one matex: line:"; cat "$workdir/refused.err"; exit 1; }
cat "$workdir/refused.err"

say "I-MATEX and R-MATEX cross-check"
# Two faces of the one MATEX driver on the same deck: I-MATEX is the
# deviation (Eq. 5) input treatment over the DC factors of G, R-MATEX the
# augmented treatment on ramps (and deviation on flat segments) over
# factor(C+γG). Different operators and input arithmetic must land on the
# same waveform.
"$workdir/matex" -method imatex "$workdir/deck.sp" > "$workdir/imatex.tsv"
"$workdir/matex" -method rmatex "$workdir/deck.sp" > "$workdir/rmatex.tsv"
python3 - "$workdir/imatex.tsv" "$workdir/rmatex.tsv" <<'EOF'
import sys
a = [l.split("\t") for l in open(sys.argv[1]) if l.strip()]
b = [l.split("\t") for l in open(sys.argv[2]) if l.strip()]
assert len(a) == len(b) > 2, "row count %d vs %d" % (len(a), len(b))
worst = 0.0
for r, g in zip(a[1:], b[1:]):
    assert r[0] == g[0], "time column diverged: %s vs %s" % (r[0], g[0])
    worst = max(worst, max(abs(float(x) - float(y)) for x, y in zip(r[1:], g[1:])))
assert worst <= 1e-6, "I-MATEX and R-MATEX deviate %g V" % worst
print("I-MATEX matches R-MATEX (max deviation %g V)" % worst)
EOF

say "matexd loopback"
"$workdir/matexd" -listen 127.0.0.1:19090 > "$workdir/matexd.log" 2>&1 &
MATEXD_PID=$!
for i in $(seq 1 50); do
    grep -q "listening" "$workdir/matexd.log" && break
    sleep 0.1
done
grep -q "listening" "$workdir/matexd.log" || { echo "matexd never came up"; cat "$workdir/matexd.log"; exit 1; }
"$workdir/matex" -stats -workers 127.0.0.1:19090 "$workdir/deck.sp" > "$workdir/dist.tsv" 2> "$workdir/dist.err"
dlines=$(wc -l < "$workdir/dist.tsv")
[[ "$dlines" -gt 2 ]] || { echo "distributed run produced only $dlines lines"; exit 1; }
# The worker is a job server: ready while it serves, and one completed job
# per task it was sent.
curl -sf "http://127.0.0.1:19090/readyz" | grep -q '"ready":true' || { echo "matexd /readyz is not ready"; exit 1; }
tasks=$(grep -o '^tasks=[0-9]*' "$workdir/dist.err" | cut -d= -f2)
curl -sf "http://127.0.0.1:19090/stats" > "$workdir/wstats.json"
python3 - "$workdir/wstats.json" "$tasks" <<'EOF'
import json, sys
s = json.load(open(sys.argv[1]))
tasks = int(sys.argv[2])
assert tasks >= 1 and s["jobs_completed"] == tasks and s["jobs_failed"] == 0, \
    "worker /stats jobs_completed=%r jobs_failed=%r for a run of %d tasks" % (s["jobs_completed"], s["jobs_failed"], tasks)
print("worker ready; /stats counts the run's %d task(s) as completed jobs" % tasks)
EOF

say "matexd SIGTERM graceful drain"
kill -TERM "$MATEXD_PID"
drain_rc=0
for i in $(seq 1 100); do
    if ! kill -0 "$MATEXD_PID" 2>/dev/null; then break; fi
    sleep 0.1
done
if kill -0 "$MATEXD_PID" 2>/dev/null; then
    echo "matexd still alive 10s after SIGTERM"; exit 1
fi
wait "$MATEXD_PID" || drain_rc=$?
[[ "$drain_rc" -eq 0 ]] || { echo "matexd exited $drain_rc after SIGTERM, want 0"; cat "$workdir/matexd.log"; exit 1; }
grep -q "drained" "$workdir/matexd.log" || { echo "matexd did not report a drain"; cat "$workdir/matexd.log"; exit 1; }
MATEXD_PID=""
echo "matexd drained and exited 0"

say "matexd chaos: kill -9 one of two workers mid-run"
# A bigger deck with a slow fixed-step method. The run is cut for its two
# workers (two tasks of 100k steps, not one per bump group) and a worker logs
# nothing per task, so timing is the only handle: the step is sized so that
# each task outlasts the sleep before the kill several times over. The
# killed worker's task is posted again to the survivor, which streams it
# from its start; the rows already folded are compared, not repeated.
"$workdir/pgbench" -case ibmpg1t -scale 0.5 > "$workdir/deck05.sp"
"$workdir/matexd" -listen 127.0.0.1:19191 > "$workdir/w1.log" 2>&1 &
W1_PID=$!
for i in $(seq 1 50); do
    grep -q "listening" "$workdir/w1.log" && break
    sleep 0.1
done
# Fault-free reference over the same superposition grid: a single-worker
# distributed run (the GTS grid is set by the decomposition, not the pool —
# only the task cut follows the pool: one task here, two below, and a
# fixed-step superposition is exact to rounding however it is cut).
"$workdir/matex" -method tr -step 1e-13 \
    -workers 127.0.0.1:19191 "$workdir/deck05.sp" > "$workdir/chaos_ref.tsv"
# The same run to a pipe: its t = 0 row is x_DC, which leaves once the first
# task's worker has solved the DC point — read while the worker is still
# integrating — and the finished table is the one the file got.
mkfifo "$workdir/drows"
"$workdir/matex" -method tr -step 1e-13 \
    -workers 127.0.0.1:19191 "$workdir/deck05.sp" > "$workdir/drows" &
LIVE_PID=$!
exec 3< "$workdir/drows"
IFS= read -r header <&3
IFS= read -r first <&3
kill -0 "$LIVE_PID" 2>/dev/null || { echo "matex -workers had exited before its t = 0 row was read"; exit 1; }
[[ "$header" == time* && "$first" == 0.000000e+00* ]] || { echo "unexpected first rows: $header / $first"; exit 1; }
{ printf '%s\n%s\n' "$header" "$first"; cat <&3; } > "$workdir/dlive.tsv"
exec 3<&-
wait "$LIVE_PID"
LIVE_PID=""
cmp "$workdir/dlive.tsv" "$workdir/chaos_ref.tsv"
echo "distributed t = 0 row read while the worker integrated; finished tables identical"
retried=0
for attempt in 1 2 3; do
    "$workdir/matexd" -listen 127.0.0.1:19192 > "$workdir/w2.log" 2>&1 &
    W2_PID=$!
    for i in $(seq 1 50); do
        grep -q "listening" "$workdir/w2.log" && break
        sleep 0.1
    done
    "$workdir/matex" -stats -method tr -step 1e-13 \
        -workers 127.0.0.1:19191,127.0.0.1:19192 \
        "$workdir/deck05.sp" > "$workdir/chaos.tsv" 2> "$workdir/chaos.err" &
    CHAOS_PID=$!
    sleep 0.3
    kill -9 "$W2_PID" 2>/dev/null || true
    wait "$W2_PID" 2>/dev/null || true
    W2_PID=""
    chaos_rc=0
    wait "$CHAOS_PID" || chaos_rc=$?
    [[ "$chaos_rc" -eq 0 ]] || { echo "chaos run exited $chaos_rc"; cat "$workdir/chaos.err"; exit 1; }
    retried=$(grep -o 'retried=[0-9]*' "$workdir/chaos.err" | head -1 | cut -d= -f2)
    [[ -n "$retried" && "$retried" -gt 0 ]] && break
    echo "attempt $attempt: run finished before the kill landed (retried=${retried:-?}), retrying"
    retried=0
done
[[ "$retried" -gt 0 ]] || { echo "worker kill never interrupted a task after 3 attempts"; exit 1; }
grep -q '^tasks=2 ' "$workdir/chaos.err" || { echo "chaos run was not cut for its two workers"; cat "$workdir/chaos.err"; exit 1; }
python3 - "$workdir/chaos_ref.tsv" "$workdir/chaos.tsv" <<'EOF'
import sys
ref = [l.split("\t") for l in open(sys.argv[1]) if l.strip()]
got = [l.split("\t") for l in open(sys.argv[2]) if l.strip()]
assert len(ref) == len(got), "row count %d vs %d" % (len(ref), len(got))
worst = 0.0
for r, g in zip(ref[1:], got[1:]):
    assert r[0] == g[0], "time column diverged: %s vs %s" % (r[0], g[0])
    worst = max(worst, max(abs(float(a) - float(b)) for a, b in zip(r[1:], g[1:])))
assert worst <= 1e-9, "post-failover waveform deviates %g V" % worst
print("failover waveform matches local run (max deviation %g V)" % worst)
EOF
kill "$W1_PID" 2>/dev/null || true
wait "$W1_PID" 2>/dev/null || true
W1_PID=""
echo "chaos run survived kill -9 with retried=$retried"

say "matexsrv over matexd: a worker killed and restarted under the service"
# matexsrv keeps no state about its workers between jobs: each task is posted
# to the worker as a job of its own that names its deck by hash, so a
# restarted matexd, holding nothing, answers 404 and is sent the deck once.
# One worker, so every job is a one-task plan — the plan of `GOMAXPROCS=1
# matex -distributed`, whose TSV the streamed samples must reproduce byte for
# byte.
start_w3() {
    "$workdir/matexd" -listen 127.0.0.1:19193 > "$workdir/w3.log" 2>&1 &
    W3_PID=$!
    for i in $(seq 1 50); do
        grep -q "listening" "$workdir/w3.log" && break
        sleep 0.1
    done
    grep -q "listening" "$workdir/w3.log" || { echo "matexd never came up"; cat "$workdir/w3.log"; exit 1; }
}
# dist_job DECK OUT: run DECK as a distributed job, leave its NDJSON in OUT,
# print the job's final state.
dist_job() {
    python3 -c 'import json, sys; print(json.dumps({"netlist": open(sys.argv[1]).read(), "distributed": True}))' \
        "$1" > "$workdir/distjob.json"
    curl -sf -X POST --data-binary @"$workdir/distjob.json" \
        "http://127.0.0.1:18082/v1/simulate" > "$2"
    tail -1 "$2" | python3 -c 'import json, sys; print(json.loads(sys.stdin.read())["state"])'
}
# same_bytes NDJSON TSV: the stream's samples, printed the way matex prints
# rows, are the TSV's rows.
same_bytes() {
    python3 - "$1" "$2" <<'EOF'
import json, sys
rows = []
for line in open(sys.argv[1]):
    c = json.loads(line)
    if c.get("seq", 0) > 0 and not c.get("done"):
        rows.append("\t".join(["%.6e" % c["t"]] + ["%.9e" % v for v in c["v"]]))
tsv = [l.rstrip("\n") for l in open(sys.argv[2])][1:]
assert len(rows) > 2 and rows == tsv, "service job and matex -distributed differ (%d vs %d rows)" % (len(rows), len(tsv))
EOF
}
GOMAXPROCS=1 "$workdir/matex" -distributed "$workdir/deck.sp" > "$workdir/distA.tsv"
GOMAXPROCS=1 "$workdir/matex" -distributed "$workdir/deck05.sp" > "$workdir/distB.tsv"
start_w3
"$workdir/matexsrv" -listen 127.0.0.1:18082 -dist-workers 127.0.0.1:19193 > "$workdir/srv3.log" 2>&1 &
MATEXSRV3_PID=$!
for i in $(seq 1 50); do
    curl -sf "http://127.0.0.1:18082/healthz" > /dev/null 2>&1 && break
    sleep 0.1
done
state=$(dist_job "$workdir/deck.sp" "$workdir/distA1.ndjson")
[[ "$state" == done ]] || { echo "job on deck A ended $state"; cat "$workdir/srv3.log"; exit 1; }
same_bytes "$workdir/distA1.ndjson" "$workdir/distA.tsv"
kill -9 "$W3_PID"
wait "$W3_PID" 2>/dev/null || true
W3_PID=""
state=$(dist_job "$workdir/deck05.sp" "$workdir/distB0.ndjson")
[[ "$state" == failed ]] || { echo "job on deck B with the only worker dead ended $state, want failed"; exit 1; }
start_w3
state=$(dist_job "$workdir/deck05.sp" "$workdir/distB1.ndjson")
[[ "$state" == done ]] || { echo "job on deck B after the worker came back ended $state"; tail -1 "$workdir/distB1.ndjson"; exit 1; }
same_bytes "$workdir/distB1.ndjson" "$workdir/distB.tsv"
state=$(dist_job "$workdir/deck.sp" "$workdir/distA2.ndjson")
[[ "$state" == done ]] || { echo "job on deck A after the worker came back ended $state"; tail -1 "$workdir/distA2.ndjson"; exit 1; }
same_bytes "$workdir/distA2.ndjson" "$workdir/distA.tsv"
# The restarted worker was sent each deck once, by PUT, and no task carried
# its text: two parses, and every task a hash lookup.
curl -sf "http://127.0.0.1:19193/stats" > "$workdir/w3stats.json"
python3 - "$workdir/w3stats.json" <<'EOF'
import json, sys
s = json.load(open(sys.argv[1]))
ds = s["deck_store"]
assert s["deck_puts"] == 2 and s["inline_decks"] == 0 and ds["misses"] == 2 and ds["hits"] == s["jobs_completed"] == 2, \
    "restarted worker: deck_puts=%r inline_decks=%r deck_store=%r jobs_completed=%r, want one PUT per deck and no inline text" \
    % (s["deck_puts"], s["inline_decks"], ds, s["jobs_completed"])
print("restarted worker: one PUT per deck, no inline text, %d tasks by hash" % ds["hits"])
EOF
kill -0 "$MATEXSRV3_PID" 2>/dev/null || { echo "matexsrv did not survive its worker's restart"; exit 1; }
kill "$MATEXSRV3_PID" 2>/dev/null || true
wait "$MATEXSRV3_PID" 2>/dev/null || true
MATEXSRV3_PID=""
kill "$W3_PID" 2>/dev/null || true
wait "$W3_PID" 2>/dev/null || true
W3_PID=""
echo "killed worker: job failed; restarted worker: both decks done on the same matexsrv, bytes of matex -distributed"

say "matexsrv submit-and-stream"
"$workdir/matexsrv" -listen 127.0.0.1:18080 > "$workdir/matexsrv.log" 2>&1 &
MATEXSRV_PID=$!
for i in $(seq 1 50); do
    curl -sf "http://127.0.0.1:18080/healthz" > /dev/null 2>&1 && break
    sleep 0.1
done
curl -sf "http://127.0.0.1:18080/healthz" | grep -q '"ok":true' || { echo "healthz failed"; cat "$workdir/matexsrv.log"; exit 1; }

# Submit-and-stream with the generated deck as an inline netlist.
python3 - "$workdir/deck.sp" > "$workdir/job.json" <<'EOF'
import json, sys
print(json.dumps({"netlist": open(sys.argv[1]).read()}))
EOF
curl -sf -X POST --data-binary @"$workdir/job.json" \
    "http://127.0.0.1:18080/v1/simulate" > "$workdir/stream.ndjson"
nlines=$(wc -l < "$workdir/stream.ndjson")
[[ "$nlines" -gt 3 ]] || { echo "stream produced only $nlines chunks"; cat "$workdir/stream.ndjson"; exit 1; }
head -2 "$workdir/stream.ndjson"
tail -1 "$workdir/stream.ndjson" | grep -q '"done":true' || { echo "stream missing done chunk"; tail -3 "$workdir/stream.ndjson"; exit 1; }
tail -1 "$workdir/stream.ndjson" | grep -q '"state":"done"' || { echo "job did not finish done"; tail -1 "$workdir/stream.ndjson"; exit 1; }

# Decks by hash: PUT the deck under its SHA-256, GET it back, and a job that
# names it by hash streams the inline job's rows; an unknown hash is a 404
# and a PUT whose text is not its hash's a 400.
hash=$(sha256sum < "$workdir/deck.sp" | cut -d' ' -f1)
code=$(curl -s -o "$workdir/put.json" -w '%{http_code}' -X PUT --data-binary @"$workdir/deck.sp" \
    "http://127.0.0.1:18080/v1/decks/$hash")
[[ "$code" == 200 || "$code" == 201 ]] || { echo "PUT of the deck answered $code"; cat "$workdir/put.json"; exit 1; }
code=$(curl -s -o "$workdir/get.json" -w '%{http_code}' "http://127.0.0.1:18080/v1/decks/$hash")
[[ "$code" == 200 ]] && grep -q "\"hash\":\"$hash\"" "$workdir/get.json" \
    || { echo "GET of the PUT deck answered $code"; cat "$workdir/get.json"; exit 1; }
curl -sf -X POST -d "{\"deck\":\"$hash\"}" "http://127.0.0.1:18080/v1/simulate" > "$workdir/byhash.ndjson"
python3 - "$workdir/stream.ndjson" "$workdir/byhash.ndjson" <<'EOF'
import json, sys
def rows(path):
    out, state = [], None
    for line in open(path):
        c = json.loads(line)
        if c.get("done"):
            state = c["state"]
        elif c.get("seq", 0) > 0:
            out.append((c["t"], c["v"]))
    return out, state
inline, a = rows(sys.argv[1])
byhash, b = rows(sys.argv[2])
assert a == b == "done", "jobs ended %r and %r" % (a, b)
assert len(inline) > 2 and inline == byhash, "the job by hash streamed other rows (%d vs %d)" % (len(byhash), len(inline))
print("job by hash: the inline job's %d rows" % len(inline))
EOF
unknown=$(printf '* never sent\n' | sha256sum | cut -d' ' -f1)
code=$(curl -s -o /dev/null -w '%{http_code}' "http://127.0.0.1:18080/v1/decks/$unknown")
[[ "$code" == 404 ]] || { echo "GET of an unknown hash answered $code, want 404"; exit 1; }
code=$(curl -s -o /dev/null -w '%{http_code}' -X PUT --data-binary @"$workdir/deck.sp" \
    "http://127.0.0.1:18080/v1/decks/$unknown")
[[ "$code" == 400 ]] || { echo "PUT of text that is not its hash's answered $code, want 400"; exit 1; }
echo "deck by hash: PUT, GET 200, the inline job's rows; unknown hash 404, mismatched PUT 400"

# A second identical job must hit the shared factorization cache.
curl -sf -X POST --data-binary @"$workdir/job.json" \
    "http://127.0.0.1:18080/v1/simulate" > /dev/null
curl -sf "http://127.0.0.1:18080/stats" > "$workdir/stats.json"
python3 - "$workdir/stats.json" <<'EOF'
import json, sys
s = json.load(open(sys.argv[1]))
assert s["jobs_completed"] >= 2, s
assert s["totals"]["cache_hits"] > 0, "no shared-cache hits across jobs: %r" % (s["totals"],)
print("stats ok: %d jobs, %d cache hits" % (s["jobs_completed"], s["totals"]["cache_hits"]))
EOF

say "matexsrv POST /sweep + SSE stream"
# Three corner variants of the same deck: typ plus two global intensity
# corners — a collinear family, so the server must plan fewer lanes than
# variants and still stream every variant's waveform.
python3 - "$workdir/deck.sp" > "$workdir/sweepjob.json" <<'EOF'
import json, sys
print(json.dumps({
    "netlist": open(sys.argv[1]).read(),
    "variants": [
        {"name": "typ"},
        {"name": "low", "scale": 0.875},
        {"name": "high", "scale": 1.25},
    ],
}))
EOF
curl -sf -X POST --data-binary @"$workdir/sweepjob.json" \
    "http://127.0.0.1:18080/sweep" > "$workdir/sweep_submit.json"
sweep_id=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["id"])' "$workdir/sweep_submit.json")
curl -sf "http://127.0.0.1:18080/v1/jobs/$sweep_id/stream?sse=1" > "$workdir/sweep.sse"
python3 - "$workdir/sweep.sse" <<'EOF'
import json, sys
samples, tail, last_vseq = {}, None, {}
for block in open(sys.argv[1]).read().split("\n\n"):
    data = "".join(l[5:].lstrip() for l in block.splitlines() if l.startswith("data:"))
    if not data:
        continue
    c = json.loads(data)
    if c.get("done"):
        tail = c
    elif c.get("variant"):
        v = c["variant"]
        samples[v] = samples.get(v, 0) + 1
        assert c["vseq"] == last_vseq.get(v, 0) + 1, \
            "variant %s vseq gap: %r after %r" % (v, c["vseq"], last_vseq.get(v))
        last_vseq[v] = c["vseq"]
assert tail is not None, "SSE stream has no done chunk"
assert tail.get("state") == "done", "sweep ended %r" % (tail.get("state"),)
rep = tail.get("sweep")
assert rep, "done chunk missing the sweep report: %r" % (tail,)
assert sorted(samples) == ["high", "low", "typ"], "variants seen: %r" % (samples,)
counts = set(samples.values())
assert len(counts) == 1, "per-variant sample counts diverge: %r" % (samples,)
assert rep["lanes"] < 3, "collinear family did not share lanes: %r" % (rep,)
print("sweep streamed %d samples x %d variants over %d lane(s)"
      % (samples["typ"], len(samples), rep["lanes"]))
EOF

say "matexsrv SIGTERM graceful drain"
kill -TERM "$MATEXSRV_PID"
srv_rc=0
for i in $(seq 1 100); do
    if ! kill -0 "$MATEXSRV_PID" 2>/dev/null; then break; fi
    sleep 0.1
done
if kill -0 "$MATEXSRV_PID" 2>/dev/null; then
    echo "matexsrv still alive 10s after SIGTERM"; exit 1
fi
wait "$MATEXSRV_PID" || srv_rc=$?
[[ "$srv_rc" -eq 0 ]] || { echo "matexsrv exited $srv_rc after SIGTERM, want 0"; cat "$workdir/matexsrv.log"; exit 1; }
grep -q "drained" "$workdir/matexsrv.log" || { echo "matexsrv did not report a drain"; cat "$workdir/matexsrv.log"; exit 1; }
MATEXSRV_PID=""
echo "matexsrv drained and exited 0"

say "matexsrv kill -9 crash-restart resumes from checkpoint"
"$workdir/matexsrv" -listen 127.0.0.1:18081 \
    -state-dir "$workdir/state" -checkpoint-every 200 > "$workdir/srv2a.log" 2>&1 &
MATEXSRV2_PID=$!
for i in $(seq 1 50); do
    curl -sf "http://127.0.0.1:18081/healthz" > /dev/null 2>&1 && break
    sleep 0.1
done
# A long fixed-step job (100k steps) so the server is killed with the
# integrator still deep in the run.
python3 - "$workdir/deck.sp" > "$workdir/slowjob.json" <<'EOF'
import json, sys
print(json.dumps({"netlist": open(sys.argv[1]).read(), "method": "tr", "step": 1e-13}))
EOF
curl -sf -X POST --data-binary @"$workdir/slowjob.json" \
    "http://127.0.0.1:18081/v1/jobs" > "$workdir/submit.json"
job_id=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["id"])' "$workdir/submit.json")
# The same deck again: the second job references the first one's deck record.
curl -sf -X POST --data-binary @"$workdir/slowjob.json" \
    "http://127.0.0.1:18081/v1/jobs" > /dev/null
for i in $(seq 1 100); do
    grep -q '"rec":"checkpoint"' "$workdir/state/journal.jsonl" 2>/dev/null && break
    sleep 0.1
done
grep -q '"rec":"checkpoint"' "$workdir/state/journal.jsonl" || { echo "no checkpoint journaled in 10s"; cat "$workdir/srv2a.log"; exit 1; }
decks=$(grep -c '"rec":"deck"' "$workdir/state/journal.jsonl" || true)
specs=$(grep -c '"rec":"spec"' "$workdir/state/journal.jsonl" || true)
[[ "$decks" -eq 1 && "$specs" -eq 2 ]] || { echo "journal holds $decks deck and $specs spec records for two jobs on one deck, want 1 and 2"; exit 1; }
echo "two jobs on one deck journaled it once"
kill -9 "$MATEXSRV2_PID"
wait "$MATEXSRV2_PID" 2>/dev/null || true
echo "killed matexsrv mid-job (pid $MATEXSRV2_PID)"

"$workdir/matexsrv" -listen 127.0.0.1:18081 \
    -state-dir "$workdir/state" -checkpoint-every 200 > "$workdir/srv2b.log" 2>&1 &
MATEXSRV2_PID=$!
for i in $(seq 1 50); do
    curl -sf "http://127.0.0.1:18081/healthz" > /dev/null 2>&1 && break
    sleep 0.1
done
curl -sf "http://127.0.0.1:18081/stats" > "$workdir/stats2.json"
python3 - "$workdir/stats2.json" <<'EOF'
import json, sys
s = json.load(open(sys.argv[1]))
assert s["jobs_resumed"] == 2, "jobs_resumed=%r after restart, want 2" % (s.get("jobs_resumed"),)
ds = s["deck_store"]
assert ds["misses"] == 1 and ds["hits"] == 1 and ds["entries"] == 1, "deck_store=%r after restoring two jobs on one deck, want one parse" % (ds,)
print("restart resumed 2 interrupted jobs on one parse of their deck")
EOF
# Stream the resumed job to completion, then run the identical spec fresh on
# the same server and demand the two waveforms agree to 1e-12.
curl -sf "http://127.0.0.1:18081/v1/jobs/$job_id/stream" > "$workdir/resumed.ndjson"
curl -sf -X POST --data-binary @"$workdir/slowjob.json" \
    "http://127.0.0.1:18081/v1/simulate" > "$workdir/fresh.ndjson"
python3 - "$workdir/resumed.ndjson" "$workdir/fresh.ndjson" <<'EOF'
import json, sys
def load(path):
    samples, state = [], None
    for line in open(path):
        if not line.strip():
            continue
        c = json.loads(line)
        if c.get("done"):
            state = c.get("state")
        elif c.get("seq", 0) > 0:
            samples.append((c["seq"], c["t"], c["v"]))
    return samples, state
res, res_state = load(sys.argv[1])
ref, ref_state = load(sys.argv[2])
assert res_state == "done", "resumed job ended %r" % (res_state,)
assert ref_state == "done", "fresh job ended %r" % (ref_state,)
assert len(res) == len(ref), "resumed job has %d samples, fresh %d" % (len(res), len(ref))
assert [s[0] for s in res] == list(range(1, len(res) + 1)), "resumed stream has a seq gap"
worst = 0.0
for (_, rt, rv), (_, ft, fv) in zip(res, ref):
    assert rt == ft, "time grid diverged: %r vs %r" % (rt, ft)
    worst = max(worst, max(abs(a - b) for a, b in zip(rv, fv)))
assert worst <= 1e-12, "resumed waveform deviates %g V from uninterrupted run" % worst
print("resumed waveform matches uninterrupted run over %d samples (max deviation %g V)" % (len(res), worst))
EOF

say "restarted matexsrv SIGTERM drain"
kill -TERM "$MATEXSRV2_PID"
for i in $(seq 1 100); do
    if ! kill -0 "$MATEXSRV2_PID" 2>/dev/null; then break; fi
    sleep 0.1
done
if kill -0 "$MATEXSRV2_PID" 2>/dev/null; then
    echo "restarted matexsrv still alive 10s after SIGTERM"; exit 1
fi
srv2_rc=0
wait "$MATEXSRV2_PID" || srv2_rc=$?
[[ "$srv2_rc" -eq 0 ]] || { echo "restarted matexsrv exited $srv2_rc after SIGTERM, want 0"; cat "$workdir/srv2b.log"; exit 1; }
MATEXSRV2_PID=""
echo "restarted matexsrv drained and exited 0"

say "e2e smoke PASS"
