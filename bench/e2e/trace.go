package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"

	"github.com/matex-sim/matex"
)

// perLayer lists the per-layer metrics of a traced run, bottom layer
// first; BENCHMARK.json carries the same names and units. exact marks
// counts that must repeat exactly for a fixed seed. The netlist to dist
// rows down to dist.partition_ms come from bench/layers' in-process
// replay; the rest are measured here, from outside, on the same deck.
var perLayer = []def{
	{name: "cmd.glue_ms", unit: "ms"},
	{name: "netlist.parse_ms", unit: "ms"},
	{name: "netlist.parse_mb_per_s", unit: "MB/s"},
	{name: "netlist.deck_kb", unit: "KiB", exact: true},
	{name: "circuit.stamp_ms", unit: "ms"},
	{name: "circuit.unknowns", unit: "count", exact: true},
	{name: "circuit.nnz", unit: "count", exact: true},
	{name: "sparse.analyze_ms", unit: "ms"},
	{name: "sparse.refactor_ms", unit: "ms"},
	{name: "sparse.factor_nnz", unit: "count", exact: true},
	{name: "sparse.solve_pair_us", unit: "us"},
	{name: "sparse.solve_bytes_computed", unit: "B", exact: true},
	{name: "sparse.solve_multi8_us_per_rhs", unit: "us"},
	{name: "sparse.lu_factor_ms", unit: "ms"},
	{name: "sparse.lu_solve_us", unit: "us"},
	{name: "dense.expm_us", unit: "us"},
	{name: "krylov.spot_ms", unit: "ms"},
	{name: "krylov.spot_dim", unit: "count", exact: true},
	{name: "krylov.spot_self_ms", unit: "ms"},
	{name: "krylov.spot_allocs", unit: "count"},
	{name: "transient.simulate_ms", unit: "ms"},
	{name: "transient.dc_factor_ms", unit: "ms"},
	{name: "transient.self_ms", unit: "ms"},
	{name: "transient.factorizations", unit: "count", exact: true},
	{name: "transient.solve_pairs", unit: "count", exact: true},
	{name: "transient.spmvs", unit: "count", exact: true},
	{name: "transient.expm_evals", unit: "count", exact: true},
	{name: "transient.steps", unit: "count", exact: true},
	{name: "transient.rejected", unit: "count", exact: true},
	{name: "transient.m_a", unit: "count", exact: true},
	{name: "transient.m_p", unit: "count", exact: true},
	{name: "transient.lanczos_spots", unit: "count", exact: true},
	{name: "transient.mallocs", unit: "count"},
	{name: "transient.alloc_mb", unit: "MB"},
	{name: "transient.err_max_v", unit: "V", exact: true},
	{name: "transient.speedup_vs_tr", unit: "ratio"},
	{name: "dist.groups", unit: "count", exact: true},
	{name: "dist.partition_ms", unit: "ms"},
	{name: "dist.max_node_ms", unit: "ms"},
	{name: "dist.retried", unit: "count", exact: true},
	{name: "dist.overhead_ms", unit: "ms"},
	{name: "dist.vs_oneshot_ratio", unit: "ratio"},
	{name: "sweep.lanes", unit: "count", exact: true},
	{name: "sweep.mean_panel_width", unit: "count"},
	{name: "sweep.panel_batched", unit: "count"},
	{name: "sweep.factorizations", unit: "count", exact: true},
	{name: "sweep.vs_8solo_ratio", unit: "ratio"},
	{name: "serve.submit_ms", unit: "ms"},
	{name: "serve.queue_wait_ms", unit: "ms"},
	{name: "serve.run_ms", unit: "ms"},
	{name: "serve.replay_us_per_sample", unit: "us"},
	{name: "serve.journal_kb_per_job", unit: "KiB"},
	{name: "serve.cache_hit_ratio", unit: "ratio"},
	{name: "serve.cold_job_ms", unit: "ms"},
	{name: "trace.overhead_pct", unit: "%"},
}

// traceTol bounds the one-shot waveform against fixed-step TR at the
// deck's own 10 ps step, as the grid workloads' references do.
const traceTol = 1e-5

// cliOps and warmJobs are how many operations the traced pass takes its
// medians over; it is a cost breakdown, not the timed measurement.
const (
	cliOps   = 3
	warmJobs = 3
)

// tracedPass carries one traced run: the deck, the one-shot waveform
// every outer layer must reproduce, and the metrics and checks so far.
type tracedPass struct {
	h       *harness
	dir     string
	deck    *matex.Deck
	path    string
	oneshot table
	wallMS  float64 // median one-shot CLI wall, the base of the ratios
	m       map[string]float64
	rep     *report
}

// check counts one checked operation.
func (p *tracedPass) check(what string, err error) {
	p.rep.Attempted++
	if err != nil {
		p.rep.Failed++
		fmt.Fprintf(os.Stderr, "bench: traced pass: %s: %v\n", what, err)
	}
}

// runTraced replays the workload's deck through every layer: in-process
// from netlist to dist.Partition (bench/layers, which records the spans),
// then from outside through the CLI, a two-worker D-MATEX run, the
// 8-corner sweep and the job service. Every layer is exercised on every
// workload's deck, so every per-layer metric exists in every traced run;
// whether a layer is on the workload's own path is what README's
// should-move table says, not whether a number is missing.
func (h *harness) runTraced(ctx context.Context, w workload, seed int64) (*report, []json.RawMessage, error) {
	layersBin := filepath.Join(h.env.bin, "layers")
	if _, err := os.Stat(layersBin); err != nil {
		msg, _ := os.ReadFile(h.layerErr) // best effort: the stat error alone still says what is missing
		return nil, nil, fmt.Errorf("per-layer metrics missing: bench/layers did not build: %w\n%s", err, msg)
	}
	dir, err := os.MkdirTemp(h.env.tmp, w.name+"-traced-")
	if err != nil {
		return nil, nil, err
	}
	deck, path, err := genDeck(w.deck, seed, dir, "deck.sp")
	if err != nil {
		return nil, nil, err
	}
	p := &tracedPass{h: h, dir: dir, deck: deck, path: path, m: map[string]float64{}, rep: &report{}}

	out, err := runCLI(ctx, layersBin, "-deck", path, "-workload", w.name, "-seed", fmt.Sprint(seed))
	if err != nil {
		return nil, nil, err
	}
	var replay struct {
		Metrics map[string]float64 `json:"metrics"`
		Spans   []json.RawMessage  `json:"spans"`
	}
	if err := json.Unmarshal(out.stdout, &replay); err != nil {
		return nil, nil, fmt.Errorf("bench/layers output: %w", err)
	}
	for k, v := range replay.Metrics {
		p.m[k] = v
	}

	for _, step := range []func(context.Context) error{p.cli, p.dist, p.sweep, p.serve} {
		if err := step(ctx); err != nil {
			return nil, nil, err
		}
	}

	p.rep.Correct = p.rep.Failed == 0
	p.rep.Metrics = map[string]metric{}
	for _, d := range perLayer {
		v, ok := p.m[d.name]
		if !ok {
			return nil, nil, fmt.Errorf("traced pass produced no %s", d.name)
		}
		p.rep.Metrics[d.name] = metric{v, d.unit}
	}
	fmt.Printf("%s seed %d, traced pass: %d checked operations, %d failed\n", w.name, seed, p.rep.Attempted, p.rep.Failed)
	printMetrics(p.rep.Metrics, nil)
	return p.rep, replay.Spans, nil
}

// cli measures the one-shot CLI on the deck and the fixed-step TR run the
// paper's Table 3 compares against. The CLI's glue — process start, file
// read, probe lookup, TSV encode, exit — is its wall less the solver
// phases its own -stats reports for that same run (so machine noise on
// the long phases cancels) and less the in-process parse and stamp.
func (p *tracedPass) cli(ctx context.Context) error {
	e := p.h.env
	var walls, outside []float64
	for i := 0; i < cliOps; i++ {
		r, got, err := runTable(ctx, e, "-stats", p.path)
		if err != nil {
			return err
		}
		p.oneshot = got
		kv := parseKV(r.stderr)
		solver := 0.0
		for _, phase := range []string{"dc", "factor", "transient"} {
			ms, err := kvMillis(kv, phase)
			if err != nil {
				return err
			}
			solver += ms
		}
		walls = append(walls, r.wall.Seconds()*1e3)
		outside = append(outside, r.wall.Seconds()*1e3-solver)
	}
	tr, ref, err := runTable(ctx, e, "-method", "tr", p.path)
	if err != nil {
		return err
	}
	p.check("one-shot vs fixed-step TR", checkAgainst(p.oneshot, ref, traceTol))
	p.wallMS = median(walls)
	p.m["cmd.glue_ms"] = median(outside) - p.m["netlist.parse_ms"] - p.m["circuit.stamp_ms"]
	p.m["transient.err_max_v"], _ = maxDiff(p.oneshot, ref)
	p.m["transient.speedup_vs_tr"] = tr.wall.Seconds() * 1e3 / p.wallMS // base: the TR run's wall
	return nil
}

// dist runs the deck over two loopback workers, cold then warm, and
// reports the warm run.
func (p *tracedPass) dist(ctx context.Context) error {
	e := p.h.env
	ds, addrs, err := startWorkers(ctx, e)
	if err != nil {
		return err
	}
	defer func() {
		for _, d := range ds {
			d.stop()
		}
	}()
	var r cliRun
	for _, what := range []string{"cold D-MATEX run", "warm D-MATEX run"} {
		r, err = distOp(ctx, e, addrs, p.path, p.oneshot)
		p.check(what, err)
	}
	kv := parseKV(r.stderr)
	node, err1 := kvMillis(kv, "max_node_time")
	retried, err2 := kvFloat(kv, "retried")
	if err := errors.Join(err1, err2); err != nil {
		return err
	}
	wall := r.wall.Seconds() * 1e3
	p.m["dist.max_node_ms"] = node
	p.m["dist.retried"] = retried
	// What the run cost beyond its slowest worker and the coordinator's
	// own parse, stamp and DC solve: partition, RPC, superposition, exec.
	p.m["dist.overhead_ms"] = wall - node - p.m["netlist.parse_ms"] - p.m["circuit.stamp_ms"] - p.m["transient.dc_ms"]
	p.m["dist.vs_oneshot_ratio"] = wall / p.wallMS // base: the one-shot CLI wall
	return nil
}

// sweep runs the 8-corner sweep on the deck.
func (p *tracedPass) sweep(ctx context.Context) error {
	e := p.h.env
	sc, err := prepareSweep(ctx, e, p.dir, p.deck, p.path)
	if err != nil {
		return err
	}
	r, err := sc.run(ctx, e)
	p.check("8-corner sweep", err)
	kv := parseKV(r.stderr)
	for _, f := range []struct{ metric, key string }{
		{"sweep.lanes", "lanes"},
		{"sweep.mean_panel_width", "mean_panel_width"},
		{"sweep.panel_batched", "panel_batched"},
		{"sweep.factorizations", "factorizations"},
	} {
		if p.m[f.metric], err = kvFloat(kv, f.key); err != nil {
			return err
		}
	}
	p.m["sweep.vs_8solo_ratio"] = r.wall.Seconds() * 1e3 / (8 * p.wallMS) // base: 8 one-shot CLI walls
	return nil
}

// serve puts the deck through a fresh job service: one cold job, then
// warm ones, through the queue API so that submit, queue wait and run
// separate; then replays a finished job's stream.
func (p *tracedPass) serve(ctx context.Context) error {
	srv, base, err := startService(ctx, p.h.env, p.dir)
	if err != nil {
		return err
	}
	defer srv.stop()
	text, err := os.ReadFile(p.path)
	if err != nil {
		return err
	}
	body, err := jobBody(text)
	if err != nil {
		return err
	}
	stream := func(id string) (streamed, error) {
		req, err := http.NewRequest(http.MethodGet, base+"/v1/jobs/"+id+"/stream", nil)
		if err != nil {
			return streamed{}, err
		}
		return readStream(ctx, req, p.oneshot, 1e-9)
	}
	var submitMS, waitMS, runMS []float64
	var last jobStatus
	for i := 0; i <= warmJobs; i++ {
		st, took, err := submit(ctx, base, body)
		if err != nil {
			return err
		}
		_, err = stream(st.ID) // follows the job live to its done tail
		p.check("service job "+st.ID, err)
		if err := getJSON(ctx, base+"/v1/jobs/"+st.ID, &last); err != nil {
			return err
		}
		if last.Finished == 0 {
			return fmt.Errorf("job %s reports no finish time in state %q", st.ID, last.State)
		}
		if i == 0 {
			p.m["serve.cold_job_ms"] = float64(last.Finished-last.Queued) / 1e6
			continue
		}
		submitMS = append(submitMS, took.Seconds()*1e3)
		waitMS = append(waitMS, float64(last.Started-last.Queued)/1e6)
		runMS = append(runMS, float64(last.Finished-last.Started)/1e6)
	}
	p.m["serve.submit_ms"] = median(submitMS)
	p.m["serve.queue_wait_ms"] = median(waitMS)
	p.m["serve.run_ms"] = median(runMS)

	replayed, err := stream(last.ID)
	p.check("replay of finished job "+last.ID, err)
	if replayed.n == 0 {
		return errors.New("replayed stream carried no samples")
	}
	p.m["serve.replay_us_per_sample"] = replayed.wall.Seconds() * 1e6 / float64(replayed.n)

	journal, err := os.Stat(filepath.Join(p.dir, "state", "journal.jsonl"))
	if err != nil {
		return err
	}
	p.m["serve.journal_kb_per_job"] = float64(journal.Size()) / 1024 / float64(warmJobs+1)
	var stats struct {
		Cache struct{ Hits, Misses float64 } `json:"cache"`
	}
	if err := getJSON(ctx, base+"/stats", &stats); err != nil {
		return err
	}
	if stats.Cache.Hits+stats.Cache.Misses == 0 {
		return errors.New("/stats reports no factor-cache lookups")
	}
	p.m["serve.cache_hit_ratio"] = stats.Cache.Hits / (stats.Cache.Hits + stats.Cache.Misses)
	return nil
}
