package serve_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"sync"
	"testing"

	"github.com/matex-sim/matex/internal/serve"
	"github.com/matex-sim/matex/internal/sweep"
)

// sweepSpec is the canonical test sweep: four pairwise non-collinear
// corner variants of a small ibmpg1t grid, so every variant integrates on
// its own lane and the solve panels actually batch.
func sweepSpec() serve.JobSpec {
	return serve.JobSpec{
		Case:  "ibmpg1t",
		Scale: 0.2,
		Tol:   1e-8,
		Variants: []sweep.Variant{
			{Name: "typ"},
			{Name: "hot", SourceScales: map[string]float64{"Iload1": 1.5}},
			{Name: "cool", SourceScales: map[string]float64{"Iload2": 0.7}},
			{Name: "fast", Scale: 1.2, SourceScales: map[string]float64{"Iload3": 0.8}},
		},
	}
}

// sweepStream is a demultiplexed sweep NDJSON stream: per-variant
// waveforms plus the tail.
type sweepStream struct {
	id      string
	probes  []string
	times   map[string][]float64
	rows    map[string][][]float64
	state   serve.JobState
	tailErr string
	stats   *sweep.Stats
}

// readSweepStream consumes a sweep job's NDJSON stream, demultiplexing
// the interleaved samples by variant name and checking every variant's
// vseq numbers arrive contiguously from 1.
func readSweepStream(t *testing.T, url string) *sweepStream {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)

	out := &sweepStream{times: map[string][]float64{}, rows: map[string][][]float64{}}
	first := true
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if first {
			var hdr struct {
				ID     string   `json:"id"`
				Probes []string `json:"probes"`
			}
			if err := json.Unmarshal(line, &hdr); err != nil {
				t.Fatalf("stream header: %v in %q", err, line)
			}
			out.id, out.probes = hdr.ID, hdr.Probes
			first = false
			continue
		}
		var chunk struct {
			Done    *bool        `json:"done"`
			State   string       `json:"state"`
			Error   string       `json:"error"`
			Sweep   *sweep.Stats `json:"sweep"`
			T       float64      `json:"t"`
			V       []float64    `json:"v"`
			Variant string       `json:"variant"`
			VSeq    int          `json:"vseq"`
		}
		if err := json.Unmarshal(line, &chunk); err != nil {
			t.Fatalf("stream chunk: %v in %q", err, line)
		}
		if chunk.Done != nil {
			out.state = serve.JobState(chunk.State)
			out.tailErr = chunk.Error
			out.stats = chunk.Sweep
			return out
		}
		if chunk.Variant == "" {
			t.Fatalf("sweep sample without a variant tag: %q", line)
		}
		if want := len(out.times[chunk.Variant]) + 1; chunk.VSeq != want {
			t.Fatalf("variant %q vseq %d, want %d (gap or reorder)", chunk.Variant, chunk.VSeq, want)
		}
		out.times[chunk.Variant] = append(out.times[chunk.Variant], chunk.T)
		out.rows[chunk.Variant] = append(out.rows[chunk.Variant], chunk.V)
	}
	t.Fatalf("stream ended without a done chunk (err=%v)", sc.Err())
	return nil
}

// TestSweepJobEndToEnd submits a sweep over POST /sweep, follows its
// interleaved stream, and checks: the demultiplexed "typ" variant matches
// a plain job of the same deck exactly, the tail carries the sweep report
// with batched panels, and /stats folds the sweep counters.
func TestSweepJobEndToEnd(t *testing.T) {
	_, base, shutdown := testServer(t, serve.Config{Workers: 4, QueueDepth: 8})
	defer shutdown(context.Background())

	spec := sweepSpec()
	resp := postJSON(t, base+"/sweep", spec)
	var st serve.Status
	if err := jsonDecode(resp, &st); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep submit status %d", resp.StatusCode)
	}
	if st.Variants != len(spec.Variants) {
		t.Fatalf("status variants = %d, want %d", st.Variants, len(spec.Variants))
	}

	got := readSweepStream(t, base+"/v1/jobs/"+st.ID+"/stream")
	if got.state != serve.JobDone {
		t.Fatalf("sweep ended %s (%s)", got.state, got.tailErr)
	}
	for _, v := range spec.Variants {
		if len(got.times[v.Name]) == 0 {
			t.Fatalf("variant %q streamed no samples", v.Name)
		}
	}
	if got.stats == nil {
		t.Fatal("stream tail carries no sweep report")
	}
	if got.stats.Variants != len(spec.Variants) || got.stats.Lanes != len(spec.Variants) {
		t.Fatalf("sweep report %d variants / %d lanes, want %d/%d", got.stats.Variants, got.stats.Lanes, len(spec.Variants), len(spec.Variants))
	}
	if got.stats.Panel.Batched == 0 {
		t.Fatalf("sweep never batched solves into panels: %+v", got.stats.Panel)
	}

	// The unscaled variant must reproduce a plain job of the same deck
	// exactly: sweep lanes are bitwise identical to solo runs.
	plain := spec
	plain.Variants = nil
	ref := streamNDJSON(t, base+"/v1/simulate", plain)
	if ref.state != serve.JobDone {
		t.Fatalf("plain job ended %s (%s)", ref.state, ref.tailErr)
	}
	typT, typV := got.times["typ"], got.rows["typ"]
	if len(typT) != len(ref.times) {
		t.Fatalf("typ variant has %d samples, plain job %d", len(typT), len(ref.times))
	}
	for i := range ref.times {
		if typT[i] != ref.times[i] {
			t.Fatalf("typ grid diverges at %d: %g vs %g", i, typT[i], ref.times[i])
		}
		for k := range ref.rows[i] {
			if typV[i][k] != ref.rows[i][k] {
				t.Fatalf("typ deviates from the plain job at t=%g probe %d: %g vs %g", ref.times[i], k, typV[i][k], ref.rows[i][k])
			}
		}
	}

	stats := getStats(t, base)
	if stats.Totals.Sweeps != 1 {
		t.Fatalf("/stats sweeps = %d, want 1", stats.Totals.Sweeps)
	}
	if stats.Totals.SweepVariants != len(spec.Variants) {
		t.Fatalf("/stats sweep_variants = %d, want %d", stats.Totals.SweepVariants, len(spec.Variants))
	}
	if len(stats.Totals.PanelWidths) == 0 {
		t.Fatal("/stats panel_width_histogram is empty after a batched sweep")
	}
	wide := 0
	for w, n := range stats.Totals.PanelWidths {
		if w >= 2 {
			wide += n
		}
	}
	if wide == 0 {
		t.Fatalf("histogram holds no multi-RHS panels: %v", stats.Totals.PanelWidths)
	}
}

// TestSweepSharedVariantsStreamGapless: variants served by linearity stream
// as their lanes pass each sample, interleaved with the directly integrated
// one, and every variant's vseq still runs 1, 2, 3, … (readSweepStream)
// over the whole waveform.
func TestSweepSharedVariantsStreamGapless(t *testing.T) {
	_, base, shutdown := testServer(t, serve.Config{Workers: 2, QueueDepth: 4})
	defer shutdown(context.Background())
	spec := serve.JobSpec{
		Case: "ibmpg1t", Scale: 0.2,
		Variants: []sweep.Variant{
			{Name: "typ"},
			{Name: "half", Scale: 0.5},
			{Name: "double", Scale: 2},
			{Name: "hot", SourceScales: map[string]float64{"Iload1": 1.4}},
		},
	}
	resp := postJSON(t, base+"/v1/sweep", spec)
	var st serve.Status
	if err := jsonDecode(resp, &st); err != nil {
		t.Fatal(err)
	}
	got := readSweepStream(t, base+"/v1/jobs/"+st.ID+"/stream")
	if got.state != serve.JobDone {
		t.Fatalf("sweep ended %s (%s)", got.state, got.tailErr)
	}
	if got.stats == nil || got.stats.SharedVariants != 3 {
		t.Fatalf("sweep report %+v: want three shared variants", got.stats)
	}
	n := len(got.times["hot"])
	for _, v := range spec.Variants {
		if len(got.times[v.Name]) != n || n == 0 {
			t.Fatalf("variant %q streamed %d samples, the direct one %d", v.Name, len(got.times[v.Name]), n)
		}
	}
}

// TestSweepCrashRestartResume is the sweep analogue of the kill -9 test:
// a journal-backed server is interrupted mid-sweep (byte-for-byte journal
// snapshot), a second server restores the job, resumes each checkpointed
// variant from its own snapshot (re-running the rest), and every
// variant's stitched waveform matches the uninterrupted run on the exact
// same grid.
func TestSweepCrashRestartResume(t *testing.T) {
	leak := guardGoroutines(t)
	dirA, dirB := t.TempDir(), t.TempDir()

	_, baseA, shutdownA := testServer(t, serve.Config{
		Workers: 4, QueueDepth: 4, StateDir: dirA, CheckpointEvery: 100,
	})
	// Fixed-step TR, thousands of steps per lane: slow enough that the
	// journal snapshot below lands mid-run with both variants checkpointed.
	spec := serve.JobSpec{
		Case: "ibmpg1t", Scale: 0.2, Method: "tr", Step: 2e-12,
		Variants: []sweep.Variant{
			{Name: "a"},
			{Name: "b", SourceScales: map[string]float64{"Iload1": 1.3}},
		},
	}
	resp := postJSON(t, baseA+"/v1/sweep", spec)
	var st serve.Status
	if err := jsonDecode(resp, &st); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep submit status %d", resp.StatusCode)
	}

	snapshot := waitForJournal(t, journalPath(dirA), `"rec":"checkpoint"`)
	if err := os.WriteFile(journalPath(dirB), snapshot, 0o644); err != nil {
		t.Fatal(err)
	}

	ref := readSweepStream(t, baseA+"/v1/jobs/"+st.ID+"/stream")
	if ref.state != serve.JobDone {
		t.Fatalf("reference sweep ended %s (%s)", ref.state, ref.tailErr)
	}
	if err := shutdownA(context.Background()); err != nil {
		t.Fatal(err)
	}

	_, baseB, shutdownB := testServer(t, serve.Config{
		Workers: 4, QueueDepth: 4, StateDir: dirB, CheckpointEvery: 100,
	})
	defer func() {
		if err := shutdownB(context.Background()); err != nil {
			t.Fatal(err)
		}
		leak()
	}()
	if stats := getStats(t, baseB); stats.Resumed != 1 {
		t.Fatalf("restarted server resumed %d jobs, want 1", stats.Resumed)
	}
	got := readSweepStream(t, baseB+"/v1/jobs/"+st.ID+"/stream")
	if got.state != serve.JobDone {
		t.Fatalf("resumed sweep ended %s (%s)", got.state, got.tailErr)
	}

	for _, v := range spec.Variants {
		rt, gt := ref.times[v.Name], got.times[v.Name]
		if len(gt) != len(rt) {
			t.Fatalf("variant %q resumed with %d samples, reference %d", v.Name, len(gt), len(rt))
		}
		rv, gv := ref.rows[v.Name], got.rows[v.Name]
		for i := range rt {
			if gt[i] != rt[i] {
				t.Fatalf("variant %q grid diverges at %d: %g vs %g (gap or duplicate)", v.Name, i, gt[i], rt[i])
			}
			for k := range rv[i] {
				if d := math.Abs(gv[i][k] - rv[i][k]); d > 1e-12 {
					t.Fatalf("variant %q deviates %g at t=%g (probe %d)", v.Name, d, rt[i], k)
				}
			}
		}
	}
}

// TestSweepAndJobsConcurrentHammer runs sweep jobs and plain jobs through
// one server at once: every job shares the same factorization cache and
// workspace pool while the sweeps batch panels internally. Primarily a
// race-detector target (tier-1 runs the suite under -race); it also
// checks everything completes and the cache was actually shared.
func TestSweepAndJobsConcurrentHammer(t *testing.T) {
	_, base, shutdown := testServer(t, serve.Config{Workers: 6, QueueDepth: 16})
	defer shutdown(context.Background())

	plain := serve.JobSpec{Case: "ibmpg1t", Scale: 0.2, Tol: 1e-8}
	var wg sync.WaitGroup
	fail := make(chan string, 8)
	for i := 0; i < 2; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			resp := postJSON(t, base+"/sweep", sweepSpec())
			var st serve.Status
			if err := jsonDecode(resp, &st); err != nil {
				fail <- err.Error()
				return
			}
			if got := readSweepStream(t, base+"/v1/jobs/"+st.ID+"/stream"); got.state != serve.JobDone {
				fail <- "sweep ended " + string(got.state) + " (" + got.tailErr + ")"
			}
		}()
		go func() {
			defer wg.Done()
			for j := 0; j < 2; j++ {
				if got := streamNDJSON(t, base+"/v1/simulate", plain); got.state != serve.JobDone {
					fail <- "plain job ended " + string(got.state) + " (" + got.tailErr + ")"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(fail)
	for msg := range fail {
		t.Fatal(msg)
	}
	stats := getStats(t, base)
	if stats.Totals.Sweeps != 2 {
		t.Fatalf("/stats sweeps = %d, want 2", stats.Totals.Sweeps)
	}
	if stats.Cache.Hits == 0 {
		t.Fatal("no shared-cache hits across concurrent sweep and plain jobs")
	}
}

// TestSweepSpecValidation covers submit-time sweep rejections.
func TestSweepSpecValidation(t *testing.T) {
	srv, base, shutdown := testServer(t, serve.Config{Workers: 1, QueueDepth: 4})
	defer shutdown(context.Background())

	cases := []struct {
		name string
		mut  func(*serve.JobSpec)
	}{
		{"distributed sweep", func(s *serve.JobSpec) { s.Distributed = true }},
		{"unknown source", func(s *serve.JobSpec) {
			s.Variants[1].SourceScales = map[string]float64{"nope": 2}
		}},
		{"duplicate names", func(s *serve.JobSpec) { s.Variants[1].Name = "typ" }},
		{"too many variants", func(s *serve.JobSpec) {
			s.Variants = make([]sweep.Variant, serve.MaxSweepVariants+1)
		}},
	}
	for _, tc := range cases {
		spec := sweepSpec()
		tc.mut(&spec)
		if _, err := srv.Submit(spec); err == nil {
			t.Errorf("%s: accepted, want rejection", tc.name)
		}
	}

	// The dedicated endpoint refuses a variant-less spec outright.
	spec := sweepSpec()
	spec.Variants = nil
	resp := postJSON(t, base+"/sweep", spec)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("variant-less POST /sweep answered %d, want 400", resp.StatusCode)
	}
}
