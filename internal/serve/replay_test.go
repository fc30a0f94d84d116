package serve

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/matex-sim/matex/internal/job"
	"github.com/matex-sim/matex/internal/sweep"
	"github.com/matex-sim/matex/internal/transient"
)

// TestReplayRestoresGapFreePrefix is the durability property of the sweep
// journal: whatever order concurrent lanes' flush batches and checkpoints
// reached the file in — contiguous batches as the serialised writer emits
// them, or overlapping and duplicated ones as binaries that let lanes flush
// concurrently did — and wherever a crash tore the tail, each variant's
// restored samples are exactly its samples up to its last durable
// checkpoint: no gap, no duplicate, nothing past the checkpoint.
//
// The writer model: a lane reads (from = flushed, to = len(buffer)) at one
// instant, later appends samples[from:to] and then its checkpoint, and only
// then publishes flushed = max(flushed, to). Any number of lanes may sit
// between read and write, so a short stale batch can land after a longer
// one that a checkpoint already counts on.
func TestReplayRestoresGapFreePrefix(t *testing.T) {
	variants := []string{"a", "b", "c"}
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))

		// The job's sample buffer: variants interleaved, time ascending per
		// variant, as concurrent lanes append them.
		var buf []Sample
		clock := map[string]float64{}
		vseq := map[string]int{}
		grow := func(n int) {
			for i := 0; i < n; i++ {
				v := variants[rng.Intn(len(variants))]
				clock[v] += 1e-12
				vseq[v]++
				buf = append(buf, Sample{T: clock[v], V: []float64{float64(len(buf))}, Variant: v, VSeq: vseq[v]})
			}
		}

		type lane struct {
			from, to int
			variant  string
			cpT      float64
		}
		spec, err := json.Marshal(JobSpec{Variants: []sweep.Variant{{Name: "a"}, {Name: "b"}, {Name: "c"}}})
		if err != nil {
			t.Fatal(err)
		}
		recs := []journalRecord{{Rec: "spec", ID: "job-1", Seq: 1, Spec: spec}}
		var inflight []lane
		flushed := 0
		maxInflight := 1 + rng.Intn(3) // 1 = the serialised writer
		for step := 0; step < 30; step++ {
			if len(inflight) < maxInflight && (len(inflight) == 0 || rng.Intn(2) == 0) {
				grow(1 + rng.Intn(8))
				v := variants[rng.Intn(len(variants))]
				inflight = append(inflight, lane{from: flushed, to: len(buf), variant: v, cpT: clock[v]})
				continue
			}
			i := rng.Intn(len(inflight))
			l := inflight[i]
			inflight = append(inflight[:i], inflight[i+1:]...)
			if l.to > l.from {
				recs = append(recs, journalRecord{Rec: "samples", ID: "job-1", From: l.from, Samples: buf[l.from:l.to]})
			}
			recs = append(recs, journalRecord{Rec: "checkpoint", ID: "job-1", Variant: l.variant,
				Cp: &transient.Checkpoint{Method: "rmatex", T: l.cpT}})
			if l.to > flushed {
				flushed = l.to
			}
		}

		// Write the journal, tearing the last record on odd seeds.
		var data []byte
		durable := len(recs)
		for i, rec := range recs {
			b, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			if i == len(recs)-1 && seed%2 == 1 {
				b = b[:rng.Intn(len(b))]
				durable--
			} else {
				b = append(b, '\n')
			}
			data = append(data, b...)
		}
		path := filepath.Join(t.TempDir(), journalName)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}

		restored, _, err := replayJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(restored) != 1 {
			t.Fatalf("seed %d: restored %d jobs, want 1", seed, len(restored))
		}
		lastCp := map[string]float64{}
		for _, rec := range recs[:durable] {
			if rec.Rec == "checkpoint" {
				lastCp[rec.Variant] = rec.Cp.T
			}
		}
		var want []Sample
		for _, smp := range buf {
			if cpT, ok := lastCp[smp.Variant]; ok && smp.T <= cpT {
				want = append(want, smp)
			}
		}
		got := restored[0].samples
		if len(got) != len(want) {
			t.Fatalf("seed %d (%d lanes in flight): restored %d samples, the durable checkpoints cover %d",
				seed, maxInflight, len(got), len(want))
		}
		for i := range got {
			if got[i].Variant != want[i].Variant || got[i].VSeq != want[i].VSeq || got[i].T != want[i].T {
				t.Fatalf("seed %d: restored sample %d is %s#%d, want %s#%d",
					seed, i, got[i].Variant, got[i].VSeq, want[i].Variant, want[i].VSeq)
			}
		}
	}
}

// TestCompactionKeepsLiveDecksOnce: the compacted journal holds the deck of
// every live job exactly once, ahead of the first spec that references it —
// whether the old file had it as a deck record (even twice) or inline in a
// spec — and no deck that only finished jobs were on; a second replay of the
// compacted file restores the same jobs on the same texts.
func TestCompactionKeepsLiveDecksOnce(t *testing.T) {
	deckA, deckB, deckC := "* deck a\nR1 a 0 1\n", "* deck b\nR1 b 0 1\n", "* deck c\nR1 c 0 1\n"
	mustSpec := func(spec JobSpec) json.RawMessage {
		b, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	recs := []journalRecord{
		{Rec: "deck", Hash: job.DeckHash(deckA), Netlist: deckA},
		{Rec: "deck", Hash: job.DeckHash(deckB), Netlist: deckB},
		{Rec: "spec", ID: "job-1", Seq: 1, Hash: job.DeckHash(deckA), Spec: mustSpec(JobSpec{Method: "tr"})},
		{Rec: "spec", ID: "job-2", Seq: 2, Hash: job.DeckHash(deckB), Spec: mustSpec(JobSpec{Method: "tr"})},
		{Rec: "deck", Hash: job.DeckHash(deckB), Netlist: deckB},
		{Rec: "spec", ID: "job-3", Seq: 3, Hash: job.DeckHash(deckB), Spec: mustSpec(JobSpec{Method: "be"})},
		{Rec: "spec", ID: "job-4", Seq: 4, Spec: mustSpec(JobSpec{Netlist: deckC})},
		// As a PR ≤ 20 server journaled it: a spec field this JobSpec no
		// longer has must not cost the job its replay.
		{Rec: "spec", ID: "job-5", Seq: 5, Spec: json.RawMessage(`{"case":"ibmpg1t","solve_workers":4}`)},
		{Rec: "done", ID: "job-1", State: JobDone},
	}
	dir := t.TempDir()
	path := filepath.Join(dir, journalName)
	var data []byte
	for _, rec := range recs {
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		data = append(append(data, b...), '\n')
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	jn, live, maxSeq, err := openJournal(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := jn.Close(); err != nil {
		t.Fatal(err)
	}
	if len(live) != 4 || maxSeq != 5 {
		t.Fatalf("%d live jobs, counter at %d; want jobs 2-5 and 5", len(live), maxSeq)
	}
	if len(jn.decks) != 2 || !jn.decks[job.DeckHash(deckB)] || !jn.decks[job.DeckHash(deckC)] {
		t.Fatalf("the new generation counts %v as journaled, want decks b and c", jn.decks)
	}

	compacted, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var shape []string
	for _, line := range bytes.Split(bytes.TrimSpace(compacted), []byte("\n")) {
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		var spec JobSpec
		if rec.Rec == "spec" {
			if err := json.Unmarshal(rec.Spec, &spec); err != nil || spec.Netlist != "" {
				t.Fatalf("spec of %s carries a netlist (err %v)", rec.ID, err)
			}
		}
		shape = append(shape, rec.Rec+" "+rec.ID+rec.Netlist)
	}
	want := []string{"deck " + deckB, "spec job-2", "spec job-3", "deck " + deckC, "spec job-4", "spec job-5"}
	if !reflect.DeepEqual(shape, want) {
		t.Fatalf("compacted journal is %q, want %q", shape, want)
	}

	again, _, err := replayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range again {
		if r.id != live[i].id || r.hash != live[i].hash || r.netlist != live[i].netlist || !reflect.DeepEqual(r.spec, live[i].spec) {
			t.Fatalf("replaying the compacted journal restores %s on %q, the first replay %s on %q", r.id, r.netlist, live[i].id, live[i].netlist)
		}
	}
	if texts := []string{again[0].netlist, again[1].netlist, again[2].netlist, again[3].netlist}; !reflect.DeepEqual(texts, []string{deckB, deckB, deckC, ""}) {
		t.Fatalf("restored decks %q", texts)
	}
}
