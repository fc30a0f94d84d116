package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"github.com/matex-sim/matex"
)

var testDeck = deckSpec{ibm: "ibmpg1t", scale: 0.5, cnode: 0.5e-12}

func netlistOf(t *testing.T, d *matex.Deck) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := matex.WriteNetlist(&b, d); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// The same seed gives the same deck; another seed moves the loads but
// keeps the bump shapes, so the transition spots — and the step count —
// stay put.
func TestDeckFromSeed(t *testing.T) {
	a, err := testDeck.build(7)
	if err != nil {
		t.Fatal(err)
	}
	again, _ := testDeck.build(7)
	other, _ := testDeck.build(8)
	if !bytes.Equal(netlistOf(t, a), netlistOf(t, again)) {
		t.Error("seed 7 built two different decks")
	}
	if bytes.Equal(netlistOf(t, a), netlistOf(t, other)) {
		t.Error("seeds 7 and 8 built the same deck")
	}
	shapes := func(d *matex.Deck) map[matex.Pulse]bool {
		set := map[matex.Pulse]bool{}
		for _, s := range d.Circuit.ISources {
			p := *s.Wave.(*matex.Pulse)
			p.V2 = 0
			set[p] = true
		}
		return set
	}
	sa, so := shapes(a), shapes(other)
	if len(sa) != len(so) {
		t.Fatalf("%d bump shapes on seed 7, %d on seed 8", len(sa), len(so))
	}
	for p := range sa {
		if !so[p] {
			t.Errorf("bump shape %+v is missing on seed 8", p)
		}
	}
	if a.TranStop <= 0 || len(a.Prints) != 4 {
		t.Errorf("deck has tstop %g and %d probes", a.TranStop, len(a.Prints))
	}
}

// Variants name only loads that stamp an input, plan as lo/hi pairs over
// one pattern, and bake multiplies exactly the named loads.
func TestSweepVariantsAndBake(t *testing.T) {
	deck, err := testDeck.build(1)
	if err != nil {
		t.Fatal(err)
	}
	ckt := deck.Circuit
	ckt.ISources[0].Pos = ckt.VSources[0].Pos // park one load on a pad
	parked := ckt.ISources[0].Name
	vs, err := sweepVariants(ckt)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 8 {
		t.Fatalf("%d variants, want 8", len(vs))
	}
	sys, err := matex.Stamp(ckt, matex.StampOptions{CollapseSupplies: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := matex.ValidateSweep(sys, vs); err != nil {
		t.Fatalf("the simulator rejects the variants: %v", err)
	}
	for i := 0; i < len(vs); i += 2 {
		lo, hi := vs[i], vs[i+1]
		if lo.Scale != 0.875 || hi.Scale != 1.25 {
			t.Errorf("pair %d scales %g/%g", i/2, lo.Scale, hi.Scale)
		}
		if _, named := lo.SourceScales[parked]; named {
			t.Errorf("variant %s names the pad-attached load %s", lo.Name, parked)
		}
		hot := 0
		for name, k := range lo.SourceScales {
			if hi.SourceScales[name] != k {
				t.Errorf("pair %d disagrees on %s", i/2, name)
			}
			if k == 1.5 {
				hot++
			}
		}
		if hot != 1 {
			t.Errorf("variant %s has %d hot loads", lo.Name, hot)
		}
	}

	baked := bake(deck, vs[1])
	for i, s := range baked.Circuit.ISources {
		orig := ckt.ISources[i].Wave.(*matex.Pulse).V2
		want := orig
		if k, named := vs[1].SourceScales[s.Name]; named {
			want = orig * (vs[1].Scale * k)
		}
		if got := s.Wave.(*matex.Pulse).V2; got != want {
			t.Errorf("%s baked to %g, want %g", s.Name, got, want)
		}
	}
	if ckt.ISources[1].Wave.(*matex.Pulse).V2 == baked.Circuit.ISources[1].Wave.(*matex.Pulse).V2 {
		t.Error("bake changed nothing, or changed the original deck")
	}
}

// BENCHMARK.json and the harness must name the same workloads and
// metrics, with the same units.
func TestSpecMatchesHarness(t *testing.T) {
	sp, err := loadSpec("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(sp.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if sp.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the harness", i, sp.Workloads[i].Name, w.name)
		}
	}
	same := func(kind string, got []specMetric, want []def) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the harness", len(got), kind, len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s metric %d: %s [%s] in BENCHMARK.json, %s [%s] in the harness",
					kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end-to-end", sp.EndToEnd, endToEnd)
	same("per-layer", sp.PerLayer, perLayer)

	// The whole file must stay within the contract's key set.
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
		delete(keys, k)
	}
	for k := range keys {
		t.Errorf("BENCHMARK.json has an extra key %q", k)
	}
}
