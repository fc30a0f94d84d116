package waveform

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDC(t *testing.T) {
	w := DC(1.8)
	if w.Value(0) != 1.8 || w.Value(1e-9) != 1.8 {
		t.Fatal("DC value wrong")
	}
	if got := w.Transitions(nil, 1); len(got) != 0 {
		t.Fatalf("DC transitions = %v", got)
	}
}

func TestPWLValue(t *testing.T) {
	w, err := NewPWL([]float64{0, 1, 3}, []float64{0, 10, 0})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ t, want float64 }{
		{-1, 0}, {0, 0}, {0.5, 5}, {1, 10}, {2, 5}, {3, 0}, {4, 0},
	}
	for _, c := range cases {
		if got := w.Value(c.t); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("PWL(%g) = %g, want %g", c.t, got, c.want)
		}
	}
}

func TestPWLValidation(t *testing.T) {
	if _, err := NewPWL([]float64{0, 0}, []float64{1, 2}); err == nil {
		t.Error("expected error for non-increasing times")
	}
	if _, err := NewPWL([]float64{0}, []float64{1, 2}); err == nil {
		t.Error("expected error for mismatched lengths")
	}
	if _, err := NewPWL(nil, nil); err == nil {
		t.Error("expected error for empty PWL")
	}
}

func TestPulseValue(t *testing.T) {
	p := &Pulse{V1: 0, V2: 1, Delay: 1, Rise: 1, Width: 2, Fall: 1, Period: 10}
	cases := []struct{ t, want float64 }{
		{0, 0}, {1, 0}, {1.5, 0.5}, {2, 1}, {3.9, 1}, {4, 1}, {4.5, 0.5}, {5, 0}, {9, 0},
		// Second period starts at delay+period = 11.
		{11.5, 0.5}, {12.5, 1},
	}
	for _, c := range cases {
		if got := p.Value(c.t); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Pulse(%g) = %g, want %g", c.t, got, c.want)
		}
	}
}

func TestPulseZeroRiseFall(t *testing.T) {
	p := &Pulse{V1: 0, V2: 2, Delay: 1, Rise: 0, Width: 1, Fall: 0}
	if p.Value(0.999) != 0 {
		t.Error("before delay")
	}
	if p.Value(1.5) != 2 {
		t.Error("during width")
	}
	if p.Value(2.5) != 0 {
		t.Error("after fall")
	}
}

func TestPulseValidate(t *testing.T) {
	if err := (&Pulse{Rise: -1}).Validate(); err == nil {
		t.Error("expected error for negative rise")
	}
	if err := (&Pulse{Rise: 1, Width: 1, Fall: 1, Period: 2}).Validate(); err == nil {
		t.Error("expected error for too-short period")
	}
	if err := (&Pulse{Rise: 1, Width: 1, Fall: 1, Period: 3}).Validate(); err != nil {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestPulseTransitions(t *testing.T) {
	p := &Pulse{V1: 0, V2: 1, Delay: 1, Rise: 1, Width: 2, Fall: 1, Period: 10}
	got := MergeSpots(p.Transitions(nil, 12), 12, 0, false)
	want := []float64{1, 2, 4, 5, 11, 12}
	if len(got) != len(want) {
		t.Fatalf("transitions = %v, want %v", got, want)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("transitions = %v, want %v", got, want)
		}
	}
}

func TestLTSIncludesEndpoints(t *testing.T) {
	p := &Pulse{V1: 0, V2: 1, Delay: 2, Rise: 1, Width: 1, Fall: 1}
	lts := LTS(p, 10)
	if lts[0] != 0 || lts[len(lts)-1] != 10 {
		t.Fatalf("LTS endpoints missing: %v", lts)
	}
}

func TestGTSUnion(t *testing.T) {
	a := &Pulse{V2: 1, Delay: 1, Rise: 1, Width: 1, Fall: 1}
	b := &Pulse{V2: 1, Delay: 2, Rise: 1, Width: 1, Fall: 1}
	gts := GTS([]Waveform{a, b}, 10)
	// a: 1,2,3,4; b: 2,3,4,5; union with ends: 0,1,2,3,4,5,10.
	want := []float64{0, 1, 2, 3, 4, 5, 10}
	if len(gts) != len(want) {
		t.Fatalf("GTS = %v, want %v", gts, want)
	}
	for i := range want {
		if math.Abs(gts[i]-want[i]) > 1e-12 {
			t.Fatalf("GTS = %v, want %v", gts, want)
		}
	}
}

func TestContainsSpot(t *testing.T) {
	spots := []float64{0, 1e-9, 2e-9}
	if !ContainsSpot(spots, 1e-9) {
		t.Error("missing spot")
	}
	if ContainsSpot(spots, 1.5e-9) {
		t.Error("phantom spot")
	}
}

func TestNextSpot(t *testing.T) {
	spots := []float64{0, 1e-10, 2e-10, 5e-10, 1e-9}
	// Reference: linear scan with the same strictly-after contract.
	ref := func(t0 float64) (float64, bool) {
		for _, s := range spots {
			if s > t0+SpotEps {
				return s, true
			}
		}
		return 0, false
	}
	for _, t0 := range []float64{-1e-9, 0, 1e-11, 1e-10, 1.5e-10, 5e-10 - SpotEps/2, 5e-10, 9.99e-10, 1e-9, 2e-9} {
		want, wok := ref(t0)
		got, gok := NextSpot(spots, t0)
		if got != want || gok != wok {
			t.Errorf("NextSpot(%g) = (%g, %v), want (%g, %v)", t0, got, gok, want, wok)
		}
	}
	if _, ok := NextSpot(nil, 0); ok {
		t.Error("NextSpot on empty list should report none")
	}
}

func TestFeatureOf(t *testing.T) {
	p := &Pulse{Delay: 1, Rise: 2, Width: 3, Fall: 4, Period: 10}
	f, ok := FeatureOf(p)
	if !ok || f != (BumpFeature{1, 2, 3, 4, 10}) {
		t.Fatalf("FeatureOf = %+v, ok=%v", f, ok)
	}
	if f2, _ := FeatureOf(&Pulse{V2: 5, Delay: 1, Rise: 2, Width: 3, Fall: 4, Period: 10}); f2 != f {
		t.Fatal("the amplitude is not part of the feature")
	}
	if _, ok := FeatureOf(DC(1)); ok {
		t.Error("DC should have no bump feature")
	}
}

func TestGroup(t *testing.T) {
	mk := func(delay float64, amp float64) Waveform {
		return &Pulse{V2: amp, Delay: delay, Rise: 1e-10, Width: 1e-10, Fall: 1e-10}
	}
	ws := []Waveform{
		mk(1e-9, 1), mk(2e-9, 5), mk(1e-9, 2), mk(3e-9, 1), mk(2e-9, 0.5),
	}
	groups := Group(ws, 10e-9)
	if len(groups) != 3 {
		t.Fatalf("groups = %v, want 3 groups", groups)
	}
	// Same-delay sources grouped together regardless of amplitude.
	if len(groups[0]) != 2 || groups[0][0] != 0 || groups[0][1] != 2 {
		t.Fatalf("group 0 = %v", groups[0])
	}
	if len(groups[1]) != 2 {
		t.Fatalf("group 1 = %v", groups[1])
	}
}

func TestGroupPWLBySignature(t *testing.T) {
	w1, _ := NewPWL([]float64{0, 1, 2}, []float64{0, 1, 0})
	w2, _ := NewPWL([]float64{0, 1, 2}, []float64{0, 5, 0}) // same breakpoints
	w3, _ := NewPWL([]float64{0, 1.5, 2}, []float64{0, 1, 0})
	groups := Group([]Waveform{w1, w2, w3}, 10)
	if len(groups) != 2 {
		t.Fatalf("groups = %v, want 2", groups)
	}
}

// Property: superposition of group LTS unions equals GTS.
func TestQuickGroupLTSCoverGTS(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		ws := make([]Waveform, n)
		for i := range ws {
			ws[i] = &Pulse{
				V2:    rng.Float64(),
				Delay: float64(rng.Intn(5)) * 1e-10,
				Rise:  1e-11 + float64(rng.Intn(3))*1e-11,
				Width: 1e-11,
				Fall:  2e-11,
			}
		}
		tstop := 2e-9
		gts := GTS(ws, tstop)
		groups := Group(ws, tstop)
		var all []float64
		for _, g := range groups {
			for _, i := range g {
				all = append(all, LTS(ws[i], tstop)...)
			}
		}
		merged := MergeSpots(all, tstop, SpotEps, true)
		if len(merged) != len(gts) {
			return false
		}
		for i := range merged {
			if math.Abs(merged[i]-gts[i]) > 1e-15 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(42))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: waveforms are piecewise linear between consecutive transition
// spots (midpoint value equals the average of the endpoints).
func TestQuickPiecewiseLinearBetweenSpots(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := &Pulse{
			V1:     rng.Float64(),
			V2:     rng.Float64() * 5,
			Delay:  rng.Float64() * 2,
			Rise:   0.1 + rng.Float64(),
			Width:  0.1 + rng.Float64(),
			Fall:   0.1 + rng.Float64(),
			Period: 0,
		}
		tstop := 10.0
		lts := LTS(p, tstop)
		for i := 1; i < len(lts); i++ {
			t0, t1 := lts[i-1], lts[i]
			if t1-t0 < 1e-9 {
				continue
			}
			mid := (t0 + t1) / 2
			want := (p.Value(t0) + p.Value(t1)) / 2
			if math.Abs(p.Value(mid)-want) > 1e-9 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(43))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
