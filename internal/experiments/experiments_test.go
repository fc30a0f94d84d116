package experiments

import (
	"bytes"
	"strings"
	"testing"

	"github.com/matex-sim/matex/internal/pdn"
	"github.com/matex-sim/matex/internal/waveform"
)

// Small configurations keep the test suite fast; cmd/experiments runs the
// full-scale versions.

func TestTable1ShapeHolds(t *testing.T) {
	drive := &waveform.Pulse{V1: 0, V2: 1e-3, Delay: 0.02e-9, Rise: 0.01e-9, Width: 0.1e-9, Fall: 0.01e-9}
	cfg := Table1Config{
		Specs: []pdn.StiffMeshSpec{
			{NX: 6, NY: 6, RSeg: 1, CBase: 1e-12, Spread: 1e6, Drive: drive},
		},
	}
	rows, err := RunTable1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	mexp, imatex, rmatex := rows[0], rows[1], rows[2]
	if mexp.Method != "MEXP" || imatex.Method != "I-MATEX" || rmatex.Method != "R-MATEX" {
		t.Fatalf("row order wrong: %v %v %v", mexp.Method, imatex.Method, rmatex.Method)
	}
	// Headline shape: the spectral-transform subspaces are much smaller.
	if imatex.MA >= mexp.MA || rmatex.MA >= mexp.MA {
		t.Errorf("m_a: MEXP %.1f, I-MATEX %.1f, R-MATEX %.1f — expected large reduction",
			mexp.MA, imatex.MA, rmatex.MA)
	}
	if rmatex.MP > 30 {
		t.Errorf("R-MATEX peak dim %d unexpectedly large", rmatex.MP)
	}
	// All methods stay accurate on this mildly stiff case, held to the exact
	// reference at a bound a backward-Euler reference (0.72 % off at 0.5 ps)
	// could never pass.
	for _, r := range rows {
		if r.ErrPct > 0.01 {
			t.Errorf("%s error %.3f%% too large", r.Method, r.ErrPct)
		}
	}
	var buf bytes.Buffer
	PrintTable1(&buf, rows)
	if !strings.Contains(buf.String(), "R-MATEX") {
		t.Error("PrintTable1 missing rows")
	}
}

func TestTable2ShapeHolds(t *testing.T) {
	rows, err := RunTable2(Table2Config{Designs: []string{"ibmpg1t"}, Scale: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	// Shape: R-MATEX beats adaptive TR, and I-MATEX is between them.
	if r.Spdp2 < 1 {
		t.Errorf("R-MATEX slower than adaptive TR: Spdp2 = %.2f", r.Spdp2)
	}
	if r.MaxErrI > 2e-3 {
		t.Errorf("I-MATEX vs R-MATEX deviation %.2e too large", r.MaxErrI)
	}
	var buf bytes.Buffer
	PrintTable2(&buf, rows)
	if !strings.Contains(buf.String(), "ibmpg1t") {
		t.Error("PrintTable2 missing design")
	}
}

func TestTable3ShapeHolds(t *testing.T) {
	rows, err := RunTable3(Table3Config{Designs: []string{"ibmpg1t"}, Scale: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.Groups < 2 {
		t.Fatalf("groups = %d", r.Groups)
	}
	// Shape: per-node substitution pairs are far below TR's 1000 — the
	// deterministic form of the paper's speedup (Eq. 12). Wall-clock Spdp4
	// at this reduced scale is dominated by fixed overheads, so only a
	// loose bound is asserted; cmd/experiments measures the full scale.
	if r.Spdp4 < 0.3 {
		t.Errorf("Spdp4 = %.2f, expected at least 0.3 even at reduced scale", r.Spdp4)
	}
	if r.SubPairs >= 500 {
		t.Errorf("per-node substitution pairs = %d, expected far below 1000", r.SubPairs)
	}
	// Accuracy: paper reports ~1e-4 on a 1.8 V grid.
	if r.MaxErr > 5e-3 {
		t.Errorf("MaxErr = %.2e", r.MaxErr)
	}
	if r.AvgErr > r.MaxErr {
		t.Error("AvgErr above MaxErr")
	}
	var buf bytes.Buffer
	PrintTable3(&buf, rows)
	if !strings.Contains(buf.String(), "Spdp4") {
		t.Error("PrintTable3 missing header")
	}
}

func TestFig5ErrorShrinksWithHAndM(t *testing.T) {
	series, err := RunFig5(Fig5Config{N: 12, Dims: []int{2, 6}, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("series = %d", len(series))
	}
	if series[0].M != 2 || series[1].M != 6 {
		t.Fatalf("fixed dimensions not honored: m = %d, %d", series[0].M, series[1].M)
	}
	for _, s := range series {
		// Error decreases (allowing small non-monotonic wiggles) from the
		// smallest to the largest h: compare endpoints.
		first, last := s.Errs[0], s.Errs[len(s.Errs)-1]
		if last > first {
			t.Errorf("m=%d: error grew with h: %g -> %g", s.M, first, last)
		}
	}
	// Larger m is at least as accurate at every h.
	for i := range series[0].H {
		if series[1].Errs[i] > series[0].Errs[i]*1.5 {
			t.Errorf("larger m less accurate at h=%g: %g vs %g",
				series[0].H[i], series[1].Errs[i], series[0].Errs[i])
		}
	}
	var buf bytes.Buffer
	PrintFig5(&buf, series)
	if !strings.Contains(buf.String(), "err(m=") {
		t.Error("PrintFig5 missing header")
	}
}
