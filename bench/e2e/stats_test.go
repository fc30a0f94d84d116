package main

import (
	"math"
	"strings"
	"testing"
)

func TestMedianAndPercentile(t *testing.T) {
	cases := []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{[]float64{3, 1, 2}, 50, 2},
		{[]float64{4, 1, 3, 2}, 50, 2.5},
		{[]float64{7}, 95, 7},
		{[]float64{1, 2, 3, 4, 5}, 0, 1},
		{[]float64{1, 2, 3, 4, 5}, 100, 5},
		{[]float64{0, 10}, 95, 9.5},
	}
	for _, c := range cases {
		if got := percentile(c.xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %g) = %g, want %g", c.xs, c.p, got, c.want)
		}
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %g, want 5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 {
		t.Error("median reordered its argument")
	}
}

// The reported tail percentile must leave at least ten samples beyond it.
func TestTailPercentileTenBeyondRule(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{10, 0, false},
		{99, 0, false},
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{302, 95, true},
		{999, 95, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
	}
	for _, c := range cases {
		p, ok := tailPercentile(c.n)
		if ok != c.ok || p != c.want {
			t.Errorf("tailPercentile(%d) = %g, %v; want %g, %v", c.n, p, ok, c.want, c.ok)
		}
	}
}

const (
	matexTSV = "time\tv(a)\tv(b)\n" +
		"0.000000e+00\t1.800000000e+00\t1.800000000e+00\n" +
		"1.000000e-10\t1.799000000e+00\t1.798000000e+00\n" +
		"3.000000e-10\t1.797000000e+00\t1.796000000e+00\n"
	refTSV = "time\tv(a)\tv(b)\n" +
		"0.000000e+00\t1.800000000e+00\t1.800000000e+00\n" +
		"1.000000e-10\t1.799000500e+00\t1.798000000e+00\n" +
		"2.000000e-10\t1.700000000e+00\t1.700000000e+00\n" +
		"3.000000e-10\t1.797000000e+00\t1.796002000e+00\n"
)

// Only time points present in both tables are compared: the reference's
// extra 200 ps row, far off, must not count.
func TestMaxDiffOnCommonTimePoints(t *testing.T) {
	got, err := parseTSV([]byte(matexTSV), 0, "")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := parseTSV([]byte(refTSV), 0, "")
	if err != nil {
		t.Fatal(err)
	}
	d, common := maxDiff(got, ref)
	if common != 3 || math.Abs(d-2e-6) > 1e-12 {
		t.Fatalf("maxDiff = %g over %d points, want 2e-6 over 3", d, common)
	}
	if err := checkAgainst(got, ref, 1e-5); err != nil {
		t.Errorf("within tolerance, got %v", err)
	}
	if err := checkAgainst(got, ref, 1e-6); err == nil {
		t.Error("2e-6 V passed a 1e-6 V tolerance")
	}
	// A row the reference lacks is a failed check, not a skipped one.
	if err := checkAgainst(ref, got, 1); err == nil {
		t.Error("a time point missing from the reference passed")
	}
}

func TestParseTSVVariantColumn(t *testing.T) {
	sweep := "variant\ttime\tv(a)\n" +
		"p0lo\t0.000000e+00\t1.8\n" +
		"p0hi\t0.000000e+00\t1.7\n" +
		"p0lo\t1.000000e-10\t1.6\n"
	lo, err := parseTSV([]byte(sweep), 1, "p0lo")
	if err != nil {
		t.Fatal(err)
	}
	if len(lo.rows) != 2 || lo.rows[1][0] != 1.6 || lo.key[1] != "1.000000e-10" {
		t.Errorf("p0lo rows = %v keys %v", lo.rows, lo.key)
	}
	if _, err := parseTSV([]byte(sweep), 1, "absent"); err == nil {
		t.Error("a variant with no rows parsed without error")
	}
	for _, bad := range []string{"", "time\tv(a)\n", "time\tv(a)\n0\tx\n", "time\tv(a)\n0\n"} {
		if _, err := parseTSV([]byte(bad), 0, ""); err == nil {
			t.Errorf("parseTSV(%q) succeeded", bad)
		}
	}
}

func TestParseStats(t *testing.T) {
	kv := parseKV("groups=30 retried=0 max_node_time=55.509824ms max_node_transient=52ms\n" +
		"factorizations=2 m_a=10.4 lanczos_spots=11/58 dc=1.5s\n")
	for key, want := range map[string]float64{"groups": 30, "m_a": 10.4, "lanczos_spots": 11} {
		if got, err := kvFloat(kv, key); err != nil || got != want {
			t.Errorf("kvFloat(%s) = %g, %v; want %g", key, got, err, want)
		}
	}
	for key, want := range map[string]float64{"max_node_time": 55.509824, "dc": 1500} {
		if got, err := kvMillis(kv, key); err != nil || math.Abs(got-want) > 1e-9 {
			t.Errorf("kvMillis(%s) = %g, %v; want %g", key, got, err, want)
		}
	}
	if _, err := kvFloat(kv, "absent"); err == nil || !strings.Contains(err.Error(), "absent") {
		t.Errorf("missing field error = %v", err)
	}
}
