package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count); NaN for an empty slice.
func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between order statistics; NaN for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailPercentile picks the highest percentile worth reporting for n
// samples: the largest of 99.9/99/95/90 that leaves at least ten samples
// beyond it. ok is false when n is too small for any of them (n < 100),
// in which case only the median is reported.
func tailPercentile(n int) (p float64, ok bool) {
	for _, c := range []struct {
		p        float64
		perMille int // share of samples beyond p, in thousandths
	}{{99.9, 1}, {99, 10}, {95, 50}, {90, 100}} {
		if n*c.perMille >= 10*1000 {
			return c.p, true
		}
	}
	return 0, false
}

// table is a parsed waveform table: row i holds the probe voltages at
// times[i]. key is the time column's text, which both `matex` runs of one
// deck print identically for a shared time point.
type table struct {
	key  []string
	rows [][]float64
}

// parseTSV reads matex's tab-separated output (a header line, then
// "time\tv...\n" rows). lead is the number of leading label columns
// before the time column (1 for -sweep output); rows whose first label
// differs from want are skipped when lead > 0.
func parseTSV(data []byte, lead int, want string) (table, error) {
	var t table
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for line := 0; sc.Scan(); line++ {
		if line == 0 {
			continue
		}
		f := strings.Split(sc.Text(), "\t")
		if len(f) < lead+2 {
			return t, fmt.Errorf("tsv line %d: %d columns", line+1, len(f))
		}
		if lead > 0 && f[0] != want {
			continue
		}
		row := make([]float64, len(f)-lead-1)
		for i, s := range f[lead+1:] {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return t, fmt.Errorf("tsv line %d: %w", line+1, err)
			}
			row[i] = v
		}
		t.key = append(t.key, f[lead])
		t.rows = append(t.rows, row)
	}
	if err := sc.Err(); err != nil {
		return t, err
	}
	if len(t.rows) == 0 {
		return t, fmt.Errorf("tsv: no sample rows")
	}
	return t, nil
}

// maxDiff returns max |a - b| over the time points the two tables share
// and the number of shared points. A fixed-step reference contains every
// transition spot a MATEX run emits, so common == len(a.rows) is the
// expected outcome; callers treat fewer as a failed check.
func maxDiff(a, b table) (diff float64, common int) {
	at := make(map[string]int, len(b.key))
	for i, k := range b.key {
		at[k] = i
	}
	for i, k := range a.key {
		j, ok := at[k]
		if !ok {
			continue
		}
		common++
		for c := range a.rows[i] {
			if c < len(b.rows[j]) {
				diff = math.Max(diff, math.Abs(a.rows[i][c]-b.rows[j][c]))
			}
		}
	}
	return diff, common
}

// checkAgainst fails unless every row of got has a counterpart in ref
// within tol volts.
func checkAgainst(got, ref table, tol float64) error {
	d, common := maxDiff(got, ref)
	if common != len(got.rows) {
		return fmt.Errorf("only %d of %d time points found in the reference", common, len(got.rows))
	}
	if d > tol || math.IsNaN(d) {
		return fmt.Errorf("max |dv| %.3g V exceeds %.3g V", d, tol)
	}
	return nil
}

// parseKV collects the key=value tokens of matex -stats output.
func parseKV(s string) map[string]string {
	kv := map[string]string{}
	for _, tok := range strings.Fields(s) {
		if k, v, ok := strings.Cut(tok, "="); ok {
			kv[k] = v
		}
	}
	return kv
}

// kvFloat reads a numeric -stats field ("lanczos_spots=11/58" yields 11).
func kvFloat(kv map[string]string, key string) (float64, error) {
	v, ok := kv[key]
	if !ok {
		return 0, fmt.Errorf("-stats output has no %s field", key)
	}
	v, _, _ = strings.Cut(v, "/")
	return strconv.ParseFloat(v, 64)
}

// kvMillis reads a duration -stats field ("dc=36.6ms") in milliseconds.
func kvMillis(kv map[string]string, key string) (float64, error) {
	v, ok := kv[key]
	if !ok {
		return 0, fmt.Errorf("-stats output has no %s field", key)
	}
	d, err := time.ParseDuration(v)
	return float64(d) / 1e6, err
}
