package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestSmoke builds and execs the real binaries through run.sh: one short
// run of the cheapest workload, end-to-end and traced. It takes half a
// minute and needs the toolchain, so it only runs on request.
func TestSmoke(t *testing.T) {
	if os.Getenv("MATEX_BENCH_SMOKE") != "1" {
		t.Skip("set MATEX_BENCH_SMOKE=1 to exec the binaries")
	}
	for _, trace := range []string{"0", "1"} {
		cmd := exec.Command("bash", "../run.sh", "--workload", "serve_stream", "--seed", "1", "--seconds", "1", "--trace", trace)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("run.sh --trace %s: %v", trace, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var rep report
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
			t.Fatalf("last line is not a result: %v", err)
		}
		want := endToEnd
		if trace == "1" {
			want = perLayer
		}
		if !rep.Correct || rep.Attempted < 1 || rep.Failed != 0 || len(rep.Metrics) != len(want) {
			t.Errorf("--trace %s: correct=%v attempted=%d failed=%d with %d metrics, want %d",
				trace, rep.Correct, rep.Attempted, rep.Failed, len(rep.Metrics), len(want))
		}
		for _, d := range want {
			if m, ok := rep.Metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("--trace %s: metric %s [%s] missing or in unit %q", trace, d.name, d.unit, m.Unit)
			}
		}
	}
}
