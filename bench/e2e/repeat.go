package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
)

// spec is the part of BENCHMARK.json the harness reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

func loadSpec(path string) (spec, error) {
	var s spec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	return s, json.Unmarshal(b, &s)
}

// holdOutSeed is never used while a change is written; a claim must also
// hold on it.
const holdOutSeed = 2

// repeatCheck runs every workload twice on seed 1, traced pass included,
// and fails unless the two sets agree: every end-to-end figure within the
// bound BENCHMARK.json fixes for it, every count identical. It then runs
// the hold-out seed once. No operation may fail in any of the three.
func (h *harness) repeatCheck(ctx context.Context, specPath string) error {
	sp, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	var sets [2]map[string]result
	for i := range sets {
		fmt.Printf("repeat-check: set %d of 2, seed 1\n", i+1)
		if sets[i], err = h.runSet(ctx, workloads, 1, true, true); err != nil {
			return err
		}
	}
	fmt.Printf("repeat-check: hold-out seed %d\n", holdOutSeed)
	held, err := h.runSet(ctx, workloads, holdOutSeed, true, true)
	if err != nil {
		return err
	}

	var errs []error
	for _, w := range workloads {
		a, b := sets[0][w.name], sets[1][w.name]
		for _, r := range []result{a, b, held[w.name]} {
			if n := r.e2e.Failed + r.layers.Failed; n > 0 {
				errs = append(errs, fmt.Errorf("%s: %d operations failed", w.name, n))
			}
		}
		for _, m := range sp.EndToEnd {
			x, y := a.e2e.Metrics[m.Name].Value, b.e2e.Metrics[m.Name].Value
			if d := math.Abs(y-x) / x; !(d <= m.Bound) {
				errs = append(errs, fmt.Errorf("%s %s: %.6g vs %.6g %s differ by %.1f %%, bound %.0f %%",
					w.name, m.Name, x, y, m.Unit, 100*d, 100*m.Bound))
			}
		}
		for _, d := range perLayer {
			x, y := a.layers.Metrics[d.name].Value, b.layers.Metrics[d.name].Value
			if d.exact && x != y {
				errs = append(errs, fmt.Errorf("%s %s: count %v then %v", w.name, d.name, x, y))
			}
		}
	}
	return errors.Join(errs...)
}
