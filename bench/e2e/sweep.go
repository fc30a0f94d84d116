package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"

	"github.com/matex-sim/matex"
)

// sweepCase is the 8-corner sweep of one deck, ready to run and check:
// variant p0hi must match a solo run of a deck with its scales baked into
// the sources, and each lo/hi pair the exact droop ratio.
type sweepCase struct {
	deckPath, variantPath string
	variants              []matex.SweepVariant
	solo                  int   // index of the variant that has a solo reference
	ref                   table // that solo run's waveform
}

// prepareSweep writes the variant file and the baked solo deck next to
// the deck and runs the solo reference.
func prepareSweep(ctx context.Context, e env, dir string, deck *matex.Deck, deckPath string) (*sweepCase, error) {
	sc := &sweepCase{deckPath: deckPath, variantPath: filepath.Join(dir, "v8.json"), solo: 1} // p0hi
	var err error
	if sc.variants, err = sweepVariants(deck.Circuit); err != nil {
		return nil, err
	}
	if err := writeVariants(sc.variantPath, sc.variants); err != nil {
		return nil, err
	}
	bakedPath := filepath.Join(dir, "baked.sp")
	if err := writeDeck(bakedPath, bake(deck, sc.variants[sc.solo])); err != nil {
		return nil, err
	}
	if _, sc.ref, err = runTable(ctx, e, bakedPath); err != nil {
		return nil, fmt.Errorf("solo reference run: %w", err)
	}
	return sc, nil
}

// run is `matex -sweep v8.json -stats deck`, checked.
func (sc *sweepCase) run(ctx context.Context, e env) (cliRun, error) {
	r, err := runCLI(ctx, e.matex(), "-sweep", sc.variantPath, "-stats", sc.deckPath)
	if err != nil {
		return r, err
	}
	return r, checkSweep(r.stdout, sc.variants, sc.solo, sc.ref)
}

// vdd is the generated grids' supply; droop is measured from it.
const vdd = 1.8

// checkSweep checks a sweep table: variant solo against its baked solo
// reference, and for every collinear lo/hi pair (consecutive variants
// sharing a pattern) droop_lo : droop_hi == scale_lo : scale_hi exactly,
// up to the TSV's nine printed digits.
func checkSweep(out []byte, variants []matex.SweepVariant, solo int, ref table) error {
	tabs := make([]table, len(variants))
	for i, v := range variants {
		var err error
		if tabs[i], err = parseTSV(out, 1, v.Name); err != nil {
			return fmt.Errorf("variant %s: %w", v.Name, err)
		}
	}
	if err := checkAgainst(tabs[solo], ref, 1e-6); err != nil {
		return fmt.Errorf("variant %s vs solo run: %w", variants[solo].Name, err)
	}
	for i := 0; i+1 < len(variants); i += 2 {
		lo, hi := tabs[i], tabs[i+1]
		if len(lo.rows) != len(hi.rows) {
			return fmt.Errorf("variants %s/%s: %d vs %d rows", variants[i].Name, variants[i+1].Name, len(lo.rows), len(hi.rows))
		}
		for r := range lo.rows {
			for c := range lo.rows[r] {
				d := (vdd-lo.rows[r][c])*variants[i+1].Scale - (vdd-hi.rows[r][c])*variants[i].Scale
				if !(math.Abs(d) <= 1e-8) {
					return fmt.Errorf("variants %s/%s row %d: droop ratio off by %.3g V", variants[i].Name, variants[i+1].Name, r, d)
				}
			}
		}
	}
	return nil
}
