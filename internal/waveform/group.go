package waveform

import "fmt"

// BumpFeature identifies the shape of a pulse "bump" (paper Fig. 3): sources
// whose bumps share (t_delay, t_rise, t_fall, t_width, t_period) transition
// at the same local spots, so simulating them together costs no extra Krylov
// subspace generations.
type BumpFeature struct {
	Delay, Rise, Width, Fall, Period float64
}

// FeatureOf extracts the bump feature of a waveform. The second return is
// false for waveforms without a pulse feature (DC, generic PWL); those are
// grouped by their full transition signature instead.
func FeatureOf(w Waveform) (BumpFeature, bool) {
	switch s := w.(type) {
	case *Pulse:
		return BumpFeature{Delay: s.Delay, Rise: s.Rise, Width: s.Width, Fall: s.Fall, Period: s.Period}, true
	default:
		return BumpFeature{}, false
	}
}

// signature builds a grouping key for non-pulse waveforms from their
// transition spots, so that e.g. identical PWL shapes still share a group.
func signature(w Waveform, tstop float64) string {
	spots := LTS(w, tstop)
	return fmt.Sprintf("%v", spots)
}

// Group assigns each waveform to a group of identical transition structure.
// It returns, for each group, the member indices. Deterministic: groups are
// ordered by first appearance.
func Group(ws []Waveform, tstop float64) [][]int {
	type key struct {
		feat BumpFeature
		sig  string
	}
	index := make(map[key]int)
	var groups [][]int
	for i, w := range ws {
		var k key
		if f, ok := FeatureOf(w); ok {
			k = key{feat: f}
		} else {
			k = key{sig: signature(w, tstop)}
		}
		g, ok := index[k]
		if !ok {
			g = len(groups)
			index[k] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}
	return groups
}
