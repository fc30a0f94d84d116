package sweep

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"github.com/matex-sim/matex/internal/circuit"
	"github.com/matex-sim/matex/internal/waveform"
)

// Variant describes one scenario of the base deck: a rescaling and/or
// re-stimulation of its load (non-supply) sources. Supply terms — the DC
// rail contributions — are never scaled. The zero Variant reproduces the
// base deck exactly.
type Variant struct {
	// Name labels the variant in results, streams and journals. Empty
	// names default to "v<index>"; names must be unique within a sweep.
	Name string `json:"name,omitempty"`
	// Scale multiplies every load source uniformly (a corner factor).
	// Zero means 1.
	Scale float64 `json:"scale,omitempty"`
	// SourceScales multiplies individual load sources by element name, on
	// top of Scale. Unknown names are an error.
	SourceScales map[string]float64 `json:"source_scales,omitempty"`
	// Sigma, when positive, applies a deterministic Monte-Carlo factor
	// uniform in [1-Sigma, 1+Sigma] to every load source, derived from
	// Seed and the source identity (same seed ⇒ same draw, across runs
	// and machines).
	Sigma float64 `json:"sigma,omitempty"`
	// Seed selects the Monte-Carlo draw when Sigma > 0.
	Seed int64 `json:"seed,omitempty"`
	// Overrides replaces the waveform of named load sources — per-user
	// stimulus. Overridden sources keep their (scaled) coefficients and
	// get the new time shape, which may shift the variant's transition
	// spots off the other variants' grids.
	Overrides map[string]Override `json:"overrides,omitempty"`
}

// Override is a JSON-friendly waveform spec for Variant.Overrides.
type Override struct {
	// Type selects the shape: "dc", "pulse" or "pwl".
	Type string `json:"type"`
	// V is the dc value (Type "dc").
	V float64 `json:"v,omitempty"`
	// V1, V2, Delay, Rise, Width, Fall and Period are the pulse
	// parameters (Type "pulse"); Period 0 means single-shot.
	V1     float64 `json:"v1,omitempty"`
	V2     float64 `json:"v2,omitempty"`
	Delay  float64 `json:"delay,omitempty"`
	Rise   float64 `json:"rise,omitempty"`
	Width  float64 `json:"width,omitempty"`
	Fall   float64 `json:"fall,omitempty"`
	Period float64 `json:"period,omitempty"`
	// T and Vals are the PWL breakpoints (Type "pwl").
	T    []float64 `json:"t,omitempty"`
	Vals []float64 `json:"vals,omitempty"`
}

// Label is the name of variant i of a sweep in results, streams and
// journals: its own, or "v<index>".
func (v Variant) Label(i int) string {
	if v.Name != "" {
		return v.Name
	}
	return "v" + strconv.Itoa(i)
}

// wave materializes the override's waveform.
func (o Override) wave() (waveform.Waveform, error) {
	switch strings.ToLower(o.Type) {
	case "dc":
		return waveform.DC(o.V), nil
	case "pulse":
		return &waveform.Pulse{V1: o.V1, V2: o.V2, Delay: o.Delay, Rise: o.Rise, Width: o.Width, Fall: o.Fall, Period: o.Period}, nil
	case "pwl":
		return waveform.NewPWL(o.T, o.Vals)
	}
	return nil, fmt.Errorf("sweep: unknown override waveform type %q", o.Type)
}

// mcFactor is the deterministic Monte-Carlo draw for one source: a
// splitmix64 hash of (seed, source key) mapped uniformly to
// [1-sigma, 1+sigma]. Pure integer hashing keeps draws identical across
// platforms and Go versions.
func mcFactor(seed int64, key string, sigma float64) float64 {
	h := uint64(seed) ^ 0x9e3779b97f4a7c15
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 0x100000001b3
	}
	// splitmix64 finalizer
	h += 0x9e3779b97f4a7c15
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	h ^= h >> 31
	u := float64(h>>11) / float64(1<<53) // [0,1)
	return 1 + sigma*(2*u-1)
}

// sourceKey identifies one input for scale maps and Monte-Carlo draws:
// its element name, or "#<index>" when the deck left it unnamed.
func sourceKey(in circuit.Input, i int) string {
	if in.Name != "" {
		return in.Name
	}
	return "#" + strconv.Itoa(i)
}

// compiled is one variant resolved against a concrete system: the
// per-input load-scale vector and the per-input override waves.
type compiled struct {
	name   string
	scale  []float64           // len(sys.Inputs); 1 for supplies
	supply []bool              // shared supply mask (supplies never scale)
	waves  []waveform.Waveform // nil = keep base wave
	shape  string              // override fingerprint for grouping
}

// compile resolves variants against sys, validating names and waveforms.
func compile(sys *circuit.System, variants []Variant) ([]compiled, error) {
	if len(variants) == 0 {
		return nil, fmt.Errorf("sweep: no variants")
	}
	byName := map[string][]int{} // source key -> input indices (a name may stamp several inputs)
	supply := make([]bool, len(sys.Inputs))
	loads := 0
	for i, in := range sys.Inputs {
		if in.Supply {
			supply[i] = true
			continue
		}
		loads++
		byName[sourceKey(in, i)] = append(byName[sourceKey(in, i)], i)
	}
	if loads == 0 {
		return nil, fmt.Errorf("sweep: deck has no load sources to vary")
	}
	seen := map[string]bool{}
	out := make([]compiled, len(variants))
	for v := range variants {
		va := &variants[v]
		name := va.Label(v)
		if seen[name] {
			return nil, fmt.Errorf("sweep: duplicate variant name %q", name)
		}
		seen[name] = true
		cv := compiled{name: name, scale: make([]float64, len(sys.Inputs)), supply: supply}
		uni := va.Scale
		if uni == 0 {
			uni = 1
		}
		for name := range va.SourceScales {
			if len(byName[name]) == 0 {
				return nil, fmt.Errorf("sweep: variant %q scales unknown source %q", cv.name, name)
			}
		}
		for i, in := range sys.Inputs {
			if in.Supply {
				cv.scale[i] = 1
				continue
			}
			s := uni
			key := sourceKey(in, i)
			if f, ok := va.SourceScales[key]; ok {
				s *= f
			}
			if va.Sigma > 0 {
				s *= mcFactor(va.Seed, key, va.Sigma)
			}
			cv.scale[i] = s
		}
		if len(va.Overrides) > 0 {
			cv.waves = make([]waveform.Waveform, len(sys.Inputs))
			keys := make([]string, 0, len(va.Overrides))
			for name := range va.Overrides {
				keys = append(keys, name)
			}
			sort.Strings(keys)
			var shape strings.Builder
			for _, name := range keys {
				idxs := byName[name]
				if len(idxs) == 0 {
					return nil, fmt.Errorf("sweep: variant %q overrides unknown source %q", cv.name, name)
				}
				w, err := va.Overrides[name].wave()
				if err != nil {
					return nil, fmt.Errorf("sweep: variant %q: %w", cv.name, err)
				}
				for _, i := range idxs {
					cv.waves[i] = w
				}
				fmt.Fprintf(&shape, "%s=%+v;", name, va.Overrides[name])
			}
			cv.shape = shape.String()
		}
		out[v] = cv
	}
	return out, nil
}

// system materializes the variant's MNA system: a shallow copy of the
// base sharing C, G and the name maps, with transformed inputs.
func (cv *compiled) system(base *circuit.System) *circuit.System {
	vs := *base
	vs.Inputs = make([]circuit.Input, len(base.Inputs))
	for i, in := range base.Inputs {
		out := in
		if s := cv.scale[i]; s != 1 {
			coefs := make([]float64, len(in.Coefs))
			for j, c := range in.Coefs {
				coefs[j] = c * s
			}
			out.Coefs = coefs
		}
		if cv.waves != nil && cv.waves[i] != nil {
			out.Wave = cv.waves[i]
		}
		vs.Inputs[i] = out
	}
	return &vs
}

// collinearWith reports whether cv's load response is an exact scalar
// multiple of ref's: identical override shapes and a load-scale vector
// that is bitwise c·ref.scale for some c. The returned c relates cv to
// ref (cv = c · ref).
func (cv *compiled) collinearWith(ref *compiled) (float64, bool) {
	if cv.shape != ref.shape {
		return 0, false
	}
	// Only the load entries participate: supplies never scale, and the
	// sharing machinery treats the supply response separately.
	c := 0.0
	for i := range cv.scale {
		if cv.supply[i] {
			continue
		}
		if ref.scale[i] == cv.scale[i] {
			continue
		}
		if ref.scale[i] == 0 || cv.scale[i] == 0 {
			return 0, false
		}
		r := cv.scale[i] / ref.scale[i]
		if c == 0 {
			c = r
		} else if r != c {
			return 0, false
		}
	}
	if c == 0 {
		return 1, true // identical vectors
	}
	// The ratio must reproduce every entry exactly, or scaled results
	// would not be bitwise faithful to a dedicated integration's inputs.
	for i := range cv.scale {
		if cv.supply[i] {
			continue
		}
		if cv.scale[i] != c*ref.scale[i] {
			return 0, false
		}
	}
	if math.IsInf(c, 0) || math.IsNaN(c) {
		return 0, false
	}
	return c, true
}
