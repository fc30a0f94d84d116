// Package waveform models the time-varying sources driving a power
// distribution network: piecewise-linear (PWL) and SPICE-style pulse
// waveforms, the extraction of their transition spots (the paper's LTS —
// points where the input slope changes), the union over all sources (GTS),
// and the grouping of pulse "bump" features used by MATEX to decompose the
// simulation into subtasks (paper Fig. 3).
package waveform

import (
	"fmt"
	"math"
	"sort"
)

// Waveform is a scalar source value as a function of time. Implementations
// must be piecewise linear: between two consecutive transition spots the
// value varies with constant slope, which is what lets the matrix
// exponential integrator take a single step across the whole interval.
type Waveform interface {
	// Value returns the source value at time t.
	Value(t float64) float64
	// Transitions appends to dst the local transition spots in [0, tstop]:
	// the time points where the slope changes (including t=0 if the source
	// starts with a nonzero value or slope discontinuity).
	Transitions(dst []float64, tstop float64) []float64
}

// DC is a constant waveform.
type DC float64

// Value implements Waveform.
func (d DC) Value(t float64) float64 { return float64(d) }

// Transitions implements Waveform; a constant has no transition spots.
func (d DC) Transitions(dst []float64, tstop float64) []float64 { return dst }

// PWL is a piecewise-linear waveform through the given (T[i], V[i]) points.
// Before T[0] the value is V[0]; after T[len-1] it is V[len-1].
type PWL struct {
	T []float64
	V []float64
}

// NewPWL validates and returns a PWL waveform. Times must be strictly
// increasing and the two slices the same non-zero length.
func NewPWL(t, v []float64) (*PWL, error) {
	if len(t) == 0 || len(t) != len(v) {
		return nil, fmt.Errorf("waveform: PWL needs equal non-empty time/value slices, got %d/%d", len(t), len(v))
	}
	for i := 1; i < len(t); i++ {
		if t[i] <= t[i-1] {
			return nil, fmt.Errorf("waveform: PWL times must be strictly increasing at index %d (%g <= %g)", i, t[i], t[i-1])
		}
	}
	return &PWL{T: append([]float64(nil), t...), V: append([]float64(nil), v...)}, nil
}

// Value implements Waveform.
func (w *PWL) Value(t float64) float64 {
	n := len(w.T)
	if t <= w.T[0] {
		return w.V[0]
	}
	if t >= w.T[n-1] {
		return w.V[n-1]
	}
	// Binary search for the segment containing t.
	i := sort.SearchFloat64s(w.T, t)
	// w.T[i-1] < t <= w.T[i]
	t0, t1 := w.T[i-1], w.T[i]
	v0, v1 := w.V[i-1], w.V[i]
	return v0 + (v1-v0)*(t-t0)/(t1-t0)
}

// Transitions implements Waveform.
func (w *PWL) Transitions(dst []float64, tstop float64) []float64 {
	for _, t := range w.T {
		if t >= 0 && t <= tstop {
			dst = append(dst, t)
		}
	}
	return dst
}

// Pulse is a SPICE PULSE(v1 v2 td tr pw tf per) source: from V1 it rises to
// V2 over Rise starting at Delay, holds for Width, falls back over Fall, and
// repeats every Period (if Period > 0).
type Pulse struct {
	V1, V2 float64 // initial and pulsed value
	Delay  float64 // t_delay
	Rise   float64 // t_rise
	Width  float64 // t_width (time at V2)
	Fall   float64 // t_fall
	Period float64 // t_period; <= 0 means single pulse
}

// Validate checks the pulse timing parameters.
func (p *Pulse) Validate() error {
	if p.Rise < 0 || p.Fall < 0 || p.Width < 0 || p.Delay < 0 {
		return fmt.Errorf("waveform: pulse with negative timing: %+v", *p)
	}
	if p.Period > 0 && p.Period < p.Rise+p.Width+p.Fall {
		return fmt.Errorf("waveform: pulse period %g shorter than rise+width+fall %g", p.Period, p.Rise+p.Width+p.Fall)
	}
	return nil
}

// Value implements Waveform.
func (p *Pulse) Value(t float64) float64 {
	if t < p.Delay {
		return p.V1
	}
	tt := t - p.Delay
	if p.Period > 0 {
		tt = math.Mod(tt, p.Period)
	}
	switch {
	case tt < p.Rise:
		if p.Rise == 0 {
			return p.V2
		}
		return p.V1 + (p.V2-p.V1)*tt/p.Rise
	case tt < p.Rise+p.Width:
		return p.V2
	case tt < p.Rise+p.Width+p.Fall:
		if p.Fall == 0 {
			return p.V1
		}
		return p.V2 + (p.V1-p.V2)*(tt-p.Rise-p.Width)/p.Fall
	default:
		return p.V1
	}
}

// Transitions implements Waveform. Each bump contributes its four corners:
// delay, delay+rise, delay+rise+width, delay+rise+width+fall.
func (p *Pulse) Transitions(dst []float64, tstop float64) []float64 {
	start := p.Delay
	for {
		corners := [4]float64{
			start,
			start + p.Rise,
			start + p.Rise + p.Width,
			start + p.Rise + p.Width + p.Fall,
		}
		emitted := false
		for _, c := range corners {
			if c <= tstop {
				dst = append(dst, c)
				emitted = true
			}
		}
		if p.Period <= 0 || !emitted {
			return dst
		}
		start += p.Period
		if start > tstop {
			return dst
		}
	}
}

// ZeroBased subtracts a waveform's value at t=0, producing the zero-state
// transient part used by the MATEX superposition: the DC subtask carries
// u(0), each source-group subtask carries u(t)-u(0).
type ZeroBased struct {
	W Waveform
}

// Value implements Waveform.
func (z ZeroBased) Value(t float64) float64 { return z.W.Value(t) - z.W.Value(0) }

// Transitions implements Waveform.
func (z ZeroBased) Transitions(dst []float64, tstop float64) []float64 {
	return z.W.Transitions(dst, tstop)
}
