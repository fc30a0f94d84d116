// Package faultinject is the deterministic fault-injection harness behind
// the durable job journal's chaos tests (internal/serve): a registry of
// named injection points, with no build tags — a nil *Registry compiles to
// a two-instruction no-op on every hot path, so production binaries pay
// nothing and tests arm exactly the faults they assert on. (Worker failures
// need no injection point: the distributed chaos tests kill, drain and cut
// off real loopback job servers.)
//
// Faults are deterministic: a Plan either fires on an exact check count
// (After/Times) or probabilistically from a seeded PRNG, so a chaos run
// that found a bug replays bit-identically from its seed. Every injected
// failure surfaces as a typed *Error satisfying errors.Is(err, ErrInjected),
// which the suites use to separate "the fault we planted" from a real bug.
package faultinject

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
)

// Point names one injection site. The constants below are the registered
// sites; Points enumerates them so the chaos suite can assert coverage.
type Point string

const (
	// CheckpointWrite fails a durable checkpoint append (torn disk write).
	CheckpointWrite Point = "checkpoint-write"
	// JournalAppend fails a job-journal append (disk full).
	JournalAppend Point = "journal-append"
)

// Points lists every registered injection point. The chaos suite iterates
// it to prove each point has at least one test injecting it.
var Points = []Point{CheckpointWrite, JournalAppend}

// ErrInjected is the sentinel every injected fault matches via errors.Is,
// regardless of which Point produced it.
var ErrInjected = errors.New("faultinject: injected fault")

// Error is the typed error an armed point returns when it fires.
type Error struct {
	// Point is the site that fired.
	Point Point
	// Hit is the 1-based count of this firing at its point.
	Hit int
}

func (e *Error) Error() string {
	return fmt.Sprintf("faultinject: %s (injected fault #%d)", e.Point, e.Hit)
}

// Is makes errors.Is(err, ErrInjected) true for every injected fault.
func (e *Error) Is(target error) bool { return target == ErrInjected }

// IsInjected reports whether err originates from an armed injection point.
func IsInjected(err error) bool { return errors.Is(err, ErrInjected) }

// Plan decides when an armed point fires, counted in Check calls:
//
//   - After skips the first After checks (0 = fire from the first check).
//   - Times bounds how many checks fire after that (0 = every one).
//   - Prob, when in (0,1), gates each otherwise-eligible firing on the
//     registry's seeded PRNG — deterministic for a fixed seed and call
//     sequence.
type Plan struct {
	After int
	Times int
	Prob  float64
}

// rule is an armed plan with its live counters.
type rule struct {
	plan   Plan
	checks int
	fired  int
}

// Registry holds the armed plans and the seeded PRNG. The zero value is
// not used; construct with New. A nil *Registry is valid everywhere and
// never fires — the production configuration.
type Registry struct {
	mu    sync.Mutex
	rng   *rand.Rand
	rules map[Point]*rule
}

// New returns a registry whose probabilistic decisions derive from seed.
func New(seed int64) *Registry {
	return &Registry{
		rng:   rand.New(rand.NewSource(seed)),
		rules: make(map[Point]*rule),
	}
}

// Arm installs (or replaces) the plan for a point, resetting its counters.
func (r *Registry) Arm(p Point, plan Plan) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rules[p] = &rule{plan: plan}
}

// Disarm removes the plan for a point; its fired count is forgotten.
func (r *Registry) Disarm(p Point) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.rules, p)
}

// Check consults the point and returns a typed *Error when it fires, nil
// otherwise. Safe on a nil registry (always nil).
func (r *Registry) Check(p Point) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ru, ok := r.rules[p]
	if !ok {
		return nil
	}
	ru.checks++
	if ru.checks <= ru.plan.After {
		return nil
	}
	if ru.plan.Times > 0 && ru.fired >= ru.plan.Times {
		return nil
	}
	if ru.plan.Prob > 0 && ru.plan.Prob < 1 && r.rng.Float64() >= ru.plan.Prob {
		return nil
	}
	ru.fired++
	return &Error{Point: p, Hit: ru.fired}
}

// Fired returns how many times the point has fired. Safe on nil (0).
func (r *Registry) Fired(p Point) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if ru, ok := r.rules[p]; ok {
		return ru.fired
	}
	return 0
}

// Checks returns how many times the point has been consulted (armed points
// only). Safe on nil (0).
func (r *Registry) Checks(p Point) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if ru, ok := r.rules[p]; ok {
		return ru.checks
	}
	return 0
}
