// Package transient implements the time-domain integrators compared in the
// MATEX paper, over the MNA systems assembled by package circuit:
//
//   - trapezoidal (TR) with a fixed step and a single up-front
//     factorization (the 2012 TAU power-grid contest framework the paper
//     benchmarks against),
//   - TR with adaptive local-truncation-error stepping, which must
//     re-factorize whenever the step changes,
//   - the MATEX circuit solver (paper Alg. 2): matrix-exponential stepping
//     with standard (MEXP), inverted (I-MATEX) or rational (R-MATEX) Krylov
//     subspaces, adaptive steps between input transition spots, and
//     substitution-free snapshot evaluation by Krylov subspace reuse. One
//     driver, SimulateMatex, serves all three: a mode picks the operator,
//     and a segment's inputs enter by the augmented or the deviation
//     (Eq. 5) treatment, chosen from method, matrices and the pairs each
//     cost the last time it ran, never an option.
//
// Simulate is the single entry point; Method picks the integrator and
// Options carries the grid (Tstop, Step, Tol), probe selection, the shared
// factorization cache and the streaming and checkpoint hooks. A sweep lane
// or a D-MATEX task is one such run; concurrent runs share nothing but the
// cache (see internal/sweep and internal/dist).
//
// Runs are resumable: Options.OnCheckpoint emits a Checkpoint (full state
// vector plus integrator position) every CheckpointEvery accepted steps,
// and Options.Resume restarts a run from one, reproducing the remaining
// samples exactly as the uninterrupted run would have emitted them.
//
// Every solver reports a Stats block with the work counters the paper's
// complexity model (Eqs. 11-12) is built from.
package transient
