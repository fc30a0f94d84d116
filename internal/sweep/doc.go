// Package sweep runs N scenario variants of one power-grid deck as a
// single batched computation — the serving-layer move that turns the
// engine's within-job reuse into cross-user throughput. A variant is the
// same MNA system with its load sources rescaled (corner factors,
// per-source factors, deterministic Monte-Carlo spreads) or re-stimulated
// (per-user waveform overrides); the grid topology, C, G and the rational
// shift never change. The engine exploits that three ways:
//
//   - One factorization-cache lineage. All variants draw from one
//     sparse.Cache, so the symbolic analysis and every numeric
//     factorization (G, C + γG, ...) is computed once and hit N-1 times,
//     no matter how many variants run.
//
//   - Cross-variant solve panels. Each simulated variant runs on its own
//     goroutine ("lane") joined to a sparse.PanelBroker; every triangular
//     solve inside its Krylov basis builds parks at the broker's barrier
//     and executes together with the other lanes' solves as one blocked
//     multi-RHS SolveMulti panel. Lanes whose adaptive step grids diverge
//     still batch (rounds form from concurrent pendency, not matching
//     simulation times), and a lane that finishes or fails leaves the
//     barrier, narrowing panels instead of stalling them.
//
//   - Collinear-variant sharing. The MNA system is linear in its inputs,
//     so a variant whose load-scale vector is an exact multiple of
//     another's has an exactly scaled load response: one representative
//     integration (plus one supplies-only integration when the deck has
//     supply terms) serves the whole group, sharing its Lanczos bases and
//     tridiagonal eigendecompositions outright. Exact-duplicate variants
//     are plain copies.
//
// Run is the entry point: compile the variants, plan groups and lanes, run
// the lanes through the fan-out and fold them with the combiner this
// package shares with internal/dist (internal/superpose) — {sup: 1,
// load: c} or {direct: c} per variant. The serve package exposes it as the
// POST /sweep job type and cmd/matex as the -sweep flag.
package sweep
