// Package sweep runs N scenario variants of one power-grid deck as a
// single computation — the serving-layer move that turns the
// engine's within-job reuse into cross-user throughput. A variant is the
// same MNA system with its load sources rescaled (corner factors,
// per-source factors, deterministic Monte-Carlo spreads) or re-stimulated
// (per-user waveform overrides); the grid topology, C, G and the rational
// shift never change. The engine exploits that two ways:
//
//   - One factorization-cache lineage. All variants draw from one
//     sparse.Cache, so the symbolic analysis and every numeric
//     factorization (G, C + γG, ...) is computed once and hit N-1 times,
//     no matter how many variants run. Each integration ("lane") is a
//     solo transient.Simulate on its own goroutine; lanes share the cached
//     factors and nothing else, so they run in parallel on as many cores
//     as there are lanes.
//
//   - Collinear-variant sharing. The MNA system is linear in its inputs,
//     so a variant whose load-scale vector is an exact multiple of
//     another's has an exactly scaled load response: one representative
//     integration (plus one supplies-only integration when the deck has
//     supply terms) serves the whole group, sharing its Lanczos bases and
//     tridiagonal eigendecompositions outright. Exact-duplicate variants
//     are plain copies.
//
// Run is a planner plus a runner: it compiles the variants, plans groups
// and lanes and makes each variant one output, {sup: 1, load: c} or
// {direct: c} over the lanes; the lane executor it shares with
// internal/dist (superpose.Run) runs each lane as a transient.Simulate (or
// Resume) and folds the outputs. The serve package exposes it as the POST
// /sweep job type and cmd/matex as the -sweep flag.
package sweep
