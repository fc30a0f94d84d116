// Package krylov implements the matrix-exponential kernels of MATEX: the
// Arnoldi process over three operator families —
//
//   - standard   K_m(A, v) with A = -C⁻¹G           (MEXP, Weng et al.)
//   - inverted   K_m(A⁻¹, v) with A⁻¹ = -G⁻¹C        (I-MATEX)
//   - rational   K_m((I-γA)⁻¹, v) via (C+γG)⁻¹C      (R-MATEX)
//
// — the conversion of the projected Hessenberg matrix back to an
// approximation of A, posterior error estimates (paper Eqs. 7, 8, 10 and the
// regularization-free variant of Sec. 3.3.3), and the evaluation
// x ≈ ‖v‖·V_m·e^{hH_m}·e₁ with subspace reuse across time steps.
//
// The Op type (operator.go) hides the family behind a single
// apply-one-solve interface backed by a sparse.Factorization, so the two
// Krylov processes — Arnoldi (arnoldi.go) and the symmetric Lanczos fast
// path (lanczos.go; Method selects between them) — are family-agnostic.
// Each keeps only its recurrence and projection; one convergence protocol
// (protocol.go, generate) drives both: the check schedule, the
// successive-difference guard, best-dimension tracking, the exhausted-basis
// residual check, the ForceDim exit, the best-effort return and the
// zero-vector dummy.
// The process-wide workspace pool (workspace.go, DefaultWorkspaces)
// amortizes the V_m panel, the Hessenberg storage and the small dense
// scratch (expm, LU, inverse) across steps and across concurrent runs; a
// warm spot allocates nothing on either process, which
// internal/transient's TestWarmKernelsAllocateNothing holds at run time.
//
// A Subspace survives its generating step: EvalExp re-evaluates e^{hH} on
// the same basis for any h within the validated radius, which is what
// makes MATEX's substitution-free snapshots (and the distributed GTS grid
// of internal/dist) cheap.
package krylov
