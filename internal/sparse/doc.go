// Package sparse implements the sparse linear algebra substrate used by the
// MATEX transient simulator: compressed sparse column (CSC) matrices, a
// triplet builder, fill-reducing orderings (nested dissection, the default, and
// bucketed minimum degree, its leaf orderer), a left-looking sparse LU
// factorization with partial pivoting (Gilbert-Peierls) for unsymmetric
// stamps, and an LDL^T factorization for symmetric systems split into a
// once-per-pattern symbolic analysis (Symbolic) and an allocation-free
// numeric refactorization. The LDL^T has one numeric engine: L is stored as
// dense supernodal column panels for every pattern, including those whose
// supernodes are mostly single columns.
//
// The package is self-contained (standard library only) and plays the role
// UMFPACK plays in the original MATEX implementation: one symbolic analysis
// per sparsity pattern, one cheap numeric refactorization per matrix (all
// scalar shifts C + γG of a pattern share the analysis through the Cache's
// symbolic tier), then pairs of forward and backward substitutions for
// every Krylov vector or trapezoidal step — one right-hand side at a time
// (SolveWith) or blocked multi-RHS (SolveMulti).
package sparse
