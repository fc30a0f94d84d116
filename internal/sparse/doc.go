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
// symbolic tier). Cache.Factor and Cache.FactorSum are the one way to get a
// factorization chosen by the matrix: LDL^T when it is symmetric and its
// pivots hold, LU otherwise; FactorLDLT and FactorLU name an engine outright.
// Then come pairs of forward and backward substitutions for every Krylov
// vector or trapezoidal step, one right-hand side per pair (SolveWith),
// with the caller's workspace. The pair's kernels keep independent partial sums in every
// reduction and scale by a stored reciprocal of D; their summation order is
// a fixed function of the factor and the right-hand side, so a solve is
// bitwise repeatable.
package sparse
