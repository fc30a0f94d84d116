package sparse

// Factorization is the interface shared by the direct solvers (LU, LDLT).
// A factorization is computed once at the beginning of a transient run and
// reused for every forward/backward substitution pair.
type Factorization interface {
	// N returns the system dimension.
	N() int
	// SolveWith computes dst = A⁻¹ b with a caller-provided workspace of
	// length N; dst and b may alias, work overlaps neither.
	SolveWith(dst, b, work []float64)
	// NNZ returns the number of stored factor entries (a fill metric).
	NNZ() int
}

// MultiSolver is implemented by no factorization: every right-hand side is
// one SolveWith. The declaration stays only because the bench/layers
// harness type-asserts it, and with no implementor it times its sequential
// arm; ROADMAP item 7's benchmark PR removes that assertion and deletes
// this interface.
type MultiSolver interface {
	// SolveMulti solves A·X = B for the k = len(dst) right-hand sides.
	SolveMulti(dst, b [][]float64)
}
