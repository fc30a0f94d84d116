package sparse

// Factorization is the interface shared by the direct solvers (LU, LDLT).
// A factorization is computed once at the beginning of a transient run and
// reused for every forward/backward substitution pair.
type Factorization interface {
	// N returns the system dimension.
	N() int
	// Solve computes dst = A⁻¹ b; dst and b may alias. It allocates its
	// workspace, so it is for cold paths; a repeated solve calls SolveWith.
	Solve(dst, b []float64)
	// SolveWith is Solve with a caller-provided workspace of length N,
	// which overlaps neither dst nor b.
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

// FactorKind selects the factorization algorithm.
type FactorKind int

const (
	// FactorAuto uses LDLT when the matrix is numerically symmetric and the
	// factorization succeeds, falling back to LU otherwise.
	FactorAuto FactorKind = iota
	// FactorGPLU always uses Gilbert-Peierls LU with partial pivoting.
	FactorGPLU
	// FactorLDLt always uses LDLᵀ (the matrix must be symmetric definite).
	FactorLDLt
)

// Factor computes a factorization of a with the requested kind and ordering.
func Factor(a *CSC, kind FactorKind, order Ordering) (Factorization, error) {
	switch kind {
	case FactorLDLt:
		return FactorLDLT(a, order)
	case FactorGPLU:
		return FactorLU(a, order, 1.0)
	default:
		if a.IsSymmetric(0) {
			if f, err := FactorLDLT(a, order); err == nil {
				return f, nil
			}
		}
		return FactorLU(a, order, 1.0)
	}
}
