package sparse

// Pattern builders shared with the external test package
// (default_order_test.go and split_test.go, which import pdn and so cannot
// live in package sparse).
var (
	MeshSPD      = meshSPD
	BlockDiagCSC = blockDiagCSC
	RandomSPD    = randomSPD
	StarSPD      = arrowSPD
	ChainSPD     = pathSPD
)

// Split returns the cold fill's halves: supernodes [0, mid) and [mid, hi)
// fill on two goroutines; hi == 0 means one goroutine.
func Split(s *Symbolic) (mid, hi int) { return s.sn.mid, s.sn.hi }

// PanelValues returns the factor's panel storage (not a copy).
func PanelValues(f *LDLT) []float64 { return f.snValues }

// SymbolicFingerprint folds an analysis with FNV-1a: the permutation, the
// elimination tree, the exact pattern of L and the whole supernodal layout
// (column partition, row lists, panel offsets, scatter and update maps).
func SymbolicFingerprint(s *Symbolic) uint64 {
	h := uint64(fnvOffset)
	ints := func(xs []int) {
		h = fnvMix(h, uint64(len(xs)))
		for _, x := range xs {
			h = fnvMix(h, uint64(x))
		}
	}
	int32s := func(xs []int32) {
		h = fnvMix(h, uint64(len(xs)))
		for _, x := range xs {
			h = fnvMix(h, uint64(uint32(x)))
		}
	}
	sn := s.sn
	ints(s.perm)
	int32s(s.parent)
	ints(s.colptr)
	int32s(s.rowidx)
	int32s(sn.ptr)
	ints(sn.rowPtr)
	int32s(sn.rows)
	ints(sn.valPtr)
	ints(sn.aPtr)
	int32s(sn.aSrc)
	int32s(sn.aOff)
	ints(sn.updPtr)
	int32s(sn.updSrc)
	int32s(sn.updOff)
	int32s(sn.updEnd)
	return h
}
