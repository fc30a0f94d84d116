package sparse

// Pattern builders shared with the external test package
// (default_order_test.go, which imports pdn and so cannot live in package
// sparse).
var (
	MeshSPD      = meshSPD
	BlockDiagCSC = blockDiagCSC
)
