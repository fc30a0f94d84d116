package transient

import (
	"fmt"
	"os"
	"testing"

	"github.com/matex-sim/matex/internal/krylov"
)

// TestMain fails the package when a run kept its Krylov workspace: a MATEX
// run takes one from krylov.DefaultWorkspaces and must give it back on
// every return, error and cancel paths included, so none is outstanding
// once the tests are done.
func TestMain(m *testing.M) {
	code := m.Run()
	if n := krylov.DefaultWorkspaces.Outstanding(); n != 0 {
		fmt.Fprintf(os.Stderr, "FAIL: %d Krylov workspaces outstanding after the tests\n", n)
		code = 1
	}
	os.Exit(code)
}
