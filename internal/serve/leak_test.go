package serve

import (
	"fmt"
	"os"
	"testing"

	"github.com/matex-sim/matex/internal/krylov"
)

// TestMain fails the package when a job kept a Krylov workspace: each
// MATEX run a job makes (a plain run, a distributed task, a sweep lane)
// takes one from krylov.DefaultWorkspaces and must give it back however the
// job ends (done, failed, canceled, shut down), so none is outstanding once
// the tests are done.
func TestMain(m *testing.M) {
	code := m.Run()
	if n := krylov.DefaultWorkspaces.Outstanding(); n != 0 {
		fmt.Fprintf(os.Stderr, "FAIL: %d Krylov workspaces outstanding after the tests\n", n)
		code = 1
	}
	os.Exit(code)
}
