// Command matexcheck runs the project-invariant static analyzer suite over
// the module: noalloc (//matex:noalloc hot paths stay allocation-free),
// errflow (no discarded errors in cmd/, the HTTP tier and internal/job),
// and docs (the matex facade and internal/sweep document every exported
// symbol). It exits non-zero when any finding survives the //matex: waiver
// annotations.
//
// Usage:
//
//	matexcheck ./...
//	matexcheck ./internal/sparse ./cmd/matex
package main

import (
	"fmt"
	"os"

	"github.com/matex-sim/matex/internal/check"
)

func main() {
	patterns := os.Args[1:]
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	wd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	loader, err := check.NewLoader(wd)
	if err != nil {
		fatal(err)
	}
	pkgs, err := loader.LoadPatterns(patterns)
	if err != nil {
		fatal(err)
	}
	findings := check.RunAll(pkgs)
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "matexcheck: %d finding(s) in %d package(s)\n", len(findings), len(pkgs))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "matexcheck:", err)
	os.Exit(1)
}
