// Package check implements matexcheck, the project-invariant static
// analyzer suite: annotation-driven analyzers built on the standard
// library's go/ast, go/parser, and go/types packages (no external analysis
// framework). Two analyzers ship:
//
//   - errflow: in cmd/, internal/serve and internal/job, no discarded
//     errors, with //matex:err-ok(reason) waivers.
//   - docs: the module-root facade package and internal/sweep must document
//     every exported symbol (per-spec comments inside type blocks; group
//     comments suffice for const/var enums) and carry a package comment.
//
// Malformed or unknown //matex: directives are themselves findings, so a
// directive of a deleted analyzer left in the tree fails the run.
//
// Context threading is not linted: the cancellation tests of internal/dist
// and internal/serve hold every path that fans work out. Nor are
// allocations: the noalloc analyzer trusted every cross-package callee and
// its line waivers, and so vouched for a Krylov spot that allocated ~1,500
// objects, while every allocation it could see, and the one it could not,
// fail internal/transient's TestWarmKernelsAllocateNothing, which counts
// what the warm kernels allocate at run time.
package check

import (
	"fmt"
	"go/token"
	"sort"
)

// Finding is one analyzer diagnostic.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Msg      string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Msg)
}

// RunAll runs every analyzer over the loaded packages and returns the
// findings sorted by position.
func RunAll(pkgs []*Pkg) []Finding {
	var out []Finding
	for _, pkg := range pkgs {
		report := func(pos token.Pos, analyzer, msg string) {
			out = append(out, Finding{Pos: pkg.Fset.Position(pos), Analyzer: analyzer, Msg: msg})
		}
		ann := collectAnnotations(pkg, report)
		runErrFlow(pkg, ann, report)
		runDocs(pkg, report)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return out
}
