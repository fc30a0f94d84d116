// Package check implements matexcheck, the project-invariant static
// analyzer suite: annotation-driven analyzers built on the standard
// library's go/ast, go/parser, and go/types packages (no external analysis
// framework). Three analyzers ship:
//
//   - noalloc: functions annotated //matex:noalloc must not contain
//     allocating constructs (make/new/append, composite and function
//     literals, interface boxing at call sites, fmt/errors calls), with
//     //matex:alloc-ok(reason) line waivers for grow paths and cold error
//     paths. Unannotated same-package callees are verified recursively.
//   - errflow: in cmd/, internal/serve and internal/job, no discarded
//     errors, with //matex:err-ok(reason) waivers.
//   - docs: the module-root facade package and internal/sweep must document
//     every exported symbol (per-spec comments inside type blocks; group
//     comments suffice for const/var enums) and carry a package comment.
//
// Malformed or unknown //matex: directives are themselves findings.
//
// Context threading is not linted: the cancellation tests of internal/dist
// and internal/serve hold every path that fans work out.
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
		runNoalloc(pkg, ann, report)
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
