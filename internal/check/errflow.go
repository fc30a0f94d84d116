package check

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The errflow analyzer forbids discarded errors in the binaries (cmd/...)
// and the HTTP serving tier (internal/serve): expression statements and
// deferred calls whose results include an error, and assignments that bind
// an error result to the blank identifier. Print-family fmt calls and
// writes to in-memory buffers (strings.Builder, bytes.Buffer) are allowed,
// matching errcheck convention. //matex:err-ok(reason) waives one line.
func runErrFlow(pkg *Pkg, ann *annotations, report func(pos token.Pos, analyzer, msg string)) {
	if !errFlowScope(pkg.RelPath) {
		return
	}
	c := &errChecker{pkg: pkg, ann: ann, report: report}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				c.checkBody(fd.Body)
			}
		}
	}
}

func errFlowScope(relPath string) bool {
	return relPath == "internal/serve" || relPath == "cmd" || strings.HasPrefix(relPath, "cmd/")
}

type errChecker struct {
	pkg    *Pkg
	ann    *annotations
	report func(pos token.Pos, analyzer, msg string)
}

// checkBody walks one function body, including nested literals (HTTP
// handlers are often closures).
func (c *errChecker) checkBody(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok {
				c.checkDiscardedCall(call, "")
			}
		case *ast.DeferStmt:
			c.checkDiscardedCall(n.Call, "deferred ")
		case *ast.GoStmt:
			c.checkDiscardedCall(n.Call, "go ")
		case *ast.AssignStmt:
			c.checkBlankAssign(n)
		}
		return true
	})
}

// checkDiscardedCall flags a call statement whose results include an error.
func (c *errChecker) checkDiscardedCall(call *ast.CallExpr, kind string) {
	tv, ok := c.pkg.Info.Types[call]
	if !ok || !resultsIncludeError(tv.Type) {
		return
	}
	if c.allowed(call) || c.ann.lineHas(call.Pos(), dirErrOK) {
		return
	}
	c.report(call.Pos(), "errflow",
		fmt.Sprintf("%scall discards error result of %s", kind, calleeDesc(c.pkg, call)))
}

// checkBlankAssign flags `_ = f()` and `v, _ := f()` forms that blank an
// error-typed result.
func (c *errChecker) checkBlankAssign(as *ast.AssignStmt) {
	// Single call, multiple results: match tuple positions.
	if len(as.Rhs) == 1 {
		if call, ok := as.Rhs[0].(*ast.CallExpr); ok && len(as.Lhs) > 1 {
			tv, ok := c.pkg.Info.Types[call]
			if !ok {
				return
			}
			tuple, ok := tv.Type.(*types.Tuple)
			if !ok || tuple.Len() != len(as.Lhs) {
				return
			}
			for i, lhs := range as.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" && isErrorType(tuple.At(i).Type()) {
					if !c.allowed(call) && !c.ann.lineHas(as.Pos(), dirErrOK) {
						c.report(as.Pos(), "errflow",
							fmt.Sprintf("error result of %s assigned to blank identifier", calleeDesc(c.pkg, call)))
					}
					return
				}
			}
			return
		}
	}
	// Parallel assignment: _ = expr with error type.
	for i, lhs := range as.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name != "_" || i >= len(as.Rhs) {
			continue
		}
		tv, ok := c.pkg.Info.Types[as.Rhs[i]]
		if !ok || !isErrorType(tv.Type) {
			continue
		}
		if call, ok := as.Rhs[i].(*ast.CallExpr); ok && c.allowed(call) {
			continue
		}
		if !c.ann.lineHas(as.Pos(), dirErrOK) {
			c.report(as.Pos(), "errflow", "error value assigned to blank identifier")
		}
	}
}

// allowed reports whether the callee is on the errcheck-style allowlist.
func (c *errChecker) allowed(call *ast.CallExpr) bool {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return false
	}
	fn, ok := c.pkg.Info.Uses[id].(*types.Func)
	if !ok {
		return false
	}
	if pkg := fn.Pkg(); pkg != nil && pkg.Path() == "fmt" {
		if strings.HasPrefix(fn.Name(), "Print") {
			return true // Print/Printf/Println to stdout
		}
		// Fprint* is allowed only when the writer is statically the
		// process console; a file or socket writer keeps its error check.
		if strings.HasPrefix(fn.Name(), "Fprint") && len(call.Args) > 0 {
			if sel, ok := ast.Unparen(call.Args[0]).(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == "os" &&
					(sel.Sel.Name == "Stderr" || sel.Sel.Name == "Stdout") {
					return true
				}
			}
		}
		return false
	}
	switch receiverTypeName(fn) {
	case "strings.Builder", "bytes.Buffer":
		return true // documented to never return a non-nil error
	}
	return false
}

// resultsIncludeError reports whether a call result type contains an error.
func resultsIncludeError(t types.Type) bool {
	switch t := t.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErrorType(t.At(i).Type()) {
				return true
			}
		}
		return false
	default:
		return isErrorType(t)
	}
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// receiverTypeName returns the bare "pkg.Type" of a method receiver, with
// any pointer stripped, or "" for plain functions.
func receiverTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	if named.Obj().Pkg() == nil {
		return named.Obj().Name()
	}
	return named.Obj().Pkg().Name() + "." + named.Obj().Name()
}

// calleeDesc names a call target for diagnostics.
func calleeDesc(pkg *Pkg, call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		if x, ok := fun.X.(*ast.Ident); ok {
			return x.Name + "." + fun.Sel.Name
		}
		return fun.Sel.Name
	}
	return "call"
}
