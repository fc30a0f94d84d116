package matex

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"path/filepath"
	"testing"
)

// TestExportedSymbolsAreDocumented holds the public surface — this facade
// and internal/sweep, whose Variant JSON schema is user-facing — to godoc
// coverage, over the files a default build compiles:
//
//   - every exported function, and every exported method on an exported
//     receiver type, has a doc comment;
//   - every exported type spec has its own, even inside a parenthesized
//     type block: the facade's alias blocks are the package's reference
//     documentation, so a group comment does not cover their members;
//   - an exported const or var is covered by its own comment or by its
//     group's (the enum idiom);
//   - each package has a package comment.
func TestExportedSymbolsAreDocumented(t *testing.T) {
	for _, dir := range []string{".", "internal/sweep"} {
		bp, err := build.ImportDir(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		fset := token.NewFileSet()
		undocumented := func(pos token.Pos, what string) {
			t.Errorf("%s: exported %s has no doc comment", fset.Position(pos), what)
		}
		pkgDoc := false
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			pkgDoc = pkgDoc || f.Doc != nil
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Doc == nil && exportedFunc(d) {
						undocumented(d.Pos(), d.Name.Name)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() && s.Doc == nil && (d.Lparen.IsValid() || d.Doc == nil) {
								undocumented(s.Pos(), "type "+s.Name.Name)
							}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if n.IsExported() && s.Doc == nil && d.Doc == nil {
									undocumented(n.Pos(), d.Tok.String()+" "+n.Name)
								}
							}
						}
					}
				}
			}
		}
		if !pkgDoc {
			t.Errorf("package %s (%s) has no package comment", bp.Name, dir)
		}
	}
}

// exportedFunc reports whether d is an exported function or an exported
// method on an exported receiver type.
func exportedFunc(d *ast.FuncDecl) bool {
	if !d.Name.IsExported() {
		return false
	}
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	recv := d.Recv.List[0].Type
	if star, ok := recv.(*ast.StarExpr); ok {
		recv = star.X
	}
	switch r := recv.(type) {
	case *ast.IndexExpr:
		recv = r.X
	case *ast.IndexListExpr:
		recv = r.X
	}
	id, ok := recv.(*ast.Ident)
	return !ok || id.IsExported()
}
