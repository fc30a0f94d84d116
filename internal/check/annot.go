package check

import (
	"go/ast"
	"go/token"
	"strings"
)

// The //matex: directive vocabulary. Function-level directives live in the
// function's doc comment (or on the line directly above an undocumented
// function); line-level waivers sit on the flagged line itself or on the
// line directly above it. Every waiver carries a parenthesized reason so
// the tree records why each finding is intentional.
const (
	dirNoalloc = "noalloc"  // function must stay allocation-free
	dirAllocOK = "alloc-ok" // waive one noalloc finding (grow paths, cold error paths)
	dirErrOK   = "err-ok"   // waive one errflow finding
)

// directive is one parsed //matex: comment.
type directive struct {
	Name   string
	Reason string
	Pos    token.Pos
}

// needsReason reports whether the directive form requires a parenthesized
// reason.
func needsReason(name string) bool {
	switch name {
	case dirAllocOK, dirErrOK:
		return true
	}
	return false
}

func knownDirective(name string) bool {
	switch name {
	case dirNoalloc, dirAllocOK, dirErrOK:
		return true
	}
	return false
}

// annotations holds the parsed directives of one package, indexed for the
// two lookup styles the analyzers need.
type annotations struct {
	fset *token.FileSet
	// byLine maps a file/line pair to the directives covering that line: a
	// directive covers its own line (trailing comment) and the next line
	// (comment-above form).
	byLine map[lineKey][]directive
	// funcDirs maps a function declaration to the directives of its doc
	// comment group.
	funcDirs map[*ast.FuncDecl][]directive
}

type lineKey struct {
	file string
	line int
}

// parseDirective parses one comment line, returning ok=false when it is not
// a //matex: directive. Malformed directives (unknown name, missing reason)
// are reported through the malformed callback.
func parseDirective(text string, pos token.Pos, malformed func(pos token.Pos, msg string)) (directive, bool) {
	rest, ok := strings.CutPrefix(text, "//matex:")
	if !ok {
		return directive{}, false
	}
	rest = strings.TrimSpace(rest)
	name := rest
	reason := ""
	if i := strings.IndexByte(rest, '('); i >= 0 {
		name = rest[:i]
		j := strings.LastIndexByte(rest, ')')
		if j <= i {
			malformed(pos, "unterminated reason in //matex:"+rest)
			return directive{}, false
		}
		reason = strings.TrimSpace(rest[i+1 : j])
	}
	if !knownDirective(name) {
		malformed(pos, "unknown directive //matex:"+name)
		return directive{}, false
	}
	if needsReason(name) && reason == "" {
		malformed(pos, "//matex:"+name+" requires a (reason)")
		return directive{}, false
	}
	return directive{Name: name, Reason: reason, Pos: pos}, true
}

// collectAnnotations parses every //matex: directive in the package. Each
// malformed directive is reported as a finding so typos fail the run
// instead of silently waiving nothing.
func collectAnnotations(pkg *Pkg, report func(pos token.Pos, analyzer, msg string)) *annotations {
	a := &annotations{
		fset:     pkg.Fset,
		byLine:   map[lineKey][]directive{},
		funcDirs: map[*ast.FuncDecl][]directive{},
	}
	malformed := func(pos token.Pos, msg string) { report(pos, "annot", msg) }
	for _, f := range pkg.Files {
		fileName := pkg.Fset.Position(f.Pos()).Filename
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d, ok := parseDirective(c.Text, c.Pos(), malformed)
				if !ok {
					continue
				}
				line := pkg.Fset.Position(c.Pos()).Line
				a.byLine[lineKey{fileName, line}] = append(a.byLine[lineKey{fileName, line}], d)
				a.byLine[lineKey{fileName, line + 1}] = append(a.byLine[lineKey{fileName, line + 1}], d)
			}
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				if d, ok := parseDirective(c.Text, c.Pos(), func(token.Pos, string) {}); ok {
					a.funcDirs[fd] = append(a.funcDirs[fd], d)
				}
			}
		}
	}
	return a
}

// funcHas reports whether the function carries the named directive, either
// in its doc comment or on its opening line.
func (a *annotations) funcHas(fd *ast.FuncDecl, name string) bool {
	for _, d := range a.funcDirs[fd] {
		if d.Name == name {
			return true
		}
	}
	return a.lineHas(fd.Pos(), name)
}

// lineHas reports whether the source line of pos is covered by the named
// directive (trailing comment or comment-above form).
func (a *annotations) lineHas(pos token.Pos, name string) bool {
	p := a.fset.Position(pos)
	for _, d := range a.byLine[lineKey{p.Filename, p.Line}] {
		if d.Name == name {
			return true
		}
	}
	return false
}
