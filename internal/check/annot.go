package check

import (
	"go/token"
	"strings"
)

// The //matex: directive vocabulary: one line-level waiver, which sits on
// the flagged line itself or on the line directly above it and carries a
// parenthesized reason so the tree records why each finding is
// intentional.
const dirErrOK = "err-ok" // waive one errflow finding

// directive is one parsed //matex: comment.
type directive struct {
	Name   string
	Reason string
	Pos    token.Pos
}

// annotations holds the parsed directives of one package by line.
type annotations struct {
	fset *token.FileSet
	// byLine maps a file/line pair to the directives covering that line: a
	// directive covers its own line (trailing comment) and the next line
	// (comment-above form).
	byLine map[lineKey][]directive
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
	if name != dirErrOK {
		malformed(pos, "unknown directive //matex:"+name)
		return directive{}, false
	}
	if reason == "" {
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
		fset:   pkg.Fset,
		byLine: map[lineKey][]directive{},
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
	}
	return a
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
