//go:build !matexdebug

package transient

// Release builds: the matexdebug check compiles to an empty function behind
// a false constant. See debug_on.go for the active version.

// debugEnabled reports whether the matexdebug invariant layer is compiled in.
const debugEnabled = false

func debugCheckAhead(_, _ *segInputs) {}
