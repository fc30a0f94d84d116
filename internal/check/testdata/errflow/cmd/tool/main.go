// Command tool is an errflow-analyzer fixture: a cmd/ binary exercising the
// discarded-error forms the analyzer must flag and the allowlist it must
// honor.
package main

import (
	"fmt"
	"os"
	"strings"
)

func work() error { return nil }

func measure() (int, error) { return 0, nil }

func main() {
	work() // want "call discards error result of work"

	_ = work() // want "error value assigned to blank identifier"

	n, _ := measure() // want "error result of measure assigned to blank identifier"

	defer work() // want "deferred call discards error result of work"

	go work() // want "go call discards error result of work"

	// A dropped fsync: the write may never reach the disk, and only this
	// analyzer notices.
	f, err := os.Create("out")
	if err != nil {
		os.Exit(1)
	}
	f.Sync() // want "call discards error result of f.Sync"

	// Allowlist: console printing never carries a recoverable error.
	fmt.Println("n =", n)
	fmt.Fprintln(os.Stderr, "usage: tool")

	// Allowlist: in-memory builders are documented never to fail.
	var sb strings.Builder
	sb.WriteString("ok")

	// A reasoned waiver silences one line.
	work() //matex:err-ok(fixture: demonstrating the waiver form)

	// Checked errors are the compliant form.
	if err := work(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// handler shows the closure walk: errors inside nested literals still count.
func handler() func() {
	return func() {
		work() // want "call discards error result of work"
	}
}
