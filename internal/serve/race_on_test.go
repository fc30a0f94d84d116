//go:build race

package serve_test

// See race_off_test.go.
const raceEnabled = true
