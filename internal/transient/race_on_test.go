//go:build race

package transient

// See race_off_test.go.
const raceEnabled = true
