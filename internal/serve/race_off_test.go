//go:build !race

package serve_test

// raceEnabled mirrors the race build tag: the race detector makes moving one
// 65 MiB record through the JSON codec cost tens of seconds, and a record's
// size is not a property it could say anything about.
const raceEnabled = false
