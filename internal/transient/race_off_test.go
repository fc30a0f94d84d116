//go:build !race

package transient

// raceEnabled mirrors the race build tag: under the race detector sync.Pool
// drops objects at random, so a MATEX run can start on a cold Krylov
// workspace and its allocation count says nothing about the code.
const raceEnabled = false
