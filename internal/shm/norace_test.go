//go:build !race

package shm

// raceEnabled is true in test builds with the race detector; see
// race_test.go.
const raceEnabled = false
