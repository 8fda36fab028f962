//go:build race

package shm

// raceEnabled is true in test builds with the race detector.
const raceEnabled = true
