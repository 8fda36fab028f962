//go:build race

package countnet

// raceEnabled is true in test builds with the race detector.
const raceEnabled = true
