//go:build !race

package topo_test

// raceEnabled is true in test builds with the race detector; see
// race_test.go.
const raceEnabled = false
