//go:build !race

package main

// raceEnabled is true in builds with the race detector; see race.go.
const raceEnabled = false
