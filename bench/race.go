//go:build race

package main

// raceEnabled is true in builds with the race detector. combine.Funnel's
// represent reads a partner's demand after handing the partner its
// values (combine.go: `off += w.demand` follows the send), by which time
// the partner may have reused its waiter: a data race in the library,
// so race builds skip the funnel row rather than report it as the
// benchmark's own.
const raceEnabled = true
