package main

import "time"

// The end-to-end timings are scaled to a reference host speed. On a
// shared virtual machine the host's speed drifts by up to 40% over
// minutes with its other tenants' load, and every timing of a run moves
// with it. So a fixed reference job is timed right next to the measured
// work, and the measured work's time is divided by the reference job's
// slowdown: its time now over its time on the reference host. The
// reference job calls no library code and touches no shared memory, so
// a change to the library moves a scaled metric exactly as it moves the
// raw one.

// refIters is the length of one reference call: dependent integer steps
// that the compiler can neither fold nor vectorize.
const refIters = 200

// refCallNs is the mean time per client of one timed reference call
// with both clients calling, and refSetupNs the time of setupRefCalls
// reference calls on one goroutine: rounded typical times on the
// reference host, a 2-vCPU virtual machine running Go 1.24.
const (
	refCallNs     = 280
	refSetupNs    = 100_000
	setupRefCalls = 500
)

// refRound is how long the clients make reference calls before each
// timed round.
const refRound = 20 * time.Millisecond

// refSink keeps the reference work's result live.
var refSink int64

func refWork(x int64) int64 {
	for i := int64(0); i < refIters; i++ {
		x += i ^ (x >> 3)
	}
	return x
}

// slowdown has both clients make reference calls for refRound and
// returns how much slower than the reference host they ran.
func (d *driver) slowdown() float64 {
	d.round(refRound, func(_, i int) int64 { return refWork(int64(i)) })
	return d.meanNs() / refCallNs
}

// setupSlowdown makes setupRefCalls reference calls on the calling
// goroutine and returns how much slower than the reference host they ran.
func setupSlowdown() float64 {
	t := now()
	x := refSink
	for i := 0; i < setupRefCalls; i++ {
		x = refWork(x)
	}
	refSink = x
	return float64(now()-t) / refSetupNs
}
