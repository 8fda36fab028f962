package main

import (
	"runtime"
	"sync/atomic"
	"time"

	"countnet/internal/lincheck"
)

// clients is the closed-loop client count of every workload and layer
// row. main sets GOMAXPROCS to the same number.
const clients = 2

// slot is one recorded call: its start and end on the run's monotonic
// clock and the value it returned.
type slot struct{ start, end, value int64 }

// opFunc is one call into the layer under test: client c's i-th call of
// the round.
type opFunc func(c, i int) int64

var clock0 = time.Now()

// now reads the monotonic clock in nanoseconds since process start (one
// vDSO read: time.Since on a monotonic Time skips the wall clock).
func now() int64 { return int64(time.Since(clock0)) }

// driver owns the per-client slot logs and the scratch space the
// post-round checks reuse, all allocated and pre-faulted once per run so
// that no timed call shares a harness write with the other client.
type driver struct {
	log    [clients][]slot
	n      [clients]int
	merged []lincheck.Op
	bits   []uint64
	lat    *latHist
}

func newDriver(perClient int) *driver {
	d := &driver{
		merged: make([]lincheck.Op, 0, clients*perClient),
		bits:   make([]uint64, (clients*perClient+63)/64),
		lat:    newLatHist(),
	}
	for c := range d.log {
		s := make([]slot, perClient)
		for i := range s {
			s[i].value = -1 // touch every page before the first timed call
		}
		d.log[c] = s
	}
	return d
}

// round runs op on every client in a closed loop until dur elapses or
// one client's log is full, then stops all of them. Only the calls are
// timed; each client writes its own log and nothing else.
func (d *driver) round(dur time.Duration, op opFunc) {
	runtime.GC() // keep collector work out of the timed calls
	var stop atomic.Bool
	var left atomic.Int32
	left.Store(clients)
	start, done := make(chan struct{}), make(chan struct{})
	for c := 0; c < clients; c++ {
		go func(c int) {
			s := d.log[c]
			<-start
			i := 0
			for ; i < len(s) && !stop.Load(); i++ {
				t0 := now()
				v := op(c, i)
				s[i] = slot{t0, now(), v}
			}
			stop.Store(true)
			d.n[c] = i
			if left.Add(-1) == 0 {
				close(done)
			}
		}(c)
	}
	t := time.NewTimer(dur)
	close(start)
	select {
	case <-t.C:
		stop.Store(true)
		<-done
	case <-done:
		t.Stop()
	}
}

// ops returns the number of calls the last round completed.
func (d *driver) ops() int {
	n := 0
	for _, k := range d.n {
		n += k
	}
	return n
}

// span returns the last round's wall time: first call start to last
// call end, over all clients.
func (d *driver) span() int64 {
	first, last := int64(-1), int64(0)
	for c, s := range d.log {
		if d.n[c] == 0 {
			continue
		}
		if first < 0 || s[0].start < first {
			first = s[0].start
		}
		last = max(last, s[d.n[c]-1].end)
	}
	return max(last-first, 1)
}

// throughput returns the last round's completed calls per second.
func (d *driver) throughput() float64 {
	return float64(d.ops()) / float64(d.span()) * 1e9
}

// meanNs returns the mean time one client spends per call, harness
// included: clients × wall time / calls.
func (d *driver) meanNs() float64 {
	return float64(clients) * float64(d.span()) / float64(max(d.ops(), 1))
}

// latencies fills the latency histogram with the last round's calls of
// the given clients (all when none are named).
func (d *driver) latencies(cs ...int) *latHist {
	if len(cs) == 0 {
		cs = []int{0, 1}
	}
	d.lat.reset()
	for _, c := range cs {
		for _, s := range d.log[c][:d.n[c]] {
			d.lat.add(s.end - s.start)
		}
	}
	return d.lat
}

// gapless checks that the last round's values are exactly the range
// [before, before+ops): it returns how many calls returned a value out
// of range or a duplicate. Every call is counted once, so with no
// failures the values are a permutation of the range.
func (d *driver) gapless(before int64) int {
	n := d.ops()
	words := (n + 63) / 64
	clear(d.bits[:words])
	bad := 0
	for c, s := range d.log {
		for _, op := range s[:d.n[c]] {
			k := op.value - before
			if k < 0 || k >= int64(n) {
				bad++
				continue
			}
			w, b := k/64, uint64(1)<<(k%64)
			if d.bits[w]&b != 0 {
				bad++
			}
			d.bits[w] |= b
		}
	}
	return bad
}

// analyze runs lincheck over the last round and returns its report and
// how long the analysis took. The clients' logs are each in start order
// already, so they are merged rather than concatenated: Analyze's sorts
// then see nearly sorted input.
func (d *driver) analyze() (lincheck.Report, time.Duration) {
	m := d.merged[:0]
	a, b := d.log[0][:d.n[0]], d.log[1][:d.n[1]]
	for len(a) > 0 || len(b) > 0 {
		var s slot
		if len(b) == 0 || (len(a) > 0 && a[0].start <= b[0].start) {
			s, a = a[0], a[1:]
		} else {
			s, b = b[0], b[1:]
		}
		m = append(m, lincheck.Op{Start: s.start, End: s.end, Value: s.value})
	}
	d.merged = m
	t := time.Now()
	r := lincheck.Analyze(m)
	return r, time.Since(t)
}

// mallocs reads the process's cumulative heap allocation count. It stops
// the world, so it is only called between rounds.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}
