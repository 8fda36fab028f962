package obs

import (
	"io"
	"slices"
	"sort"
	"sync/atomic"
)

// ringShard is one processor's event buffer. A writer reserves its slot
// with one atomic increment of n, so the count can be sampled live and a
// stray second writer (a duplicated message token recording under its
// original's processor id) gets a slot of its own; slot contents are only
// safe to read once the run has quiesced (e.g. after the workers'
// WaitGroup).
//
// A shard is 128 bytes, a pair of cache lines, which the adjacent-line
// prefetcher moves together, so no two shards' counts share a line or a
// pair, wherever the allocator starts the shard array (TestRingShardLayout).
type ringShard struct {
	buf []Event
	n   atomic.Int64 // total events recorded (monotone; may exceed len(buf))
	_   [96]byte
}

// Ring is a lock-free per-processor ring-buffer recorder: each processor id
// maps to its own shard, so Record is a single bounds check, an atomic
// slot reservation and a slot write — no locks, no allocation, no sharing
// between processors. When a shard fills, the oldest events of that shard
// are overwritten (the newest window survives, which is the part a
// violation witness needs).
//
// A Ring is also the flight recorder: the first Trip notes why the run
// went wrong and freezes the recorder, so the retained window stays the
// moments before the trip however long the run goes on. The owner writes
// it out with Dump once the run has quiesced.
type Ring struct {
	shards []ringShard
	reason atomic.Pointer[string] // the first Trip's reason; nil until then
}

// NewRing returns a recorder with one shard per processor id in [0, procs)
// and capacity perProc events per shard.
func NewRing(procs, perProc int) *Ring {
	if procs < 1 {
		procs = 1
	}
	if perProc < 1 {
		perProc = 1
	}
	r := &Ring{shards: make([]ringShard, procs)}
	for i := range r.shards {
		r.shards[i].buf = make([]Event, perProc)
	}
	return r
}

// Record implements Tracer. Events with out-of-range P are folded onto a
// shard by modulus. A tripped recorder drops the event.
func (r *Ring) Record(ev Event) {
	if r.reason.Load() != nil {
		return
	}
	p := int(ev.P)
	if p < 0 {
		p = -p
	}
	s := &r.shards[p%len(r.shards)]
	n := s.n.Add(1) - 1
	s.buf[n%int64(len(s.buf))] = ev
}

// Trip freezes the recorder under reason — a liveness valve forcing a
// delivery through, a panic, a lincheck violation. The first call wins;
// later calls are no-ops. It is safe while other goroutines record: a
// writer already past the freeze check still lands its one event.
func (r *Ring) Trip(reason string) {
	r.reason.CompareAndSwap(nil, &reason)
}

// Tripped returns the reason of the first Trip, or "" if the recorder has
// not been tripped.
func (r *Ring) Tripped() string {
	if p := r.reason.Load(); p != nil {
		return *p
	}
	return ""
}

// Overwritten returns how many events were lost to ring wraparound.
func (r *Ring) Overwritten() int64 {
	var total int64
	for i := range r.shards {
		n := r.shards[i].n.Load()
		if over := n - int64(len(r.shards[i].buf)); over > 0 {
			total += over
		}
	}
	return total
}

// Events returns the retained events of all shards merged into one slice
// sorted by timestamp (ties broken by shard then recording order, so the
// result is deterministic). It must only be called after the traced run has
// quiesced — concurrent Record calls race with it.
func (r *Ring) Events() []Event {
	type tagged struct {
		ev    Event
		shard int
		seq   int64
	}
	var all []tagged
	for i := range r.shards {
		s := &r.shards[i]
		n := s.n.Load()
		c := int64(len(s.buf))
		start := int64(0)
		if n > c {
			start = n - c
		}
		for seq := start; seq < n; seq++ {
			all = append(all, tagged{ev: s.buf[seq%c], shard: i, seq: seq})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].ev.T != all[j].ev.T {
			return all[i].ev.T < all[j].ev.T
		}
		if all[i].shard != all[j].shard {
			return all[i].shard < all[j].shard
		}
		return all[i].seq < all[j].seq
	})
	out := make([]Event, len(all))
	for i, t := range all {
		out[i] = t.ev
	}
	return out
}

// Dump writes a flight-recorder dump to path: JSONL whatever the
// extension (a dump is an analysis artifact, not a Perfetto view), with
// reason in the meta header and events in span order (timestamp order
// between unstamped events), cut to their causally closed subset so the
// ancestor chains ring wraparound truncated are dropped and the file
// reads as a happens-before story. events is left as it was.
func Dump(path string, meta Meta, reason string, events []Event) error {
	events = slices.Clone(events)
	sort.SliceStable(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.Span != 0 && b.Span != 0 {
			return a.Span < b.Span
		}
		return a.T < b.T
	})
	events, _ = CausalClosure(events)
	meta.Reason = reason
	return createFile(path, func(w io.Writer) error { return WriteJSONL(w, meta, events) })
}
