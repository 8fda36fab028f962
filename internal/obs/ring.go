package obs

import (
	"sort"
	"sync/atomic"
)

// ringShard is one processor's event buffer. A writer reserves its slot
// with one atomic increment of n, so the count can be sampled live and a
// stray second writer (a duplicated message token recording under its
// original's processor id) gets a slot of its own; slot contents are only
// safe to read once the run has quiesced (e.g. after the workers'
// WaitGroup).
type ringShard struct {
	buf []Event
	n   atomic.Int64 // total events recorded (monotone; may exceed len(buf))
	_   [40]byte     // keep shards off each other's cache lines
}

// Ring is a lock-free per-processor ring-buffer recorder: each processor id
// maps to its own shard, so Record is a single bounds check, an atomic
// slot reservation and a slot write — no locks, no allocation, no sharing
// between processors. When a shard fills, the oldest events of that shard
// are overwritten (the newest window survives, which is the part a
// violation witness needs).
type Ring struct {
	shards []ringShard
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
// shard by modulus.
func (r *Ring) Record(ev Event) {
	p := int(ev.P)
	if p < 0 {
		p = -p
	}
	s := &r.shards[p%len(r.shards)]
	n := s.n.Add(1) - 1
	s.buf[n%int64(len(s.buf))] = ev
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
