package shm

import (
	"sync/atomic"

	"countnet/internal/shm/backoff"
)

// Filter makes a counting network linearizable by waiting, in the spirit of
// the Herlihy-Shavit-Waarts linearizable counting constructions the paper
// contrasts against: a token that received value v from the network holds
// its response until every smaller value has been returned, so responses
// leave in exactly the order 0, 1, 2, ... and the real-time order of
// non-overlapping operations always matches the values.
//
// The guarantee costs what the paper says guaranteed linearizability must
// cost: the waiting serializes responses, so throughput degrades toward a
// sequential bottleneck as concurrency and timing anomalies grow — the
// quantitative version of "low contention linearizable counting needs
// linear depth". See BenchmarkLinearizableFilter. The contention-adaptive
// engine (internal/shm/adaptive) folds the same Turn in as its
// ModeLinear.
type Filter struct {
	net  *Network
	turn Turn
}

// NewFilter wraps net with the waiting filter.
func NewFilter(net *Network) *Filter {
	return &Filter{net: net}
}

// Traverse draws a value and holds it until all smaller values have been
// returned.
func (f *Filter) Traverse(input int) int64 {
	return f.turn.Release(f.net.Traverse(input))
}

// Returned reports how many values have been handed out so far.
func (f *Filter) Returned() int64 { return f.turn.Next() }

// Turn is the Herlihy-Shavit-Waarts wait-then-release gate: values leave
// it in exactly increasing order, starting from the seed (0 for the zero
// Turn). It sits on its own cache line, because every waiter polls it.
type Turn struct {
	next atomic.Int64
	_    [56]byte
}

// Release holds value v until every smaller value since the seed has been
// released, then returns it and opens the gate for v+1. The wait runs the
// shared backoff ladder — spin, then yield, then sleep — so a long-blocked
// token stops burning its core (on a single-CPU host a raw spin would
// steal the quantum from the very token it is waiting on). Release stays
// live as long as every value from the seed up to v is eventually
// released: the holder of the smallest unreleased value never waits.
//
//countnet:hotpath
func (t *Turn) Release(v int64) int64 {
	if t.next.Load() != v {
		var bo backoff.Backoff
		for t.next.Load() != v {
			bo.Wait()
		}
	}
	t.next.Store(v + 1)
	return v
}

// Reseed makes v the next value allowed to leave. It must not race a
// Release: call it only while no value is waiting at the gate.
func (t *Turn) Reseed(v int64) { t.next.Store(v) }

// Next returns the next value allowed to leave.
func (t *Turn) Next() int64 { return t.next.Load() }
