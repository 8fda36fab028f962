package shm

import (
	"sync"
	"sync/atomic"

	"countnet/internal/shm/backoff"
	"countnet/internal/topo"
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
// linear depth". See BenchmarkLinearizableFilter. The wait is Turn's: a
// held token polls and yields on the backoff.Spin ladder, then parks
// until the pass of the value below its own wakes it (EXPERIMENTS.md
// E33, E39). The adaptive front (internal/shm/adaptive) serves its
// ModeLinear through a Filter.
//
// Layout: every token reads net and writes turn's first line, so net
// sits a full line before it. At any 8-byte-aligned start no line holds
// both, and the line every waiter polls carries no word a token only
// reads. TestFilterLayout pins this.
type Filter struct {
	net  *Network
	_    [56]byte
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

// TraverseSpan is Traverse as an shm.Front: the walk stamps spans from
// parent and calls afterNode at every node, then the value waits its
// turn. It returns the value and the walk's last span.
//
//countnet:hotpath
func (f *Filter) TraverseSpan(input int, proc, tok int32, parent uint64, afterNode func(id topo.NodeID)) (int64, uint64) {
	v, last := f.net.TraverseSpan(input, proc, tok, parent, afterNode)
	return f.turn.Release(v), last
}

// Returned reports how many values have been handed out so far.
func (f *Filter) Returned() int64 { return f.turn.Next() }

// Turn is the Herlihy-Shavit-Waarts wait-then-release gate: values leave
// it in exactly increasing order, starting from 0. It is the runtime's
// one value-ordered wait: the Filter releases its tokens through one
// Turn, and every cell of the FIFO queue (internal/shm/queue) is a Turn
// that its enqueuers and dequeuers take in alternation. The zero Turn
// is ready to use.
//
// Layout: every waiter polls next and every pass reads parked, so the
// two share a cache line that nothing else writes. The park registry
// sits on the following line, where only a parking waiter and the
// pass that wakes it touch it.
type Turn struct {
	next   atomic.Int64
	parked atomic.Int64 // waiters registered in waiters
	_      [48]byte

	mu      sync.Mutex
	waiters map[int64]chan struct{} // parked waiter for value v, by v
}

// yieldBudget is how many times the turn wait yields on the
// backoff.Spin ladder before it parks until the pass of v-1 wakes it.
const yieldBudget = 64

// Release holds value v until every smaller value has been released,
// then returns it and opens the gate for v+1: Wait, then Pass.
//
//countnet:hotpath
func (t *Turn) Release(v int64) int64 {
	t.Wait(v)
	t.Pass(v)
	return v
}

// Wait blocks until every value below v has passed. A short wait polls
// on the backoff.Spin ladder; a long one parks, and the pass of v-1
// hands the turn straight to it, so a blocked waiter neither burns its
// core nor oversleeps on a timer while later values queue behind it.
// Wait stays live as long as every value from 0 up to v-1 eventually
// passes: the holder of the smallest value not yet passed never waits.
//
//countnet:hotpath
func (t *Turn) Wait(v int64) {
	var s backoff.Spin
	for yields := 0; t.next.Load() != v; {
		if !s.Poll() {
			continue
		}
		if yields++; yields == yieldBudget {
			t.park(v)
			return
		}
	}
}

// Pass opens the gate for v+1, whose turn it is once the holder of v,
// which Wait let through, is done. On the common path the hand-off
// costs one load of parked, on the line the pass has just written.
//
//countnet:hotpath
func (t *Turn) Pass(v int64) {
	t.next.Store(v + 1)
	if t.parked.Load() != 0 {
		t.wake(v + 1)
	}
}

// park blocks until next reaches v. It registers the waiter and counts
// it in parked before it re-reads next, while a pass stores next
// before it reads parked. With sequentially consistent atomics at least
// one side sees the other's write: either the re-read finds the turn
// already passed to v, or the pass of v-1 sees the count and wakes
// the registered waiter. No wake-up is lost.
//
//countnet:coldpath
func (t *Turn) park(v int64) {
	ch := make(chan struct{})
	t.mu.Lock()
	if t.waiters == nil {
		t.waiters = make(map[int64]chan struct{})
	}
	t.waiters[v] = ch
	t.mu.Unlock()
	t.parked.Add(1)
	if t.next.Load() == v {
		// The turn arrived during registration: withdraw. A wake that
		// raced this may have removed the entry already and closed a
		// channel that no one receives from.
		t.mu.Lock()
		delete(t.waiters, v)
		t.mu.Unlock()
	} else {
		<-ch // wake removed the entry
	}
	t.parked.Add(-1)
}

// wake hands the turn to the waiter parked on v, if there is one.
//
//countnet:coldpath
func (t *Turn) wake(v int64) {
	t.mu.Lock()
	if ch, ok := t.waiters[v]; ok {
		delete(t.waiters, v)
		close(ch)
	}
	t.mu.Unlock()
}

// Next returns the next value allowed to leave.
func (t *Turn) Next() int64 { return t.next.Load() }
