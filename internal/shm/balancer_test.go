package shm

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"countnet/internal/shm/mcs"
	"countnet/internal/topo"
)

// lockTail reads the last node queued on l. An mcs.Lock is one atomic
// pointer to its tail; the size check in waitQueued guards that layout.
func lockTail(l *mcs.Lock) *mcs.Node {
	return (*atomic.Pointer[mcs.Node])(unsafe.Pointer(l)).Load()
}

// waitQueued spins until a node other than last is the tail of l, that
// is, until one more waiter has joined the queue behind last, and returns
// that waiter's node. It fails at once if returned reports that the
// token it waits for went through without queueing.
func waitQueued(t *testing.T, l *mcs.Lock, last *mcs.Node, returned *atomic.Int64) *mcs.Node {
	t.Helper()
	if unsafe.Sizeof(mcs.Lock{}) != unsafe.Sizeof(atomic.Pointer[mcs.Node]{}) {
		t.Fatal("mcs.Lock is no longer a bare tail pointer; lockTail cannot read it")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if tail := lockTail(l); tail != last {
			return tail
		}
		if returned.Load() != 0 {
			t.Fatal("a token went through while the lock was held")
		}
		if time.Now().After(deadline) {
			t.Fatal("no waiter joined the queue within 10s")
		}
		runtime.Gosched()
	}
}

// TestMCSToggleQueuedNotOvertaken checks that the idle fast path never
// lets a token overtake the queue. The test holds the toggle's lock and
// queues a second token behind it, then a third. Neither may return
// while the lock is held, and once it is released the three tokens take
// ports 0, 1 and 2 in arrival order: the third cannot go through before
// both tokens ahead of it.
func TestMCSToggleQueuedNotOvertaken(t *testing.T) {
	b, err := NewBalancer(KindMCS, 3)
	if err != nil {
		t.Fatal(err)
	}
	holder := new(mcs.Node)
	b.lock.Acquire(holder)
	var second, third atomic.Int64 // port + 1 once the token has returned
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		second.Store(int64(b.Traverse()) + 1)
	}()
	behind := waitQueued(t, &b.lock, holder, &second)
	go func() {
		defer wg.Done()
		third.Store(int64(b.Traverse()) + 1)
	}()
	waitQueued(t, &b.lock, behind, &third)
	if second.Load() != 0 || third.Load() != 0 {
		t.Fatal("a queued token returned while the lock was held")
	}
	first := b.advance()
	b.lock.Release(holder)
	wg.Wait()
	if got := []int64{first, second.Load() - 1, third.Load() - 1}; got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("ports in arrival order = %v, want [0 1 2]", got)
	}
}

// TestMCSToggleMixedPaths drives one MCS toggle through every path at
// once: fast-path and queued Traverse calls, single-token and batched
// walks of a one-balancer network, direct batch routes, and an
// outside holder that keeps taking the lock, which forces the others onto
// the queue and advances the toggle itself. A fast-path token that saw
// the lock idle may swap at any later moment, so one more goroutine makes
// its tokens' one fast-path attempt with no Idle check at all: that is
// the fast path of a token preempted between its check and its swap, and
// it races every holder's swap. Whatever the interleaving, every successful swap
// moves the toggle one place, so at quiescence the per-port counts must
// be exactly round-robin.
func TestMCSToggleMixedPaths(t *testing.T) {
	for _, fanOut := range []int{2, 3, 4} {
		t.Run(fmt.Sprintf("fanOut%d", fanOut), func(t *testing.T) {
			bld := topo.NewBuilder()
			outs := make([]topo.Out, fanOut)
			bld.BalancerN(bld.Inputs(1), outs)
			bld.Terminate(outs)
			g, err := bld.Build()
			if err != nil {
				t.Fatal(err)
			}
			n := compile(t, g, Options{Kind: KindMCS})
			b := n.balancers[g.Balancers()[0]]
			// Counter i sits on port i, so a walk's value v left the
			// balancer on port v mod fanOut.
			ports := make([]atomic.Int64, fanOut)
			stale := func() int {
				if t := b.toggle.Load(); b.toggle.CompareAndSwap(t, b.next(t)) {
					return int(t)
				}
				return b.Traverse()
			}
			fromValues := func(vals ...int64) {
				for _, v := range vals {
					ports[v%int64(fanOut)].Add(1)
				}
			}

			var done atomic.Bool
			var held sync.WaitGroup
			held.Add(1)
			go func() {
				defer held.Done()
				h := new(mcs.Node)
				for !done.Load() {
					b.lock.Acquire(h)
					ports[b.advance()].Add(1)
					runtime.Gosched()
					b.lock.Release(h)
				}
			}()

			const workers, rounds, racing = 4, 300, 5000
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < racing; i++ {
					ports[stale()].Add(1)
				}
			}()
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					local := make([]int, fanOut)
					for r := 0; r < rounds; r++ {
						switch (w + r) % 4 {
						case 0:
							ports[b.Traverse()].Add(1)
						case 1:
							fromValues(n.Traverse(0))
						case 2:
							clear(local)
							b.route(1+r%5, local)
							for p, c := range local {
								ports[p].Add(int64(c))
							}
						case 3:
							fromValues(n.TraverseBatch(0, 1+r%5, int32(w), 0, 0, nil)...)
						}
					}
				}(w)
			}
			wg.Wait()
			done.Store(true)
			held.Wait()

			var total int64
			for p := range ports {
				total += ports[p].Load()
			}
			for p := range ports {
				want := total / int64(fanOut)
				if int64(p) < total%int64(fanOut) {
					want++
				}
				if got := ports[p].Load(); got != want {
					t.Errorf("port %d: %d tokens of %d, want %d", p, got, total, want)
				}
			}
			if got, want := b.toggle.Load(), total%int64(fanOut); got != want {
				t.Errorf("toggle at %d after %d tokens, want %d", got, total, want)
			}
		})
	}
}
