package mcs

import (
	"runtime"
	"sync"
	"testing"
	"unsafe"
)

func TestMutualExclusion(t *testing.T) {
	var l Lock
	var pool Pool
	const goroutines = 16
	const iters = 2000
	counter := 0
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				n := pool.Get()
				l.Acquire(n)
				counter++ // data race unless the lock works
				l.Release(n)
				pool.Put(n)
			}
		}()
	}
	wg.Wait()
	if counter != goroutines*iters {
		t.Fatalf("counter = %d, want %d", counter, goroutines*iters)
	}
}

// TestIdle checks that Idle reports a lock idle exactly when no one holds
// it and no one waits: not while it is held, not while a waiter is
// queued, and not after a hand-off, only after the last release.
func TestIdle(t *testing.T) {
	var l Lock
	if !l.Idle() {
		t.Fatal("zero lock not idle")
	}
	a, b := new(Node), new(Node)
	l.Acquire(a)
	if l.Idle() {
		t.Fatal("held lock idle")
	}
	acquired := make(chan struct{})
	release := make(chan struct{})
	go func() {
		l.Acquire(b)
		close(acquired)
		<-release
		l.Release(b)
	}()
	for a.next.Load() == nil {
		runtime.Gosched()
	}
	if l.Idle() {
		t.Fatal("lock with a queued waiter idle")
	}
	l.Release(a)
	<-acquired
	if l.Idle() {
		t.Fatal("lock idle after handing off to a waiter")
	}
	close(release)
	for !l.Idle() {
		runtime.Gosched()
	}
	l.Acquire(a)
	if l.Idle() {
		t.Fatal("lock idle after Acquire")
	}
	l.Release(a)
	if !l.Idle() {
		t.Fatal("lock not idle after the last release")
	}
}

func TestUncontendedSequence(t *testing.T) {
	var l Lock
	n := new(Node)
	for i := 0; i < 100; i++ {
		l.Acquire(n)
		l.Release(n)
	}
}

// TestNodeCleanAfterRelease checks the invariant Acquire's two-RMW fast
// path rests on: Release leaves its node's next link nil, both when no
// one queued behind it and when it handed the lock to a successor.
func TestNodeCleanAfterRelease(t *testing.T) {
	var l Lock
	a := new(Node)
	l.Acquire(a)
	l.Release(a)
	if a.next.Load() != nil {
		t.Fatal("next not nil after an uncontended release")
	}

	b := new(Node)
	l.Acquire(a)
	acquired := make(chan struct{})
	go func() {
		l.Acquire(b)
		close(acquired)
	}()
	// Wait until b has linked itself behind a, so Release takes the
	// hand-off branch.
	for a.next.Load() == nil {
		runtime.Gosched()
	}
	l.Release(a)
	<-acquired
	if a.next.Load() != nil {
		t.Fatal("next not nil after a hand-off release")
	}
	l.Release(b)
	if b.next.Load() != nil {
		t.Fatal("successor's next not nil after its uncontended release")
	}
}

// TestOneNodeManyLocks carries one node per goroutine through a chain of
// locks in sequence: a clean node serves any lock as soon as Release
// returns. Each lock guards a plain counter, so a break in mutual
// exclusion shows as a lost update, and as a data race under -race.
func TestOneNodeManyLocks(t *testing.T) {
	const goroutines, locks, iters = 8, 6, 500
	var chain [locks]struct {
		l Lock
		n int
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := new(Node)
			for i := 0; i < iters; i++ {
				for k := range chain {
					chain[k].l.Acquire(n)
					chain[k].n++
					chain[k].l.Release(n)
				}
			}
		}()
	}
	wg.Wait()
	for k := range chain {
		if chain[k].n != goroutines*iters {
			t.Errorf("lock %d guarded %d increments, want %d", k, chain[k].n, goroutines*iters)
		}
	}
}

// TestNodeSize pins a Node to one cache line, so that nodes the allocator
// places side by side never share the line their owners spin on.
func TestNodeSize(t *testing.T) {
	if sz := unsafe.Sizeof(Node{}); sz != 64 {
		t.Fatalf("Node is %d bytes, want 64", sz)
	}
}

func BenchmarkMCSUncontended(b *testing.B) {
	var l Lock
	n := new(Node)
	for i := 0; i < b.N; i++ {
		l.Acquire(n)
		l.Release(n)
	}
}

func BenchmarkMCSContended(b *testing.B) {
	var l Lock
	var pool Pool
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			n := pool.Get()
			l.Acquire(n)
			l.Release(n)
			pool.Put(n)
		}
	})
}
