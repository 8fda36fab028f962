package queue

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"countnet/internal/bitonic"
	"countnet/internal/shm"
	"countnet/internal/topo"
)

func build(t *testing.T, capacity int) *Queue[int] {
	t.Helper()
	g, err := bitonic.New(8)
	if err != nil {
		t.Fatal(err)
	}
	q, err := New[int](g, capacity, shm.Options{Kind: shm.KindMCS})
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestNewValidation(t *testing.T) {
	g, err := bitonic.New(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New[int](g, 0, shm.Options{}); err == nil {
		t.Error("capacity 0 accepted")
	}
	if _, err := New[int](nil, 4, shm.Options{}); err == nil {
		t.Error("nil graph accepted")
	}
}

func TestSequentialFIFO(t *testing.T) {
	q := build(t, 16)
	if q.Cap() != 16 {
		t.Fatalf("Cap = %d", q.Cap())
	}
	for i := 0; i < 10; i++ {
		q.Enqueue(i)
	}
	for i := 0; i < 10; i++ {
		if v := q.Dequeue(); v != i {
			t.Fatalf("Dequeue = %d, want %d", v, i)
		}
	}
}

func TestWrapAround(t *testing.T) {
	q := build(t, 4)
	for round := 0; round < 10; round++ {
		for i := 0; i < 4; i++ {
			q.Enqueue(round*4 + i)
		}
		for i := 0; i < 4; i++ {
			if v := q.Dequeue(); v != round*4+i {
				t.Fatalf("round %d: Dequeue = %d, want %d", round, v, round*4+i)
			}
		}
	}
}

// TestMPMCExactlyOnce hammers the queue with concurrent producers and
// consumers and checks the fundamental guarantee: every enqueued item is
// dequeued exactly once.
func TestMPMCExactlyOnce(t *testing.T) {
	q := build(t, 64)
	const producers = 8
	const consumers = 8
	const perProducer = 2000
	total := producers * perProducer
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				q.Enqueue(p*perProducer + i)
			}
		}(p)
	}
	got := make([][]int, consumers)
	perConsumer := total / consumers
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			vals := make([]int, 0, perConsumer)
			for i := 0; i < perConsumer; i++ {
				vals = append(vals, q.Dequeue())
			}
			got[c] = vals
		}(c)
	}
	wg.Wait()
	seen := make([]bool, total)
	for _, vals := range got {
		for _, v := range vals {
			if v < 0 || v >= total || seen[v] {
				t.Fatalf("lost or duplicated item %d", v)
			}
			seen[v] = true
		}
	}
}

// TestBlockingEmptyAndFull checks both blocking directions.
func TestBlockingEmptyAndFull(t *testing.T) {
	q := build(t, 2)
	done := make(chan int, 1)
	go func() { done <- q.Dequeue() }()
	// The consumer must block until something arrives.
	time.Sleep(20 * time.Millisecond)
	select {
	case v := <-done:
		t.Fatalf("Dequeue returned %d from an empty queue", v)
	default:
	}
	q.Enqueue(42)
	if v := <-done; v != 42 {
		t.Fatalf("Dequeue = %d", v)
	}

	q.Enqueue(1)
	q.Enqueue(2)
	enqDone := make(chan struct{})
	go func() {
		q.Enqueue(3) // full: must block until a slot frees
		close(enqDone)
	}()
	time.Sleep(20 * time.Millisecond)
	select {
	case <-enqDone:
		t.Fatal("Enqueue returned on a full queue")
	default:
	}
	if v := q.Dequeue(); v != 1 {
		t.Fatalf("Dequeue = %d, want 1", v)
	}
	<-enqDone
	if v := q.Dequeue(); v != 2 {
		t.Fatalf("Dequeue = %d, want 2", v)
	}
	if v := q.Dequeue(); v != 3 {
		t.Fatalf("Dequeue = %d, want 3", v)
	}
}

// parkedInTurn reports whether some goroutine is blocked in the turn
// wait's park, read from a dump of every goroutine's stack.
func parkedInTurn() bool {
	buf := make([]byte, 1<<20)
	return strings.Contains(string(buf[:runtime.Stack(buf, true)]), "(*Turn).park")
}

// TestDequeueParksOnEmpty checks that a Dequeue on an empty queue stops
// polling: once the cell's turn budget is spent it parks in the turn
// wait, and the Enqueue that fills the cell passes the turn to it and
// wakes it.
func TestDequeueParksOnEmpty(t *testing.T) {
	q := build(t, 2)
	done := make(chan int, 1)
	go func() { done <- q.Dequeue() }()
	deadline := time.Now().Add(10 * time.Second)
	for !parkedInTurn() {
		if time.Now().After(deadline) {
			t.Fatal("a Dequeue on an empty queue never parked")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case v := <-done:
		t.Fatalf("Dequeue returned %d from an empty queue", v)
	default:
	}
	q.Enqueue(7)
	select {
	case v := <-done:
		if v != 7 {
			t.Fatalf("Dequeue = %d, want 7", v)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the parked Dequeue was not woken by the Enqueue")
	}
}

// TestQueueOversubscribed runs many more producers and consumers than
// the queue has cells, on one and on two processors. The consumers
// start first, so they block on empty cells, exhaust their yield
// budget and park before the first item arrives. Every item must be
// dequeued exactly once, and the run must finish within a wall-clock
// deadline: a lost wake-up would hang it.
func TestQueueOversubscribed(t *testing.T) {
	const producers, consumers, perProducer = 32, 32, 200
	const total = producers * perProducer
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			q := build(t, 3)
			got := make([][]int, consumers)
			done := make(chan struct{})
			go func() {
				var wg sync.WaitGroup
				for c := 0; c < consumers; c++ {
					wg.Add(1)
					go func(c int) {
						defer wg.Done()
						for i := 0; i < total/consumers; i++ {
							got[c] = append(got[c], q.Dequeue())
						}
					}(c)
				}
				// The consumers find every cell empty and park; the
				// producers' passes must wake them.
				time.Sleep(5 * time.Millisecond)
				for p := 0; p < producers; p++ {
					wg.Add(1)
					go func(p int) {
						defer wg.Done()
						for i := 0; i < perProducer; i++ {
							q.Enqueue(p*perProducer + i)
						}
					}(p)
				}
				wg.Wait()
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(60 * time.Second):
				t.Fatalf("%d items through %d producers and %d consumers did not finish: queue wait stalled", total, producers, consumers)
			}
			seen := make([]bool, total)
			for _, vals := range got {
				for _, v := range vals {
					if v < 0 || v >= total || seen[v] {
						t.Fatalf("item %d duplicated or out of range [0,%d)", v, total)
					}
					seen[v] = true
				}
			}
			for v, ok := range seen {
				if !ok {
					t.Fatalf("item %d lost", v)
				}
			}
		})
	}
}

func TestWorksOnTreeTickets(t *testing.T) {
	// Tree-based tickets with diffraction: same guarantees.
	b := topo.NewBuilder()
	in := b.Inputs(1)
	o0, o1 := b.Balancer12(in[0])
	o00, o01 := b.Balancer12(o0)
	o10, o11 := b.Balancer12(o1)
	b.Terminate([]topo.Out{o00, o10, o01, o11})
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	q, err := New[string](g, 8, shm.Options{Kind: shm.KindMCS, Diffract: true})
	if err != nil {
		t.Fatal(err)
	}
	q.Enqueue("a")
	q.Enqueue("b")
	if v := q.Dequeue(); v != "a" {
		t.Fatalf("Dequeue = %q", v)
	}
	if v := q.Dequeue(); v != "b" {
		t.Fatalf("Dequeue = %q", v)
	}
}

func BenchmarkQueueEnqDeqPairs(b *testing.B) {
	g, err := bitonic.New(8)
	if err != nil {
		b.Fatal(err)
	}
	q, err := New[int](g, 1024, shm.Options{Kind: shm.KindMCS})
	if err != nil {
		b.Fatal(err)
	}
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			q.Enqueue(1)
			q.Dequeue()
		}
	})
}
