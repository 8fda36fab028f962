// Package hotvetdata seeds hot-path violations for the hotvet golden
// test: blocking calls at several interprocedural depths, devirtualized
// interface dispatch, a coldpath boundary that stops the walk, and
// stdlib calls that must NOT be followed (their source is outside the
// loaded program).
package hotvetdata

import (
	"io"
	"sort"
	"sync"
	"time"
)

type ring struct {
	mu  sync.Mutex
	buf []int
	ch  chan int
}

//countnet:hotpath
func (r *ring) Next() int {
	r.mu.Lock() // want `hot path \(\*ring\)\.Next: blocking sync call \(\*Mutex\)\.Lock \(depth 0\)`
	v := helper(r)
	sort.Ints(r.buf) // cross-module call: not followed, no findings from sort's internals
	control(r)       // coldpath boundary: control's Sleep is not reported
	return v
}

func helper(r *ring) int {
	time.Sleep(time.Nanosecond) // want `hot path \(\*ring\)\.Next: time\.Sleep \(parks the goroutine\) \(depth 1, via helper\)`
	return deep(r)
}

func deep(r *ring) int {
	r.ch <- 1     // want `hot path \(\*ring\)\.Next: channel send \(depth 2, via helper → deep\)`
	return <-r.ch // want `channel receive \(depth 2, via helper → deep\)`
}

//countnet:coldpath
func control(r *ring) {
	time.Sleep(time.Millisecond) // reviewed boundary: no finding
}

type stepper interface{ step() int }

type fast struct{ n int }

func (f *fast) step() int { return f.n } // clean implementation: no findings

type slow struct{ mu sync.Mutex }

func (s *slow) step() int {
	s.mu.Lock()         // want `hot path Run: blocking sync call \(\*Mutex\)\.Lock \(depth 1, via \(\*slow\)\.step\)`
	defer s.mu.Unlock() // want `hot path Run: defer \(schedules work and pins the frame\) \(depth 1, via \(\*slow\)\.step\)`
	return 0
}

//countnet:hotpath
func Run(s stepper) int {
	return s.step() // devirtualized: walked through both *fast and *slow
}

// sink's method names its parameter; the blocking implementation names it
// differently, which must not hide it from devirtualization.
type sink interface{ put(v int) }

type parker struct{}

func (parker) put(n int) {
	time.Sleep(time.Duration(n)) // want `hot path Emit: time\.Sleep \(parks the goroutine\) \(depth 1, via \(parker\)\.put\)`
}

//countnet:hotpath
func Emit(s sink) {
	s.put(1) // devirtualized: parameter names are not part of the signature
}

//countnet:hotpath
func Flush(w io.Writer) {
	w.Write(nil) // want `hot path Flush: interface-method call Writer\.Write on an interface declared outside the program`
}

//countnet:hotpath
func Alloc(n int) *ring {
	m := make(map[int]int) // want `hot path Alloc: make\(map\) \(heap allocation\) \(depth 0\)`
	m[n] = n
	c := make(chan int) // want `make\(chan\) \(heap allocation\)`
	go drain(c)         // want `goroutine spawn`
	buf := make([]int, n)
	_ = buf        // make of a slice is not flagged here; escvet owns the compiler's verdict
	p := new(ring) // want `new \(heap allocation\)`
	_ = &ring{}    // want `address-taken composite literal \(heap allocation\)`
	return p
}

func drain(c chan int) {
	for range c { // only reachable through `go`: the spawned body is off the hot path
	}
}

//countnet:hotpath
func Mix(c chan int) int {
	select { // want `hot path Mix: select statement \(channel rendezvous\) \(depth 0\)`
	case v := <-c:
		return v
	case c <- 1:
	}
	s := 0
	for v := range c { // want `range over channel`
		s += v
	}
	return s
}

//countnet:hotpath
func Park(r *ring) {
	//countnet:allow hotvet -- seeded example of intentional backoff parking
	time.Sleep(time.Microsecond)
}
