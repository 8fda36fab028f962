package countnet

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTopologies(t *testing.T) {
	cases := []struct {
		name       string
		mk         func(int) (Topology, error)
		width      int
		depth, inW int
	}{
		{"bitonic", BitonicTopology, 8, 6, 8},
		{"periodic", PeriodicTopology, 8, 9, 8},
		{"tree", TreeTopology, 8, 3, 1},
	}
	for _, c := range cases {
		tp, err := c.mk(c.width)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !tp.Valid() || !tp.Uniform() {
			t.Errorf("%s: valid=%v uniform=%v", c.name, tp.Valid(), tp.Uniform())
		}
		if tp.Depth() != c.depth || tp.Width() != c.width || tp.InWidth() != c.inW {
			t.Errorf("%s: depth=%d width=%d in=%d", c.name, tp.Depth(), tp.Width(), tp.InWidth())
		}
		if tp.Balancers() == 0 {
			t.Errorf("%s: no balancers", c.name)
		}
		if !strings.Contains(tp.String(), "uniform") {
			t.Errorf("%s: String() = %q", c.name, tp.String())
		}
		if !strings.Contains(tp.Dot(c.name), "digraph") {
			t.Errorf("%s: Dot output malformed", c.name)
		}
	}
	for _, w := range []int{0, 1, 3, 12} {
		if _, err := BitonicTopology(w); err == nil {
			t.Errorf("BitonicTopology(%d) accepted", w)
		}
	}
}

func TestZeroTopology(t *testing.T) {
	var tp Topology
	if tp.Valid() {
		t.Error("zero Topology claims valid")
	}
	if _, err := NewCounter(tp); err == nil {
		t.Error("NewCounter accepted zero Topology")
	}
	if _, err := tp.Pad(3); err == nil {
		t.Error("Pad accepted zero Topology")
	}
	if !strings.Contains(tp.String(), "zero") {
		t.Errorf("String() = %q", tp.String())
	}
}

func TestPadDepth(t *testing.T) {
	tp, err := TreeTopology(8) // depth 3
	if err != nil {
		t.Fatal(err)
	}
	padded, err := tp.Pad(4) // k=4: prefix 3*(4-2)=6, depth 3*(4-1)=9
	if err != nil {
		t.Fatal(err)
	}
	if padded.Depth() != 9 {
		t.Errorf("padded depth = %d, want 9", padded.Depth())
	}
	same, err := tp.Pad(2)
	if err != nil {
		t.Fatal(err)
	}
	if same.Depth() != tp.Depth() {
		t.Errorf("Pad(2) changed depth to %d", same.Depth())
	}
}

func TestCounterImplementations(t *testing.T) {
	tp, err := BitonicTopology(4)
	if err != nil {
		t.Fatal(err)
	}
	for name, opts := range map[string][]CounterOption{
		"default-mcs": nil,
		"mutex":       {WithBalancer(Mutex)},
		"atomic":      {WithBalancer(Atomic)},
	} {
		ctr, err := NewCounter(tp, opts...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkCounter(t, name, ctr, 8, 250)
	}
	if _, err := NewCounter(tp, WithBalancer(BalancerImpl(9))); err == nil {
		t.Error("unknown implementation accepted")
	}
}

// TestBalancerImplOutOfRange checks that every constructor taking
// CounterOptions rejects a toggle implementation other than MCS, Mutex
// and Atomic, including an explicit zero, which must not fall back to
// the default, and values that a narrower integer would wrap onto a
// valid kind.
func TestBalancerImplOutOfRange(t *testing.T) {
	tp, err := BitonicTopology(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []int64{0, -1, 4, 42, 259, 1 << 40} {
		opt := WithBalancer(BalancerImpl(v))
		for name, build := range map[string]func() error{
			"NewCounter": func() error { _, err := NewCounter(tp, opt); return err },
			"NewLinearizableCounter": func() error {
				_, err := NewLinearizableCounter(tp, opt)
				return err
			},
			"NewQueue": func() error { _, err := NewQueue[int](tp, 4, opt); return err },
		} {
			if build() == nil {
				t.Errorf("%s accepted BalancerImpl(%d)", name, v)
			}
		}
	}
}

func TestDiffractingTreeCounter(t *testing.T) {
	tp, err := TreeTopology(8)
	if err != nil {
		t.Fatal(err)
	}
	ctr, err := NewCounter(tp, WithDiffraction(4, 3*time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	checkCounter(t, "diffracting-tree", ctr, 8, 250)
}

// checkCounter draws values from several goroutines and verifies the
// permutation property and quiescent step property.
func checkCounter(t *testing.T, name string, ctr *Counter, workers, perWorker int) {
	t.Helper()
	var wg sync.WaitGroup
	results := make([][]int64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			vals := make([]int64, 0, perWorker)
			for i := 0; i < perWorker; i++ {
				vals = append(vals, ctr.Next())
			}
			results[w] = vals
		}(w)
	}
	wg.Wait()
	total := workers * perWorker
	seen := make([]bool, total)
	for _, vals := range results {
		for _, v := range vals {
			if v < 0 || int(v) >= total || seen[v] {
				t.Fatalf("%s: bad or duplicate value %d", name, v)
			}
			seen[v] = true
		}
	}
	counts := ctr.OutputCounts()
	for i := 1; i < len(counts); i++ {
		d := counts[i-1] - counts[i]
		if d < 0 || d > 1 {
			t.Fatalf("%s: counter counts %v violate step property", name, counts)
		}
	}
}

func TestNextAt(t *testing.T) {
	tp, err := BitonicTopology(4)
	if err != nil {
		t.Fatal(err)
	}
	ctr, err := NewCounter(tp)
	if err != nil {
		t.Fatal(err)
	}
	if ctr.InWidth() != 4 {
		t.Fatalf("InWidth = %d", ctr.InWidth())
	}
	for k := 0; k < 8; k++ {
		v, err := ctr.NextAt(k % 4)
		if err != nil {
			t.Fatal(err)
		}
		if v != int64(k) {
			t.Errorf("sequential NextAt %d = %d", k, v)
		}
	}
	// Next enters at the caller's home input, and a lone caller still
	// draws the values in order.
	for k := 8; k < 64; k++ {
		if v := ctr.Next(); v != int64(k) {
			t.Errorf("sequential Next %d = %d", k, v)
		}
	}
	if _, err := ctr.NextAt(-1); err == nil {
		t.Error("NextAt(-1) accepted")
	}
	if _, err := ctr.NextAt(4); err == nil {
		t.Error("NextAt(width) accepted")
	}
}

// TestNextAllocs pins the default (MCS) counter's calls to zero
// allocations: a lone caller finds every toggle idle, so it never draws a
// queue node from the pool, and the instrumented call's hook stays on the
// stack. On bitonic[8] every Next-style call also looks up its home input.
// AllocsPerRun rounds down, so the pool misses -race causes (it drops a
// quarter of the puts) would not show here; TestHomeMissAllocs in
// internal/shm pins a miss to zero allocations.
func TestNextAllocs(t *testing.T) {
	tp, err := TreeTopology(32)
	if err != nil {
		t.Fatal(err)
	}
	ctr, err := NewCounter(tp)
	if err != nil {
		t.Fatal(err)
	}
	b8, err := BitonicTopology(8)
	if err != nil {
		t.Fatal(err)
	}
	ctr8, err := NewCounter(b8)
	if err != nil {
		t.Fatal(err)
	}
	lin8, err := NewLinearizableCounter(b8)
	if err != nil {
		t.Fatal(err)
	}
	q8, err := NewQueue[int](b8, 4)
	if err != nil {
		t.Fatal(err)
	}
	hook := func() {}
	for _, tc := range []struct {
		name string
		call func()
	}{
		{"Next", func() { ctr.Next() }},
		{"NextAt", func() { _, _ = ctr.NextAt(0) }},
		{"NextInstrumented", func() { _, _ = ctr.NextInstrumented(0, hook) }},
		{"bitonic8/Next", func() { ctr8.Next() }},
		{"bitonic8/LinearizableNext", func() { lin8.Next() }},
		{"bitonic8/QueueEnqueueDequeue", func() { q8.Enqueue(1); q8.Dequeue() }},
	} {
		if got := testing.AllocsPerRun(200, tc.call); got != 0 {
			t.Errorf("%s: %v allocs per call, want 0", tc.name, got)
		}
	}
}

func TestMonitor(t *testing.T) {
	tp, err := TreeTopology(4)
	if err != nil {
		t.Fatal(err)
	}
	ctr, err := NewCounter(tp)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMonitor(100)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				m.Observe(ctr.Next)
			}
		}()
	}
	wg.Wait()
	if m.Len() != 100 {
		t.Fatalf("observed %d ops", m.Len())
	}
	rep := m.Report()
	if rep.Total != 100 {
		t.Errorf("report total %d", rep.Total)
	}
	if len(m.Ops()) != 100 {
		t.Errorf("Ops len %d", len(m.Ops()))
	}
}

func TestTimingAlias(t *testing.T) {
	tm := Timing{C1: 100, C2: 200}
	if !tm.Linearizable() {
		t.Error("2*c1 bound not recognized through the alias")
	}
	if AnalyzeOps([]Op{{Start: 0, End: 1, Value: 1}, {Start: 2, End: 3, Value: 0}}).NonLinearizable != 1 {
		t.Error("AnalyzeOps missed an inversion")
	}
}
