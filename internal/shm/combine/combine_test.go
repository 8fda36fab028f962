package combine

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"countnet/internal/obs"
	"countnet/internal/shm/prism"
)

// counterTraverse returns a Traverse backed by a shared fetch-and-add,
// the simplest exact counter: values handed out are globally unique and
// gapless, so any funnel bug that duplicates or drops a delivery shows
// up as a broken permutation.
func counterTraverse(next *atomic.Int64) Traverse {
	return func(demand int) []int64 {
		base := next.Add(int64(demand)) - int64(demand)
		vals := make([]int64, demand)
		for i := range vals {
			vals[i] = base + int64(i)
		}
		return vals
	}
}

func TestIdleFastPath(t *testing.T) {
	f := New(Options{Width: 4})
	var next atomic.Int64
	vals := f.Do(3, counterTraverse(&next))
	if len(vals) != 3 {
		t.Fatalf("Do returned %d values for demand 3", len(vals))
	}
	for i, v := range vals {
		if v != int64(i) {
			t.Errorf("vals[%d] = %d", i, v)
		}
	}
	s := f.Stats()
	if s.Tokens != 1 || s.Idle != 1 || s.Pairs != 0 || s.Partners != 0 || s.Timeouts != 0 || s.Solo != 0 {
		t.Errorf("stats after idle token: %+v", s)
	}
}

func TestDoRejectsBadDemand(t *testing.T) {
	f := New(Options{})
	defer func() {
		if recover() == nil {
			t.Fatal("demand 0 accepted")
		}
	}()
	f.Do(0, func(int) []int64 { return nil })
}

func TestRunChecksTraverseContract(t *testing.T) {
	f := New(Options{})
	defer func() {
		if recover() == nil {
			t.Fatal("short traversal accepted")
		}
	}()
	f.Do(2, func(int) []int64 { return []int64{7} })
}

// TestRepresentDelivery drives the delivery half of the protocol
// directly: a representative with demand 2 serving partners of demand 1
// and 2 must hand each partner exactly its share of one combined walk.
func TestRepresentDelivery(t *testing.T) {
	f := New(Options{Width: 4})
	var next atomic.Int64
	w1 := &waiter{V: share{demand: 1}}
	w2 := &waiter{V: share{demand: 2}}

	own := f.represent([]*waiter{w1, w2}, 2, counterTraverse(&next))
	got1, got2 := w1.V.vals, w2.V.vals
	if len(own) != 2 || len(got1) != 1 || len(got2) != 2 {
		t.Fatalf("shares %d/%d/%d for demands 2/1/2", len(own), len(got1), len(got2))
	}
	if cap(got1) != 1 || cap(got2) != 2 {
		t.Errorf("partner shares alias past their demand: caps %d/%d", cap(got1), cap(got2))
	}
	seen := make(map[int64]bool)
	for _, v := range append(append(append([]int64{}, own...), got1...), got2...) {
		if v < 0 || v >= 5 || seen[v] {
			t.Fatalf("value %d outside the combined walk's 0..4", v)
		}
		seen[v] = true
	}
	s := f.Stats()
	if s.Pairs != 1 || s.Partners != 2 {
		t.Errorf("stats after one combined walk with two partners: %+v", s)
	}
}

// TestRepresentBeforeReuse pins the delivery order against waiter reuse:
// a partner may recycle its waiter, and so rewrite its demand, the moment
// its share arrives. The representative must have read the demand
// before that, or it advances past the wrong share (and, under -race,
// the read is a reported data race).
func TestRepresentBeforeReuse(t *testing.T) {
	const partners, demand = 8, 3
	f := New(Options{Width: 4})
	var next atomic.Int64
	ps := make([]*waiter, partners)
	got := make([][]int64, partners)
	var wg sync.WaitGroup
	for i := range ps {
		w := &waiter{V: share{demand: demand}}
		ps[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			// w camps in no slot, so the withdraw at the passed deadline
			// fails at once and Wait polls for the delivery, as it does
			// for a camper whose claim has won.
			var s prism.Slot[share]
			s.Wait(w, time.Time{})
			got[i] = w.V.vals
			w.V.demand = 1 // what the next token to draw w from the pool does
		}()
	}
	own := f.represent(ps, 2, counterTraverse(&next))
	wg.Wait()
	if len(own) != 2 || own[0] != 0 || own[1] != 1 {
		t.Fatalf("representative share %v, want [0 1]", own)
	}
	for i, vals := range got {
		base := int64(2 + demand*i)
		if len(vals) != demand || vals[0] != base || vals[demand-1] != base+demand-1 {
			t.Fatalf("partner %d share %v, want %d..%d", i, vals, base, base+demand-1)
		}
	}
}

// TestConcurrentMultiDemand drives many partners with demand > 1 through
// one funnel over a fast counter, so waiters cycle through the pool while
// representatives are still delivering. Run under -race it checks the
// delivery path shares no unsynchronized waiter state; every run checks
// the values form an exact permutation.
func TestConcurrentMultiDemand(t *testing.T) {
	const goroutines, perG = 16, 300
	f := New(Options{Width: 8, Window: 100 * time.Microsecond})
	var next atomic.Int64
	trav := counterTraverse(&next)
	results := make([][]int64, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < perG; k++ {
				demand := 2 + (g+k)%3
				vals := f.Do(demand, trav)
				if len(vals) != demand {
					t.Errorf("goroutine %d op %d: %d values for demand %d", g, k, len(vals), demand)
					return
				}
				results[g] = append(results[g], vals...)
			}
		}(g)
	}
	wg.Wait()
	total := next.Load()
	seen := make([]bool, total)
	n := 0
	for _, vs := range results {
		for _, v := range vs {
			if v < 0 || v >= total || seen[v] {
				t.Fatalf("value %d duplicated or out of range [0,%d)", v, total)
			}
			seen[v] = true
			n++
		}
	}
	if int64(n) != total {
		t.Fatalf("delivered %d values, counter issued %d", n, total)
	}
}

func TestLiveSpread(t *testing.T) {
	f := New(Options{Width: 8})
	for _, tc := range []struct {
		inflight int64
		want     int
	}{
		{0, 1}, {1, 1}, {spreadPerSlot - 1, 1}, {spreadPerSlot, 1},
		{2 * spreadPerSlot, 2}, {4 * spreadPerSlot, 4},
		{8 * spreadPerSlot, 8}, {100 * spreadPerSlot, 8},
	} {
		f.inflight.Store(tc.inflight)
		if got := f.liveSpread(); got != tc.want {
			t.Errorf("liveSpread(inflight=%d) = %d, want %d", tc.inflight, got, tc.want)
		}
	}
}

func TestHitRate(t *testing.T) {
	if r := (Stats{}).HitRate(); r != 0 {
		t.Errorf("zero-traffic hit rate %f", r)
	}
	if r := (Stats{Tokens: 10, Pairs: 2, Partners: 3}).HitRate(); r != 0.5 {
		t.Errorf("hit rate %f, want 0.5", r)
	}
}

func TestWidthAndDefaults(t *testing.T) {
	if f := New(Options{}); len(f.slots) != DefaultWidth || f.window != DefaultWindow {
		t.Errorf("defaults: width %d window %v", len(f.slots), f.window)
	}
	if f := New(Options{Width: 3, Window: time.Millisecond}); len(f.slots) != 3 || f.window != time.Millisecond {
		t.Errorf("options ignored: width %d window %v", len(f.slots), f.window)
	}
}

func TestMetricsRegistered(t *testing.T) {
	reg := obs.NewRegistry()
	f := New(Options{Width: 2, Metrics: reg})
	var next atomic.Int64
	f.Do(1, counterTraverse(&next))

	var sb strings.Builder
	reg.WriteText(&sb)
	text := sb.String()
	for _, name := range []string{
		"shm_combine_tokens_total",
		"shm_combine_pairs_total",
		"shm_combine_partners_total",
		"shm_combine_timeouts_total",
		"shm_combine_solo_total",
		"shm_combine_idle_total",
		"shm_combine_cas_races_total",
		"shm_combine_pair_wait_ns",
		"shm_combine_hit_rate",
	} {
		if !strings.Contains(text, name) {
			t.Errorf("metric %s not in registry dump", name)
		}
	}
}

// TestConcurrentGapless hammers the funnel from many goroutines with
// mixed demands over a slow shared counter and checks the two load-bearing
// invariants: the delivered values form an exact permutation (no token's
// share is lost, duplicated, or cross-delivered), and every token lands in
// exactly one disposition counter.
func TestConcurrentGapless(t *testing.T) {
	const goroutines, perG = 24, 40
	f := New(Options{Width: 8, Window: 200 * time.Microsecond})
	var next atomic.Int64
	slow := func(demand int) []int64 {
		vals := counterTraverse(&next)(demand)
		time.Sleep(2 * time.Microsecond) // hold walks open so tokens overlap
		return vals
	}

	results := make([][]int64, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < perG; k++ {
				demand := 1 + (g+k)%3
				vals := f.Do(demand, slow)
				if len(vals) != demand {
					t.Errorf("goroutine %d op %d: %d values for demand %d", g, k, len(vals), demand)
					return
				}
				results[g] = append(results[g], vals...)
			}
		}(g)
	}
	wg.Wait()

	total := next.Load()
	seen := make([]bool, total)
	n := 0
	for _, vs := range results {
		for _, v := range vs {
			if v < 0 || v >= total || seen[v] {
				t.Fatalf("value %d duplicated or out of range [0,%d)", v, total)
			}
			seen[v] = true
			n++
		}
	}
	if int64(n) != total {
		t.Fatalf("delivered %d values, counter issued %d", n, total)
	}

	s := f.Stats()
	if s.Tokens != goroutines*perG {
		t.Fatalf("tokens %d, want %d", s.Tokens, goroutines*perG)
	}
	if got := s.Idle + s.Pairs + s.Partners + s.Timeouts + s.Solo; got != s.Tokens {
		t.Errorf("disposition partition broken: idle %d + pairs %d + partners %d + timeouts %d + solo %d = %d != tokens %d",
			s.Idle, s.Pairs, s.Partners, s.Timeouts, s.Solo, got, s.Tokens)
	}
	if r := s.HitRate(); r < 0 || r > 1 {
		t.Errorf("hit rate %f outside [0,1]", r)
	}
}
