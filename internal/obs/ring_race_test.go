package obs

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestRingOverwrittenUnderContention pins the wraparound accounting while
// writers on every shard race live Len/Overwritten readers: both counters
// are served from the shards' atomically published counts, so sampling
// them mid-run must be race-free (this test is part of the CI race
// matrix) and monotone, and the final figures must be exact.
func TestRingOverwrittenUnderContention(t *testing.T) {
	const procs, perProc, events = 8, 128, 2000
	r := NewRing(procs, perProc)
	var wg sync.WaitGroup
	var writersDone atomic.Bool
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < events; i++ {
				r.Record(Event{T: int64(i), P: int32(p), Tok: int32(i), Kind: KindBalancer})
			}
		}(p)
	}
	// Concurrent observer: Overwritten must never regress while the
	// writers run (each shard's count is monotone and published
	// atomically).
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		lastOver := int64(0)
		for !writersDone.Load() {
			if o := r.Overwritten(); o < lastOver {
				t.Errorf("Overwritten regressed mid-run: %d after %d", o, lastOver)
				return
			} else {
				lastOver = o
			}
		}
	}()
	wg.Wait()
	writersDone.Store(true)
	<-readerDone

	if got, want := r.Overwritten(), int64(procs*(events-perProc)); got != want {
		t.Fatalf("Overwritten = %d, want %d", got, want)
	}
	evs := r.Events()
	if len(evs) != procs*perProc {
		t.Fatalf("Events retained %d, want %d", len(evs), procs*perProc)
	}
	// Every shard must have kept exactly its newest window.
	perShardMin := map[int32]int64{}
	for _, ev := range evs {
		if cur, ok := perShardMin[ev.P]; !ok || ev.T < cur {
			perShardMin[ev.P] = ev.T
		}
	}
	for p, min := range perShardMin {
		if min != events-perProc {
			t.Fatalf("shard %d oldest retained T = %d, want %d (newest window)", p, min, events-perProc)
		}
	}
}

// TestRingFoldedShardsAccounting pins the out-of-range-P folding: tokens
// recorded with negative or oversized processor ids land on a shard by
// modulus and are still counted by Events/Overwritten.
func TestRingFoldedShardsAccounting(t *testing.T) {
	r := NewRing(2, 4)
	for i := 0; i < 6; i++ {
		r.Record(Event{T: int64(i), P: -7}) // folds onto shard 1
	}
	r.Record(Event{T: 100, P: 4}) // folds onto shard 0
	if got := len(r.Events()); got != 5 {
		t.Fatalf("retained %d events, want 5 (4 on shard 1, 1 on shard 0)", got)
	}
	if got := r.Overwritten(); got != 2 {
		t.Fatalf("Overwritten = %d, want 2", got)
	}
}
