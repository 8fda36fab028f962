package shm

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"countnet/internal/bitonic"
	"countnet/internal/dtree"
	"countnet/internal/shm/backoff"
	"countnet/internal/topo"
)

// batchOps is how many ops one timed batch of a batched row makes.
const batchOps = 256

// timeBatches makes ops while more reports true, timing them in batches of
// batchOps, and returns each full batch's mean time per op in
// nanoseconds; when there was no full batch, the one partial batch's.
func timeBatches(more func() bool, op func()) []float64 {
	var ns []float64
	for {
		t0 := time.Now()
		k := 0
		for k < batchOps && more() {
			op()
			k++
		}
		if k == batchOps || k > 0 && len(ns) == 0 {
			ns = append(ns, float64(time.Since(t0).Nanoseconds())/float64(k))
		}
		if k < batchOps {
			return ns
		}
	}
}

// reportBatches reports the median and the minimum of the batch means ns.
// On a shared host one preempted or disturbed batch moves the b.N mean by
// as much as a walk edit does, and neither of these; the minimum is the
// cost of an undisturbed batch.
func reportBatches(b *testing.B, ns []float64) {
	slices.Sort(ns)
	b.ReportMetric(ns[len(ns)/2], "median-ns/op")
	b.ReportMetric(ns[0], "min-ns/op")
}

// benchParallel makes b.N ops from GOMAXPROCS goroutines, each timing its
// own batches.
func benchParallel(b *testing.B, op func()) {
	var mu sync.Mutex
	var ns []float64
	b.RunParallel(func(pb *testing.PB) {
		mine := timeBatches(pb.Next, op)
		mu.Lock()
		ns = append(ns, mine...)
		mu.Unlock()
	})
	reportBatches(b, ns)
}

// benchNetwork runs one walk per op on n: from GOMAXPROCS goroutines
// under name, all entering at input 0, where cross-core misses on the
// first balancer dominate, and from one goroutine under solo/name, the
// walk's own cost, reported as the median and minimum of timed batches.
func benchNetwork(b *testing.B, name string, n *Network) {
	b.Helper()
	b.Run(name, func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				n.Traverse(0)
			}
		})
	})
	b.Run("solo/"+name, func(b *testing.B) {
		i := 0
		reportBatches(b, timeBatches(func() bool { i++; return i <= b.N }, func() { n.Traverse(0) }))
	})
}

func BenchmarkBitonic8(b *testing.B) {
	g, err := bitonic.New(8)
	if err != nil {
		b.Fatal(err)
	}
	for _, kind := range []Kind{KindAtomic, KindMutex, KindMCS} {
		n, err := Compile(g, Options{Kind: kind})
		if err != nil {
			b.Fatal(err)
		}
		benchNetwork(b, kind.String(), n)
		// The walk Counter.Next makes: each goroutine enters at its own
		// input, so on two Ps the walks share only the last merger and
		// the exit hop.
		b.Run("home/"+kind.String(), func(b *testing.B) {
			benchParallel(b, func() { n.Traverse(n.Home()) })
		})
	}
}

func BenchmarkDTree32(b *testing.B) {
	g, err := dtree.New(32)
	if err != nil {
		b.Fatal(err)
	}
	for _, diffract := range []bool{false, true} {
		n, err := Compile(g, Options{Kind: KindMCS, Diffract: diffract, PrismWindow: 2 * time.Microsecond})
		if err != nil {
			b.Fatal(err)
		}
		name := "toggle"
		if diffract {
			name = "prism"
		}
		benchNetwork(b, name, n)
		if !diffract {
			b.Run("paused/mcs", func(b *testing.B) { benchPaused(b, n) })
		}
	}
}

// benchPaused is the anomaly workload's tail as a go-test row; run it at
// -cpu 2. One goroutine walks n from input 0 through TraverseSpan and
// pauses 1µs after every node, as the paper's Section 5 delayed process
// does, while the benchmark goroutine makes b.N free walks from input 0.
// It reports the free walker's median and p90 ns per walk, each walk timed
// with two monotonic clock reads, as the benchmark driver times a call.
// The free walks start once the paused walker has made one walk, so even a
// 100-walk run overlaps it.
func benchPaused(b *testing.B, n *Network) {
	base := time.Now()
	clock := func() int64 { return int64(time.Since(base)) }
	pause := func(topo.NodeID) { backoff.Pause(time.Microsecond) }
	var stop atomic.Bool
	var wg sync.WaitGroup
	started := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		n.TraverseSpan(0, 0, 0, 0, pause)
		close(started)
		for !stop.Load() {
			n.TraverseSpan(0, 0, 0, 0, pause)
		}
	}()
	<-started
	// hist[d] counts the walks that took d ns, the last bucket every
	// slower one, so memory stays flat at any b.N.
	var hist [4096]int
	b.ResetTimer()
	for range b.N {
		t0 := clock()
		n.Traverse(0)
		hist[min(clock()-t0, int64(len(hist)-1))]++
	}
	b.StopTimer()
	stop.Store(true)
	wg.Wait()
	quantile := func(q float64) float64 {
		k := int(q * float64(b.N))
		for d, c := range hist {
			if k -= c; k < 0 {
				return float64(d)
			}
		}
		return float64(len(hist) - 1)
	}
	b.ReportMetric(quantile(0.5), "median-ns/walk")
	b.ReportMetric(quantile(0.9), "p90-ns/walk")
}

// BenchmarkHome prices Network.Home on bitonic[8], the per-P input lookup
// Counter.Next makes before every walk: a sync.Pool Get and Put. Run it
// at several P counts (-cpu 1,2,8); each goroutine looks up its own P's id
// and times its own batches.
func BenchmarkHome(b *testing.B) {
	g, err := bitonic.New(8)
	if err != nil {
		b.Fatal(err)
	}
	n, err := Compile(g, Options{})
	if err != nil {
		b.Fatal(err)
	}
	benchParallel(b, func() { n.Home() })
}

func BenchmarkBalancers(b *testing.B) {
	for _, kind := range []Kind{KindAtomic, KindMutex, KindMCS} {
		bal, err := NewBalancer(kind, 2)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(kind.String(), func(b *testing.B) {
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					bal.Traverse()
				}
			})
		})
	}
	inner, err := NewBalancer(KindMCS, 2)
	if err != nil {
		b.Fatal(err)
	}
	d, err := NewDiffracting(inner, 8, 2*time.Microsecond)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("diffracting", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				d.Traverse()
			}
		})
	})
}
