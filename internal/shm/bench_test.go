package shm

import (
	"testing"
	"time"

	"countnet/internal/bitonic"
	"countnet/internal/dtree"
)

// benchNetwork runs one walk per op on n: from GOMAXPROCS goroutines
// under name, where cross-core misses on the shared toggles and counters
// dominate, and from one goroutine under solo/name, the walk's own cost.
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
		for range b.N {
			n.Traverse(0)
		}
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
	}
}

// BenchmarkHome prices Network.Home on bitonic[8], the per-P input lookup
// Counter.Next makes before every walk: a sync.Pool Get and Put. Run it
// at several P counts (-cpu 1,2,8); each goroutine looks up its own P's id.
func BenchmarkHome(b *testing.B) {
	g, err := bitonic.New(8)
	if err != nil {
		b.Fatal(err)
	}
	n, err := Compile(g, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			n.Home()
		}
	})
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
