package shm

import (
	"testing"
	"time"

	"countnet/internal/bitonic"
	"countnet/internal/dtree"
)

func benchNetwork(b *testing.B, n *Network) {
	b.Helper()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
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
		b.Run(kind.String(), func(b *testing.B) { benchNetwork(b, n) })
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
		b.Run(name, func(b *testing.B) { benchNetwork(b, n) })
	}
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
