package adaptive

import (
	"fmt"
	"testing"

	"countnet/internal/bitonic"
	"countnet/internal/shm"
	"countnet/internal/topo"
)

// TestPickNetFallbackPadK is the regression test for the padK-accounting
// bug in pickNet's compile-failure fallback: the plain network used to
// be cached under the padded key k, so every later cache hit returned it
// claiming padK = k — the epoch log reported Corollary 3.12 padding that
// did not exist and the controller's repad check believed the epoch
// already padded. The fallback must report padK = 1 on the first
// failure, on every cache hit after it, and in every epoch record — and
// the controller must keep voting to repad, because the padding the
// estimate calls for is genuinely not in place.
func TestPickNetFallbackPadK(t *testing.T) {
	g, err := bitonic.New(4)
	if err != nil {
		t.Fatal(err)
	}
	n, err := shm.Compile(g, shm.Options{Kind: shm.KindMCS})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(n, Options{Linearizable: true, EffWait: 3000})
	if err != nil {
		t.Fatal(err)
	}
	c.Ratio().Observe(1000) // (1000+3000)/1000 = 4: the estimate calls for k = 4

	orig := compilePadded
	defer func() { compilePadded = orig }()
	compiles := 0
	compilePadded = func(g *topo.Graph, opts shm.Options) (*shm.Network, error) {
		compiles++
		return nil, fmt.Errorf("forced compile failure %d", compiles)
	}

	for round := 1; round <= 2; round++ {
		// Round 1 takes the failing compile path; round 2 hits the cache —
		// the call pattern that used to fabricate padK = k.
		if err := c.SwitchTo(ModeNetwork); err != nil {
			t.Fatal(err)
		}
		ep := c.cur.Load()
		if ep.padK != 1 {
			t.Fatalf("round %d: live epoch claims padK = %d for the unpadded fallback", round, ep.padK)
		}
		if st := c.Stats(); st.PadK != 1 {
			t.Fatalf("round %d: Stats.PadK = %d, want 1", round, st.PadK)
		}
		w := window{occ: combineMax, ratio: c.Ratio().Value()}
		if _, m, k, _ := decide(c.pol, hysteresis{}, ep.mode, ep.padK, w); m != ModeNetwork || k != 4 {
			t.Fatalf("round %d: repad check dead: controller votes %v/k=%d over epoch padK = %d", round, m, k, ep.padK)
		}
		for tok := int32(0); tok < 8; tok++ {
			c.Next(int(tok)%4, 0, tok+int32(round)*8, nil)
		}
	}
	if compiles != 1 {
		t.Fatalf("compile attempted %d times, want 1 (fallback not cached)", compiles)
	}
	if err := c.SwitchTo(ModeDirect); err != nil {
		t.Fatal(err)
	}
	for _, e := range c.Epochs() {
		if e.PadK != 1 {
			t.Fatalf("epoch %d (%v) recorded padK = %d with no padded network compiled", e.Epoch, e.Mode, e.PadK)
		}
	}
}

// TestPaddedNetworkKeepsToggleKind checks that a Corollary 3.12 padded
// network compiles with the plain network's toggle kind: a forced padded
// epoch over a KindAtomic network must not fall back to MCS toggles.
func TestPaddedNetworkKeepsToggleKind(t *testing.T) {
	g, err := bitonic.New(4)
	if err != nil {
		t.Fatal(err)
	}
	n, err := shm.Compile(g, shm.Options{Kind: shm.KindAtomic})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(n, Options{Linearizable: true, EffWait: 3000})
	if err != nil {
		t.Fatal(err)
	}
	c.Ratio().Observe(1000) // (1000+3000)/1000 = 4: the estimate calls for k = 4

	orig := compilePadded
	defer func() { compilePadded = orig }()
	var kinds []shm.Kind
	compilePadded = func(g *topo.Graph, opts shm.Options) (*shm.Network, error) {
		kinds = append(kinds, opts.Kind)
		return shm.Compile(g, opts)
	}
	if err := c.SwitchTo(ModeNetwork); err != nil {
		t.Fatal(err)
	}
	if ep := c.cur.Load(); ep.padK != 4 {
		t.Fatalf("forced padded epoch runs padK = %d, want 4", ep.padK)
	}
	if len(kinds) != 1 || kinds[0] != shm.KindAtomic {
		t.Fatalf("padded network compiled with kinds %v, want [%v]", kinds, shm.KindAtomic)
	}
	if got := c.cur.Load().net.Kind(); got != shm.KindAtomic {
		t.Fatalf("padded network reports kind %v, want %v", got, shm.KindAtomic)
	}
}
