package adaptive_test

import (
	"sync"
	"testing"

	"countnet/internal/bitonic"
	"countnet/internal/shm"
	"countnet/internal/shm/adaptive"
)

// FuzzAdaptiveSwitch fuzzes the epoch protocol with randomized arrival
// bursts interleaved with forced mode flips: each input byte is either a
// concurrent burst of 1..8 tokens or a forced drain-then-switch into a
// fuzzer-chosen mode.
//
// Every switch is checked against the abstraction function that maps the
// concrete state to the abstract counter: a token's value is
// epoch.base + raw - epoch.strt, so after n tokens the values issued so
// far are exactly {0..n-1}, the closed epochs' Tokens sum to n (the next
// epoch's base), and Stats().Tokens — the same map applied to the live
// epoch's backend — reads n. A final forced switch closes the run.
//
// Byte encoding: b < 0x80 issues a burst of (b&7)+1 tokens from distinct
// goroutines; b >= 0x80 forces SwitchTo(b mod 2) — the two-mode
// alphabet covers ModeDirect, ModeLinear and its per-epoch turn reseed,
// and each mode rolling into itself. Inputs are capped at 48 actions to
// bound each case's goroutine count.
func FuzzAdaptiveSwitch(f *testing.F) {
	f.Add([]byte{0x07, 0x80, 0x07, 0x81, 0x07, 0x82, 0x07, 0x83, 0x07})
	f.Add([]byte{0x00, 0x82, 0x00, 0x80, 0x00})
	f.Add([]byte{0x81, 0x81, 0x81, 0x07, 0x07})
	f.Add([]byte{0x07, 0x07, 0x07, 0x07, 0x07, 0x07})
	f.Add([]byte{0x83, 0x07, 0x83, 0x07, 0x82, 0x07, 0x83, 0x07})
	f.Add([]byte{0x83, 0x83, 0x83, 0x07, 0x80, 0x07, 0x83, 0x07})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		if len(data) > 48 {
			data = data[:48]
		}
		const width = 4
		g, err := bitonic.New(width)
		if err != nil {
			t.Fatal(err)
		}
		n, err := shm.Compile(g, shm.Options{Kind: shm.KindMCS})
		if err != nil {
			t.Fatal(err)
		}
		c, err := adaptive.New(n, adaptive.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var vals []int64
		// switchTo forces a drain-then-switch and checks the abstraction
		// function at the boundary it creates.
		switchTo := func(m adaptive.Mode) {
			if err := c.SwitchTo(m); err != nil {
				t.Fatal(err)
			}
			n := int64(len(vals))
			var sum int64
			for _, e := range c.Epochs() {
				if e.Tokens < 0 {
					t.Fatalf("epoch %d issued %d tokens", e.Epoch, e.Tokens)
				}
				sum += e.Tokens
			}
			if sum != n {
				t.Fatalf("switch to %v: epoch log accounts for %d of %d tokens: %+v", m, sum, n, c.Epochs())
			}
			if st := c.Stats(); st.Tokens != n {
				t.Fatalf("switch to %v: Stats.Tokens = %d after %d tokens", m, st.Tokens, n)
			}
			seen := make([]bool, n)
			for _, v := range vals {
				if v < 0 || v >= n || seen[v] {
					t.Fatalf("switch to %v: value %d duplicated or out of range [0,%d)", m, v, n)
				}
				seen[v] = true
			}
		}
		for _, b := range data {
			if b >= 0x80 {
				switchTo(adaptive.Mode(b % 2))
				continue
			}
			burst := int(b&7) + 1
			out := make([]int64, burst)
			var wg sync.WaitGroup
			for i := 0; i < burst; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					tok := int32(len(vals) + i)
					out[i] = c.Next(int(tok)%width, int32(i), tok, nil)
				}(i)
			}
			wg.Wait()
			vals = append(vals, out...)
		}
		switchTo(c.Mode())
	})
}
