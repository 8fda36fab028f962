package combine

import (
	"testing"
	"time"
)

// FuzzCombineExchange drives the slot pairing protocol — camp, claim,
// withdraw and wait on the funnel's prism.Slot cells, represent, and
// the idle Do path — through arbitrary single-threaded interleavings
// decoded from the fuzz input, modelling the schedules a representative
// and its campers can produce (arrive, pair, time out, cancel). The
// model counter is a plain fetch-and-add, so the checked invariants are
// exact:
//
//   - a claim returns only a waiter that camped and was not withdrawn
//   - a withdraw succeeds iff no claim got there first
//   - every delivered share has exactly the waiter's demand
//   - the union of all deliveries is a gapless permutation of the
//     counter's output
//   - all slots are empty at quiescence
//
// Each input byte is one protocol step: the low two bits select the
// operation (claim-and-represent, camp, withdraw, full Do call) and the
// high bits its operand (slot or waiter index, demand).
func FuzzCombineExchange(f *testing.F) {
	f.Add([]byte{0x01, 0x00})                         // camp slot 0, claim it
	f.Add([]byte{0x01, 0x02})                         // camp slot 0, withdraw it
	f.Add([]byte{0x01, 0x05, 0x04, 0x00, 0x03})       // camp 0 and 1, claim both, idle Do
	f.Add([]byte{0x03, 0x07, 0x0b})                   // idle Do calls only
	f.Add([]byte{0x01, 0x05, 0x09, 0x0d, 0x02, 0x00}) // fill slots, withdraw, claim
	f.Add([]byte{0x00, 0x02, 0x01, 0x01})             // claim/withdraw on empty slots first

	f.Fuzz(func(t *testing.T, data []byte) {
		fz := New(Options{Width: 4, Window: time.Millisecond})
		var next int64
		trav := func(demand int) []int64 {
			vals := make([]int64, demand)
			for i := range vals {
				vals[i] = next + int64(i)
			}
			next += int64(demand)
			return vals
		}

		type camped struct {
			slot int
			w    *waiter
		}
		var camps []camped
		var got []int64
		forget := func(w *waiter) {
			for i, c := range camps {
				if c.w == w {
					camps = append(camps[:i], camps[i+1:]...)
					return
				}
			}
			t.Fatal("claimed a waiter that never camped or was already withdrawn")
		}

		for _, b := range data {
			op, arg := int(b&3), int(b>>2)
			switch op {
			case 0: // a colliding token claims at a slot and represents
				s := &fz.slots[arg%fz.Width()]
				if w := s.Peek(); w != nil && s.Claim(w) {
					forget(w)
					got = append(got, fz.represent([]*waiter{w}, 1+arg%2, trav)...)
					// The claimed camper's window is over: its withdraw
					// fails and it takes the delivery.
					if !s.Wait(w, time.Time{}) {
						t.Fatal("claimed camper withdrew")
					}
					if len(w.V.vals) != w.V.demand {
						t.Fatalf("partner got %d values for demand %d", len(w.V.vals), w.V.demand)
					}
					got = append(got, w.V.vals...)
				}
			case 1: // a new token camps
				w := &waiter{V: share{demand: 1 + arg%3}}
				if fz.slots[arg%fz.Width()].Camp(w) {
					camps = append(camps, camped{arg % fz.Width(), w})
				}
			case 2: // a camped token's window expires: withdraw, traverse alone
				if len(camps) == 0 {
					continue
				}
				c := camps[arg%len(camps)]
				if !fz.slots[c.slot].Withdraw(c.w) {
					// Single-threaded: only case 0 claims, and it forgets the
					// waiter, so a tracked camper must still be withdrawable.
					t.Fatal("withdraw failed for an unclaimed camper")
				}
				forget(c.w)
				got = append(got, fz.run(trav, c.w.V.demand)...)
			case 3: // a full Do call; alone in the funnel it takes the idle path
				got = append(got, fz.Do(1+arg%2, trav)...)
			}
		}
		// Quiesce: every still-camped token times out and walks alone.
		for len(camps) > 0 {
			c := camps[0]
			if !fz.slots[c.slot].Withdraw(c.w) {
				t.Fatal("withdraw failed during drain")
			}
			forget(c.w)
			got = append(got, fz.run(trav, c.w.V.demand)...)
		}

		if int64(len(got)) != next {
			t.Fatalf("delivered %d values, counter issued %d", len(got), next)
		}
		seen := make([]bool, next)
		for _, v := range got {
			if v < 0 || v >= next || seen[v] {
				t.Fatalf("value %d duplicated or out of range [0,%d)", v, next)
			}
			seen[v] = true
		}
		for i := range fz.slots {
			if fz.slots[i].Peek() != nil {
				t.Fatalf("slot %d not empty at quiescence", i)
			}
		}
		if s := fz.Stats(); s.Tokens != s.Idle {
			// Only case 3 goes through Do, always alone.
			t.Fatalf("idle-path accounting: %+v", s)
		}
	})
}
