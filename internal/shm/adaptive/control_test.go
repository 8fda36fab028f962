package adaptive

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// testPolicy is the policy of a counter built with the given band, with
// the hysteresis depth replaced.
func testPolicy(holdN, lb int) policy {
	p := newPolicy(Options{LinearBelow: lb})
	p.hold = holdN
	return p
}

// replay feeds trace through decide from the live mode start, applying
// every switch it orders, and returns the live mode after each window.
func replay(p policy, start Mode, trace []window) []Mode {
	var h hysteresis
	live := start
	out := make([]Mode, len(trace))
	for i, w := range trace {
		var m Mode
		var now bool
		h, m, now = decide(p, h, live, w)
		if now {
			live = m
		}
		out[i] = live
	}
	return out
}

var allModes = []Mode{ModeDirect, ModeCombine, ModeNetwork, ModeLinear}

// TestDecide pins the one-window vote: with hold 1 every vote that
// differs from the live regime switches at once, so the returned target
// is exactly the policy's verdict on that window.
func TestDecide(t *testing.T) {
	const lb = 64
	for _, tc := range []struct {
		name string
		lb   int
		live Mode
		w    window
		want Mode
	}{
		{"direct below directMax", 0, ModeDirect, window{occ: 5.9}, ModeDirect},
		{"direct escalates at directMax", 0, ModeDirect, window{occ: 6}, ModeCombine},
		{"direct jumps to network at combineMax", 0, ModeDirect, window{occ: 48}, ModeNetwork},
		{"direct ignores races", 0, ModeDirect, window{occ: 1, races: 9}, ModeDirect},
		{"combine holds at directMax/2", 0, ModeCombine, window{occ: 3}, ModeCombine},
		{"combine drops below directMax/2", 0, ModeCombine, window{occ: 2.9}, ModeDirect},
		{"combine escalates at combineMax", 0, ModeCombine, window{occ: 48}, ModeNetwork},
		{"combine races escalate at low occupancy", 0, ModeCombine, window{occ: 0, races: 2.5}, ModeNetwork},
		{"combine races at the threshold do not", 0, ModeCombine, window{occ: 10, races: 2}, ModeCombine},
		{"network holds at combineMax/2", 0, ModeNetwork, window{occ: 24}, ModeNetwork},
		{"network drops below combineMax/2", 0, ModeNetwork, window{occ: 23.9}, ModeCombine},
		{"network drops to direct", 0, ModeNetwork, window{occ: 2.9}, ModeDirect},
		{"linear without a band is the network", 0, ModeLinear, window{occ: 30}, ModeNetwork},

		// The guaranteed-ordering band: stay below lb from direct or
		// linear, re-enter below lb/2 from combine or network.
		{"LinearBelow from direct stays in family (combine vote)", lb, ModeDirect, window{occ: 40}, ModeLinear},
		{"LinearBelow from direct stays in family (network vote)", lb, ModeDirect, window{occ: 63.9}, ModeLinear},
		{"LinearBelow from direct leaves at lb", lb, ModeDirect, window{occ: 64}, ModeNetwork},
		{"LinearBelow from direct keeps direct votes", lb, ModeDirect, window{occ: 5}, ModeDirect},
		{"LinearBelow linear stays below lb", lb, ModeLinear, window{occ: 63.9}, ModeLinear},
		{"LinearBelow linear leaves at lb", lb, ModeLinear, window{occ: 64}, ModeNetwork},
		{"LinearBelow linear drops to direct", lb, ModeLinear, window{occ: 2.9}, ModeDirect},
		{"LinearBelow network holds above lb/2", lb, ModeNetwork, window{occ: 32}, ModeNetwork},
		{"LinearBelow network re-enters below lb/2", lb, ModeNetwork, window{occ: 31.9}, ModeLinear},
		{"LinearBelow combine holds above lb/2", lb, ModeCombine, window{occ: 40}, ModeCombine},
		{"LinearBelow combine re-enters below lb/2", lb, ModeCombine, window{occ: 31.9}, ModeLinear},
		{"LinearBelow combine races re-enter below lb/2", lb, ModeCombine, window{occ: 10, races: 5}, ModeLinear},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h, m, now := decide(testPolicy(1, tc.lb), hysteresis{}, tc.live, tc.w)
			if m != tc.want {
				t.Fatalf("from %v with %+v: voted %v, want %v", tc.live, tc.w, m, tc.want)
			}
			if now != (tc.want != tc.live) {
				t.Fatalf("hold 1: switch = %v for vote %v over live %v", now, tc.want, tc.live)
			}
			if h != (hysteresis{}) {
				t.Fatalf("hold 1: state %+v left after a decided window", h)
			}
		})
	}
}

// TestDecideNoFlap oscillates the occupancy across each hysteresis edge,
// by less than the width of any band, from every starting regime: the
// controller may settle once or twice but never returns to a regime it
// left, and the second half of the trace is switch-free.
func TestDecideNoFlap(t *testing.T) {
	for _, lb := range []int{0, 64} {
		edges := []float64{directMax, directMax / 2, combineMax, combineMax / 2}
		if lb > 0 {
			edges = append(edges, float64(lb), float64(lb)/2)
		}
		for _, e := range edges {
			for _, holdN := range []int{1, 2, 3} {
				for _, start := range allModes {
					for _, first := range []float64{-0.5, 0.5} {
						trace := make([]window, 32)
						for i := range trace {
							trace[i] = window{occ: e + first}
							if i%2 == 1 {
								trace[i].occ = e - first
							}
						}
						name := fmt.Sprintf("lb%d/edge%g/hold%d/%v/%+g", lb, e, holdN, start, first)
						checkSettles(t, name, replay(testPolicy(holdN, lb), start, trace), start)
					}
				}
			}
		}
	}
}

// checkSettles fails when a replay revisits a regime it left or still
// switches in its second half.
func checkSettles(t *testing.T, name string, live []Mode, start Mode) {
	t.Helper()
	seen := map[Mode]bool{start: true}
	prev := start
	for i, r := range live {
		if r != prev {
			if seen[r] {
				t.Fatalf("%s: window %d flapped back to %v: %v", name, i, r, live)
			}
			if i >= len(live)/2 {
				t.Fatalf("%s: still switching at window %d: %v", name, i, live)
			}
			seen[r] = true
		}
		prev = r
	}
}

// TestDecideHold checks the hysteresis depth: a switch fires on exactly
// the hold-th consecutive agreeing window, a window that votes for the
// live regime resets the run, and a different vote restarts it.
func TestDecideHold(t *testing.T) {
	for _, holdN := range []int{1, 2, 3, 5} {
		p := testPolicy(holdN, 0)
		trace := make([]window, 2*holdN)
		for i := range trace {
			trace[i] = window{occ: 50}
		}
		live := replay(p, ModeDirect, trace)
		for i, r := range live {
			want := ModeDirect
			if i >= holdN-1 {
				want = ModeNetwork
			}
			if r != want {
				t.Fatalf("hold %d: window %d live %v, want %v (%v)", holdN, i, r, want, live)
			}
		}
	}

	p := testPolicy(2, 0)
	// 50 votes network, 0 votes the live direct and resets the run.
	live := replay(p, ModeDirect, []window{{occ: 50}, {occ: 0}, {occ: 50}, {occ: 50}})
	if got := []Mode{ModeDirect, ModeDirect, ModeDirect, ModeNetwork}; fmt.Sprint(live) != fmt.Sprint(got) {
		t.Fatalf("reset run: live %v, want %v", live, got)
	}
	// 50 votes network, 10 votes combine: a disagreeing vote restarts the run.
	live = replay(p, ModeDirect, []window{{occ: 50}, {occ: 10}, {occ: 10}})
	if got := []Mode{ModeDirect, ModeDirect, ModeCombine}; fmt.Sprint(live) != fmt.Sprint(got) {
		t.Fatalf("restarted run: live %v, want %v", live, got)
	}
}

// TestDecideRaces checks that funnel races above raceMax escalate a
// combine epoch to the network whatever the occupancy.
func TestDecideRaces(t *testing.T) {
	for _, occ := range []float64{0, 3, 10, 30, 47} {
		live := replay(testPolicy(hold, 0), ModeCombine,
			[]window{{occ: occ, races: raceMax + 0.5}, {occ: occ, races: raceMax + 0.5}})
		if got := live[len(live)-1]; got != ModeNetwork {
			t.Errorf("occupancy %g with %g races/token: live %v, want network", occ, raceMax+0.5, got)
		}
	}
}

// TestDecideLinearBelowFamily drives random window traces below the band
// from direct and from linear: the live regime never leaves
// {direct, linear}, whatever the races.
func TestDecideLinearBelowFamily(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, lb := range []int{1, 4, 7, 12, 49, 64, 100, 1 << 20} {
		for _, start := range []Mode{ModeDirect, ModeLinear} {
			for _, holdN := range []int{1, 2} {
				trace := make([]window, 400)
				for i := range trace {
					trace[i] = window{
						occ:   rng.Float64() * math.Min(float64(lb), 200),
						races: rng.Float64() * 4,
					}
				}
				for i, r := range replay(testPolicy(holdN, lb), start, trace) {
					if r != ModeDirect && r != ModeLinear {
						t.Fatalf("lb %d from %v: window %d (occ %.2f) left the family for %v", lb, start, i, trace[i].occ, r)
					}
				}
			}
		}
	}
}

// FuzzDecide checks the policy's invariants over arbitrary window-signal
// traces. The first three bytes pick the hold depth, the band and the
// starting mode; each later pair is one window (occupancy, races per
// token). Per window: the target mode is in range; a counter in
// {direct, linear} below the band votes inside that family; and a switch
// fires exactly when the last hold votes agree on one mode and each
// differed from the live mode. After the trace, occupancy oscillating
// across an edge by at most half a token must settle without flapping.
func FuzzDecide(f *testing.F) {
	f.Add([]byte{2, 64, 0, 40, 0, 40, 0, 70, 0, 20, 0})
	f.Add([]byte{1, 0, 2, 60, 0, 60, 0, 60, 0, 10, 0})
	f.Add([]byte{3, 0, 1, 10, 100, 10, 100, 10, 100})
	f.Add([]byte{2, 200, 3, 100, 0, 140, 0, 90, 0, 60, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		holdN := int(data[0]%4) + 1
		lb := int(data[1])
		if lb < 2 {
			lb = 0
		}
		p := testPolicy(holdN, lb)
		live := Mode(data[2] % 4)
		trace := data[3:]
		if len(trace) > 2*256 {
			trace = trace[:2*256]
		}

		var h hysteresis
		var votes []Mode   // vote of each window
		var changed []bool // whether that vote differed from the live mode
		for len(trace) >= 2 {
			w := window{
				occ:   float64(trace[0]) / 2,
				races: float64(trace[1]) / 32,
			}
			trace = trace[2:]

			var m Mode
			var now bool
			h, m, now = decide(p, h, live, w)
			if m < ModeDirect || m > ModeLinear {
				t.Fatalf("vote %d out of range", m)
			}
			inFamily := live == ModeDirect || live == ModeLinear
			if lb > 0 && inFamily && w.occ < float64(lb) && m != ModeDirect && m != ModeLinear {
				t.Fatalf("band %d, occupancy %g: %v counter voted %v", lb, w.occ, live, m)
			}

			votes = append(votes, m)
			changed = append(changed, m != live)
			run := 0
			for i := len(votes) - 1; i >= 0 && changed[i] && votes[i] == m && run < holdN; i-- {
				run++
			}
			if now != (run == holdN) {
				t.Fatalf("switch = %v after %d agreeing windows (hold %d): votes %v changed %v", now, run, holdN, votes, changed)
			}
			if now {
				live = m
				votes, changed = nil, nil
			}
		}

		edges := []float64{directMax, directMax / 2, combineMax, combineMax / 2}
		if lb > 0 {
			edges = append(edges, float64(lb), float64(lb)/2)
		}
		e := edges[int(data[0]>>2)%len(edges)]
		delta := (float64(data[1]%8) + 1) / 16
		osc := make([]window, 32)
		for i := range osc {
			osc[i] = window{occ: e + delta}
			if i%2 == 1 {
				osc[i].occ = e - delta
			}
		}
		checkSettles(t, fmt.Sprintf("edge %g±%g from %v", e, delta, live), replay(p, live, osc), live)
	})
}
