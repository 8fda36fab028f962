package adaptive

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// regime is a live epoch's (mode, padK).
type regime struct {
	mode Mode
	padK int
}

func (r regime) String() string { return fmt.Sprintf("%v/k%d", r.mode, r.padK) }

// testPolicy is the policy of a counter built with the given band and
// Linearizable option, with the hysteresis depth replaced.
func testPolicy(holdN, lb int, lin bool) policy {
	p := newPolicy(Options{LinearBelow: lb, Linearizable: lin})
	p.hold = holdN
	return p
}

// replay feeds trace through decide from the live regime start, applying
// every switch it orders, and returns the live regime after each window.
func replay(p policy, start regime, trace []window) []regime {
	var h hysteresis
	live := start
	out := make([]regime, len(trace))
	for i, w := range trace {
		var m Mode
		var k int
		var now bool
		h, m, k, now = decide(p, h, live.mode, live.padK, w)
		if now {
			live = regime{m, k}
		}
		out[i] = live
	}
	return out
}

// wantPad is the Corollary 3.12 factor the specification asks for: the
// ceiling of the ratio, clamped to [3, 6], and no padding at or below 2.
func wantPad(ratio float64) int {
	if !(ratio > 2) || math.IsInf(ratio, 1) {
		return 1
	}
	return int(math.Min(math.Ceil(ratio), 6))
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
		lin  bool
		live regime
		w    window
		want regime
	}{
		{"direct below directMax", 0, false, regime{ModeDirect, 1}, window{occ: 5.9}, regime{ModeDirect, 1}},
		{"direct escalates at directMax", 0, false, regime{ModeDirect, 1}, window{occ: 6}, regime{ModeCombine, 1}},
		{"direct jumps to network at combineMax", 0, false, regime{ModeDirect, 1}, window{occ: 48}, regime{ModeNetwork, 1}},
		{"direct ignores races", 0, false, regime{ModeDirect, 1}, window{occ: 1, races: 9}, regime{ModeDirect, 1}},
		{"combine holds at directMax/2", 0, false, regime{ModeCombine, 1}, window{occ: 3}, regime{ModeCombine, 1}},
		{"combine drops below directMax/2", 0, false, regime{ModeCombine, 1}, window{occ: 2.9}, regime{ModeDirect, 1}},
		{"combine escalates at combineMax", 0, false, regime{ModeCombine, 1}, window{occ: 48}, regime{ModeNetwork, 1}},
		{"combine races escalate at low occupancy", 0, false, regime{ModeCombine, 1}, window{occ: 0, races: 2.5}, regime{ModeNetwork, 1}},
		{"combine races at the threshold do not", 0, false, regime{ModeCombine, 1}, window{occ: 10, races: 2}, regime{ModeCombine, 1}},
		{"network holds at combineMax/2", 0, false, regime{ModeNetwork, 1}, window{occ: 24}, regime{ModeNetwork, 1}},
		{"network drops below combineMax/2", 0, false, regime{ModeNetwork, 1}, window{occ: 23.9}, regime{ModeCombine, 1}},
		{"network drops to direct", 0, false, regime{ModeNetwork, 1}, window{occ: 2.9}, regime{ModeDirect, 1}},
		{"linear without a band is the network", 0, false, regime{ModeLinear, 1}, window{occ: 30}, regime{ModeNetwork, 1}},

		// The guaranteed-ordering band: stay below lb from direct or
		// linear, re-enter below lb/2 from combine or network.
		{"LinearBelow from direct stays in family (combine vote)", lb, false, regime{ModeDirect, 1}, window{occ: 40}, regime{ModeLinear, 1}},
		{"LinearBelow from direct stays in family (network vote)", lb, false, regime{ModeDirect, 1}, window{occ: 63.9}, regime{ModeLinear, 1}},
		{"LinearBelow from direct leaves at lb", lb, false, regime{ModeDirect, 1}, window{occ: 64}, regime{ModeNetwork, 1}},
		{"LinearBelow from direct keeps direct votes", lb, false, regime{ModeDirect, 1}, window{occ: 5}, regime{ModeDirect, 1}},
		{"LinearBelow linear stays below lb", lb, false, regime{ModeLinear, 1}, window{occ: 63.9}, regime{ModeLinear, 1}},
		{"LinearBelow linear leaves at lb", lb, false, regime{ModeLinear, 1}, window{occ: 64}, regime{ModeNetwork, 1}},
		{"LinearBelow linear drops to direct", lb, false, regime{ModeLinear, 1}, window{occ: 2.9}, regime{ModeDirect, 1}},
		{"LinearBelow network holds above lb/2", lb, false, regime{ModeNetwork, 1}, window{occ: 32}, regime{ModeNetwork, 1}},
		{"LinearBelow network re-enters below lb/2", lb, false, regime{ModeNetwork, 1}, window{occ: 31.9}, regime{ModeLinear, 1}},
		{"LinearBelow combine holds above lb/2", lb, false, regime{ModeCombine, 1}, window{occ: 40}, regime{ModeCombine, 1}},
		{"LinearBelow combine re-enters below lb/2", lb, false, regime{ModeCombine, 1}, window{occ: 31.9}, regime{ModeLinear, 1}},
		{"LinearBelow combine races re-enter below lb/2", lb, false, regime{ModeCombine, 1}, window{occ: 10, races: 5}, regime{ModeLinear, 1}},

		// Corollary 3.12 padding rides on network votes only.
		{"pad k=ceil(ratio)", 0, true, regime{ModeNetwork, 1}, window{occ: 60, ratio: 3.2}, regime{ModeNetwork, 4}},
		{"pad k=3 just above 2", 0, true, regime{ModeNetwork, 1}, window{occ: 60, ratio: 2.01}, regime{ModeNetwork, 3}},
		{"pad clamps at 6", 0, true, regime{ModeNetwork, 1}, window{occ: 60, ratio: 1e9}, regime{ModeNetwork, 6}},
		{"no pad at ratio 2", 0, true, regime{ModeNetwork, 4}, window{occ: 60, ratio: 2}, regime{ModeNetwork, 1}},
		{"no pad before any sample", 0, true, regime{ModeNetwork, 1}, window{occ: 60, ratio: math.Inf(1)}, regime{ModeNetwork, 1}},
		{"no pad on NaN", 0, true, regime{ModeNetwork, 1}, window{occ: 60, ratio: math.NaN()}, regime{ModeNetwork, 1}},
		{"no pad without Linearizable", 0, false, regime{ModeNetwork, 1}, window{occ: 60, ratio: 4}, regime{ModeNetwork, 1}},
		{"no pad on a combine vote", 0, true, regime{ModeDirect, 1}, window{occ: 10, ratio: 4}, regime{ModeCombine, 1}},
		{"escalation pads on entry", 0, true, regime{ModeCombine, 1}, window{occ: 50, ratio: 4}, regime{ModeNetwork, 4}},
		{"no pad on a linear vote", lb, true, regime{ModeNetwork, 4}, window{occ: 20, ratio: 4}, regime{ModeLinear, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h, m, k, now := decide(testPolicy(1, tc.lb, tc.lin), hysteresis{}, tc.live.mode, tc.live.padK, tc.w)
			if got := (regime{m, k}); got != tc.want {
				t.Fatalf("from %v with %+v: voted %v, want %v", tc.live, tc.w, got, tc.want)
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
							trace[i] = window{occ: e + first, ratio: 1.5}
							if i%2 == 1 {
								trace[i].occ = e - first
							}
						}
						name := fmt.Sprintf("lb%d/edge%g/hold%d/%v/%+g", lb, e, holdN, start, first)
						checkSettles(t, name, replay(testPolicy(holdN, lb, false), regime{start, 1}, trace), regime{start, 1})
					}
				}
			}
		}
	}
}

// checkSettles fails when a replay revisits a regime it left or still
// switches in its second half.
func checkSettles(t *testing.T, name string, live []regime, start regime) {
	t.Helper()
	seen := map[regime]bool{start: true}
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
	direct := regime{ModeDirect, 1}
	for _, holdN := range []int{1, 2, 3, 5} {
		p := testPolicy(holdN, 0, false)
		trace := make([]window, 2*holdN)
		for i := range trace {
			trace[i] = window{occ: 50}
		}
		live := replay(p, direct, trace)
		for i, r := range live {
			want := direct
			if i >= holdN-1 {
				want = regime{ModeNetwork, 1}
			}
			if r != want {
				t.Fatalf("hold %d: window %d live %v, want %v (%v)", holdN, i, r, want, live)
			}
		}
	}

	p := testPolicy(2, 0, false)
	// 50 votes network, 0 votes the live direct and resets the run.
	live := replay(p, direct, []window{{occ: 50}, {occ: 0}, {occ: 50}, {occ: 50}})
	if got := []regime{direct, direct, direct, {ModeNetwork, 1}}; fmt.Sprint(live) != fmt.Sprint(got) {
		t.Fatalf("reset run: live %v, want %v", live, got)
	}
	// 50 votes network, 10 votes combine: a disagreeing vote restarts the run.
	live = replay(p, direct, []window{{occ: 50}, {occ: 10}, {occ: 10}})
	if got := []regime{direct, direct, {ModeCombine, 1}}; fmt.Sprint(live) != fmt.Sprint(got) {
		t.Fatalf("restarted run: live %v, want %v", live, got)
	}
}

// TestDecideRaces checks that funnel races above raceMax escalate a
// combine epoch to the network whatever the occupancy.
func TestDecideRaces(t *testing.T) {
	for _, occ := range []float64{0, 3, 10, 30, 47} {
		live := replay(testPolicy(hold, 0, false), regime{ModeCombine, 1},
			[]window{{occ: occ, races: raceMax + 0.5}, {occ: occ, races: raceMax + 0.5}})
		if got := live[len(live)-1]; got.mode != ModeNetwork {
			t.Errorf("occupancy %g with %g races/token: live %v, want network", occ, raceMax+0.5, got)
		}
	}
}

// TestDecideRepad steps the ratio under a live ModeNetwork epoch with
// the Linearizable option: the epoch repads to k = ceil(ratio), clamped
// to [3, 6], on exactly the hold-th window, and a ratio at or below 2
// means no padding.
func TestDecideRepad(t *testing.T) {
	for _, holdN := range []int{1, 2, 3} {
		for _, from := range []int{1, 4} {
			for _, ratio := range []float64{1.5, 2, 2.5, 3, 3.2, 4.7, 5, 6, 7, 1e9} {
				trace := make([]window, holdN+2)
				for i := range trace {
					trace[i] = window{occ: 60, ratio: ratio}
				}
				start := regime{ModeNetwork, from}
				live := replay(testPolicy(holdN, 0, true), start, trace)
				want := regime{ModeNetwork, wantPad(ratio)}
				for i, r := range live {
					exp := want
					if i < holdN-1 {
						exp = start
					}
					if r != exp {
						t.Fatalf("hold %d, k %d -> ratio %g: window %d live %v, want %v", holdN, from, ratio, i, r, exp)
					}
				}
			}
		}
	}
}

// TestDecideLinearBelowFamily drives random window traces below the band
// from direct and from linear: the live regime never leaves
// {direct, linear}, whatever the races and the ratio.
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
						ratio: 1 + rng.Float64()*8,
					}
				}
				for i, r := range replay(testPolicy(holdN, lb, true), regime{start, 1}, trace) {
					if r.mode != ModeDirect && r.mode != ModeLinear {
						t.Fatalf("lb %d from %v: window %d (occ %.2f) left the family for %v", lb, start, i, trace[i].occ, r)
					}
				}
			}
		}
	}
}

// FuzzDecide checks the policy's invariants over arbitrary window-signal
// traces. The first four bytes pick the hold depth, the band, the
// Linearizable option and the starting mode; each later triple is one
// window (occupancy, races per token, ratio). Per window: the target
// mode is in range; padK is 1 outside ModeNetwork and in {1, 3..6}
// inside it, and follows the ratio when Linearizable; a counter in
// {direct, linear} below the band votes inside that family; and a switch
// fires exactly when the last hold votes agree on one mode and each
// differed from the live regime. After the trace, occupancy oscillating
// across an edge by at most half a token must settle without flapping.
func FuzzDecide(f *testing.F) {
	f.Add([]byte{2, 64, 0, 0, 40, 0, 10, 40, 0, 10, 70, 0, 10, 20, 0, 10})
	f.Add([]byte{1, 0, 1, 2, 60, 0, 40, 60, 0, 80, 60, 0, 255, 10, 0, 20})
	f.Add([]byte{3, 0, 0, 1, 10, 100, 10, 10, 100, 10, 10, 100, 10})
	f.Add([]byte{2, 200, 1, 3, 100, 0, 30, 140, 0, 30, 90, 0, 30, 60, 0, 30})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		holdN := int(data[0]%4) + 1
		lb := int(data[1])
		if lb < 2 {
			lb = 0
		}
		lin := data[2]&1 == 1
		p := testPolicy(holdN, lb, lin)
		live := regime{Mode(data[3] % 4), 1}
		trace := data[4:]
		if len(trace) > 3*256 {
			trace = trace[:3*256]
		}

		var h hysteresis
		var votes []Mode   // vote mode of each window
		var changed []bool // whether that vote differed from the live regime
		for len(trace) >= 3 {
			w := window{
				occ:   float64(trace[0]) / 2,
				races: float64(trace[1]) / 32,
				ratio: float64(trace[2]) / 16,
			}
			if trace[2] == 255 {
				w.ratio = math.Inf(1)
			}
			trace = trace[3:]

			var m Mode
			var k int
			var now bool
			h, m, k, now = decide(p, h, live.mode, live.padK, w)
			if m < ModeDirect || m > ModeLinear {
				t.Fatalf("vote %d out of range", m)
			}
			switch {
			case m != ModeNetwork && k != 1:
				t.Fatalf("%v vote carries padK %d", m, k)
			case m == ModeNetwork && k != 1 && (k < 3 || k > maxPadK):
				t.Fatalf("network vote carries padK %d", k)
			case m == ModeNetwork && lin && k != wantPad(w.ratio):
				t.Fatalf("ratio %g voted padK %d, want %d", w.ratio, k, wantPad(w.ratio))
			case !lin && k != 1:
				t.Fatalf("padK %d without Linearizable", k)
			}
			inFamily := live.mode == ModeDirect || live.mode == ModeLinear
			if lb > 0 && inFamily && w.occ < float64(lb) && m != ModeDirect && m != ModeLinear {
				t.Fatalf("band %d, occupancy %g: %v counter voted %v", lb, w.occ, live, m)
			}

			votes = append(votes, m)
			changed = append(changed, regime{m, k} != live)
			run := 0
			for i := len(votes) - 1; i >= 0 && changed[i] && votes[i] == m && run < holdN; i-- {
				run++
			}
			if now != (run == holdN) {
				t.Fatalf("switch = %v after %d agreeing windows (hold %d): votes %v changed %v", now, run, holdN, votes, changed)
			}
			if now {
				live = regime{m, k}
				votes, changed = nil, nil
			}
		}

		edges := []float64{directMax, directMax / 2, combineMax, combineMax / 2}
		if lb > 0 {
			edges = append(edges, float64(lb), float64(lb)/2)
		}
		e := edges[int(data[0]>>2)%len(edges)]
		delta := (float64(data[1]%8) + 1) / 16
		ratio := float64(data[2]>>1) / 16
		osc := make([]window, 32)
		for i := range osc {
			osc[i] = window{occ: e + delta, ratio: ratio}
			if i%2 == 1 {
				osc[i].occ = e - delta
			}
		}
		checkSettles(t, fmt.Sprintf("edge %g±%g from %v", e, delta, live), replay(p, live, osc), live)
	})
}
