package workload

import (
	"sort"
	"strings"
	"testing"
	"time"

	"countnet/internal/obs"
	"countnet/internal/shm"
	"countnet/internal/shm/adaptive"
)

var _ shm.Front = (*shm.Network)(nil)

func TestFronts(t *testing.T) {
	for _, f := range Fronts {
		t.Run(string(f), func(t *testing.T) {
			g, err := Bitonic.Build(4)
			if err != nil {
				t.Fatal(err)
			}
			n, err := shm.Compile(g, shm.Options{})
			if err != nil {
				t.Fatal(err)
			}
			front, err := f.Build(n, nil)
			if err != nil {
				t.Fatal(err)
			}
			if front == nil {
				t.Fatal("Build returned a nil front-end")
			}
			if (front == shm.Front(n)) != (f == FrontPlain) {
				t.Fatalf("Build returned %T; want the network itself exactly for %s", front, FrontPlain)
			}

			spec := RealSpec{Net: Bitonic, Width: 4, Workers: 4, Ops: 300, Seed: 1, Front: f}
			if s := spec.String(); !strings.HasSuffix(s, "/"+string(f)) {
				t.Errorf("String = %q, want the front-end name", s)
			}
			res, err := spec.Run()
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Ops) != spec.Ops {
				t.Fatalf("%d of %d operations completed", len(res.Ops), spec.Ops)
			}
			values := make([]int64, len(res.Ops))
			for i, op := range res.Ops {
				values[i] = op.Value
			}
			sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })
			for i, v := range values {
				if v != int64(i) {
					t.Fatalf("values are not a gapless permutation of 0..%d: position %d holds %d", spec.Ops-1, i, v)
				}
			}
		})
	}
	if _, err := FrontKind("nonsense").Build(nil, nil); err == nil {
		t.Error("unknown front-end accepted")
	}
	if _, err := (RealSpec{Net: Bitonic, Width: 4, Workers: 1, Ops: 1, Front: "nonsense"}).Run(); err == nil {
		t.Error("RealSpec ran an unknown front-end")
	}
}

// TestFrontSpansReachEnter runs a traced stress through every front-end
// and checks that the trace shows where each token's time went: the trace
// is causally closed, and every balancer and counter hop chains back to
// the enter event of the token that made it (for a combined walk, its
// representative's).
func TestFrontSpansReachEnter(t *testing.T) {
	for _, f := range Fronts {
		t.Run(string(f), func(t *testing.T) {
			g, err := Bitonic.Build(4)
			if err != nil {
				t.Fatal(err)
			}
			n, err := shm.Compile(g, shm.Options{})
			if err != nil {
				t.Fatal(err)
			}
			front, err := f.Build(n, nil)
			if err != nil {
				t.Fatal(err)
			}
			const workers, ops = 8, 400
			ring := obs.NewRing(workers, 1<<12)
			if _, err := shm.Stress(shm.StressConfig{
				Net: n, Workers: workers, Ops: ops, Seed: 1, Tracer: ring, Front: front,
			}); err != nil {
				t.Fatal(err)
			}
			if ring.Overwritten() > 0 {
				t.Fatalf("ring overwrote %d events; size it up", ring.Overwritten())
			}
			events := ring.Events()
			if _, orphans := obs.CausalClosure(events); orphans != 0 {
				t.Fatalf("trace not causally closed: %d orphans", orphans)
			}
			bySpan := make(map[uint64]obs.Event, len(events))
			for _, ev := range events {
				bySpan[ev.Span] = ev
			}
			for _, ev := range events {
				if ev.Kind != obs.KindBalancer && ev.Kind != obs.KindCounter {
					continue
				}
				// Parents precede children, so the chain ends within
				// len(events) steps: at an enter, or at a missing parent.
				cur := ev
				for cur.Kind != obs.KindEnter {
					p, ok := bySpan[cur.Parent]
					if !ok || p.Span >= cur.Span {
						t.Fatalf("hop %+v does not chain back to an enter event (stopped at %+v)", ev, cur)
					}
					cur = p
				}
			}
		})
	}
}

// TestAdaptiveLinearStaysLinear pins each adaptive engine to the mode it
// is built in for a whole run: shm-adaptive-linear must serve every token
// of a 2-worker, 20000-op stress from the waiting mode, so the
// conformance corpus's lincheck assertion on this engine checks the
// waiting construction, not a fetch-and-add; and shm-adaptive must serve
// every token of a W-delayed 64-worker stress from the direct counter,
// since a counter's mode is fixed when it is built.
func TestAdaptiveLinearStaysLinear(t *testing.T) {
	for _, tc := range []struct {
		kind FrontKind
		want adaptive.Mode
		cfg  shm.StressConfig
	}{
		{FrontAdaptiveLinear, adaptive.ModeLinear, shm.StressConfig{Workers: 2, Ops: 20000}},
		{FrontAdaptive, adaptive.ModeDirect, shm.StressConfig{
			Workers: 64, Ops: 20000, DelayedFrac: 0.5, Delay: 10 * time.Microsecond,
		}},
	} {
		t.Run(string(tc.kind), func(t *testing.T) {
			g, err := Bitonic.Build(8)
			if err != nil {
				t.Fatal(err)
			}
			n, err := shm.Compile(g, shm.Options{})
			if err != nil {
				t.Fatal(err)
			}
			front, err := tc.kind.Build(n, nil)
			if err != nil {
				t.Fatal(err)
			}
			cfg := tc.cfg
			cfg.Net, cfg.Front, cfg.Seed = n, front, 1
			res, err := shm.Stress(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Report.Linearizable() {
				t.Fatalf("%v mode misordered: %s", tc.want, res.Report)
			}
			st := front.(*adaptive.Counter).Stats()
			if st.Tokens != int64(cfg.Ops) || st.PerMode[tc.want] != st.Tokens || st.Mode != tc.want {
				t.Fatalf("served %d of %d tokens, %d of them in %v (per mode %v, built in %v)",
					st.Tokens, cfg.Ops, st.PerMode[tc.want], tc.want, st.PerMode, st.Mode)
			}
		})
	}
}
