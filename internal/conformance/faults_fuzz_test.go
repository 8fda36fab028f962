package conformance

import (
	"testing"
	"time"

	"countnet/internal/faults"
	"countnet/internal/msgnet"
	"countnet/internal/workload"
)

// decodeFuzzPlan derives a valid fault plan from fuzzer bytes: network
// family, width, seed, default rule, then link-override / partition /
// stall records until the input is exhausted. Every numeric field is
// clamped into Validate's ranges, so the fuzzer explores plan content,
// not rejection paths. Returns nils when the bytes cannot seed a plan.
func decodeFuzzPlan(raw []byte) (workload.Spec, *faults.Plan, bool) {
	if len(raw) < 9 {
		return workload.Spec{}, nil, false
	}
	nets := []workload.NetKind{workload.Bitonic, workload.Periodic, workload.DTree}
	net := nets[int(raw[0])%len(nets)]
	width := []int{2, 4}[int(raw[1])%2]
	g, err := net.Build(width)
	if err != nil {
		return workload.Spec{}, nil, false
	}
	links, nodes := msgnet.NumLinks(g), g.NumNodes()
	rate := func(b byte) float64 { return float64(b) / 255 }
	// Keep injected latency tiny (<= ~6µs) so rate-1.0 delay plans still
	// finish the workload quickly.
	delay := func(b byte) int64 { return int64(b) * 25 }
	p := &faults.Plan{
		Net: string(net), Width: width,
		Seed: int64(raw[2]) | int64(raw[3])<<8,
		Default: faults.Rule{
			Drop: rate(raw[4]), Dup: rate(raw[5]), Reorder: rate(raw[6]),
			DelayNs: delay(raw[7]), JitterNs: delay(raw[8]),
		},
	}
	i := 9
	for i+1 < len(raw) && len(p.Links) < 4 && raw[i]%3 == 0 {
		if i+3 >= len(raw) {
			break
		}
		p.Links = append(p.Links, faults.LinkRule{
			Link: int(raw[i+1]) % links,
			Rule: faults.Rule{Drop: rate(raw[i+2]), Dup: rate(raw[i+3])},
		})
		i += 4
	}
	for i+2 < len(raw) && len(p.Partitions) < 2 && raw[i]%3 == 1 {
		from := int64(raw[i+1])
		p.Partitions = append(p.Partitions, faults.Partition{
			Links: []int{int(raw[i+2]) % links},
			From:  from, To: from + 1 + int64(raw[i+2])%64,
		})
		i += 3
	}
	for i+2 < len(raw) && len(p.Stalls) < 2 {
		from := int64(raw[i+1])
		p.Stalls = append(p.Stalls, faults.Stall{
			Node: int(raw[i]) % nodes,
			From: from, To: from + 1 + int64(raw[i+2])%64,
			Crash:   raw[i+2]%2 == 0,
			PauseNs: delay(raw[i+1]),
		})
		i += 3
	}
	spec := workload.Spec{Net: net, Width: width, Procs: 3, Ops: 36, Seed: p.Seed}
	return spec, p, true
}

// FuzzFaultPlan is the native fuzzing entry point for the fault layer:
// every fuzzer-chosen plan must (a) pass Validate, (b) leave the msgnet
// engine live — the workload completes within the watchdog window instead
// of deadlocking — and (c) preserve the quiescent step-property
// invariants. Run with `go test -fuzz FuzzFaultPlan ./internal/conformance`;
// the seed corpus runs on every plain `go test`.
func FuzzFaultPlan(f *testing.F) {
	// No faults at all; pure drop; everything at once; windowed events.
	f.Add([]byte{0, 0, 1, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 1, 7, 0, 255, 0, 0, 0, 0})
	f.Add([]byte{2, 0, 9, 1, 128, 128, 128, 40, 40, 0, 2, 200, 255, 1, 3, 5, 4, 0, 30})
	f.Add([]byte{0, 1, 3, 2, 60, 60, 60, 10, 10, 1, 0, 7, 2, 50, 9})
	f.Fuzz(func(t *testing.T, raw []byte) {
		spec, plan, ok := decodeFuzzPlan(raw)
		if !ok {
			return
		}
		if err := plan.Validate(); err != nil {
			t.Fatalf("decoder produced invalid plan: %v\n%v", err, plan)
		}
		type outcome struct {
			exec *Execution
			err  error
		}
		done := make(chan outcome, 1)
		go func() {
			exec, err := RunMsgnetPlan(spec, plan, nil)
			done <- outcome{exec, err}
		}()
		select {
		case o := <-done:
			if o.err != nil {
				t.Fatalf("chaos run failed: %v\nplan: %v", o.err, plan)
			}
			if len(o.exec.Ops) != spec.Ops {
				t.Fatalf("completed %d of %d ops under %v", len(o.exec.Ops), spec.Ops, plan)
			}
			if err := o.exec.CheckUniversal(spec.Width); err != nil {
				t.Fatalf("invariant breach: %v\nplan: %v", err, plan)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("fault plan deadlocked msgnet: %v", plan)
		}
	})
}
