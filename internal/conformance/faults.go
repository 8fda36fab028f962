package conformance

// Chaos conformance: the msgnet engine run under deterministic fault
// injection (internal/faults) as a sixth differential engine, plus a
// chaos soak that fuzzes whole fault plans the way Soak fuzzes timed
// schedules. The quiescent invariants are interleaving-independent, so
// they must survive any plan: dropped hops are retried, duplicates are
// deduplicated, and the final values still form a gapless permutation
// with exact step tallies.

import (
	"fmt"
	"math/rand"
	"time"

	"countnet/internal/faults"
	"countnet/internal/msgnet"
	"countnet/internal/obs"
	"countnet/internal/shm"
	"countnet/internal/workload"
)

// derivePlanSalt decorrelates the fault-plan stream from the workload's
// own seeded randomness (schedule generation, shm delay jitter).
const derivePlanSalt = 0x5eed_fa17

// DerivePlan builds the deterministic chaos plan the fault-injected
// engine runs spec under: a pure function of the spec's seed and the
// network's shape, so every engine-disagreement report can be replayed
// from the spec alone.
func DerivePlan(spec workload.Spec) (*faults.Plan, error) {
	g, err := spec.Net.Build(spec.Width)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(spec.Seed ^ derivePlanSalt))
	p := faults.Generate(rng, msgnet.NumLinks(g), g.NumNodes(), faults.GenOptions{})
	p.Net, p.Width, p.Procs, p.Ops = string(spec.Net), spec.Width, spec.Procs, spec.Ops
	return p, nil
}

// RunMsgnetFaulty executes the spec on the message-passing runtime under
// the spec-derived fault plan: same workload, same invariants, but every
// hop subject to drops (with retransmission), duplication, reordering,
// delays, partitions, and node stall/crash windows.
func RunMsgnetFaulty(spec workload.Spec) (*Execution, error) {
	plan, err := DerivePlan(spec)
	if err != nil {
		return nil, err
	}
	return RunMsgnetPlan(spec, plan, nil)
}

// RunMsgnetPlan executes the spec on the message-passing runtime under an
// explicit fault plan (nil for fault-free), the entry point chaos soaks
// and CLI plan replays share. The execution is labeled "msgnet-faults"
// when the plan injects anything and "msgnet" otherwise. When tr is
// non-nil every hop is recorded through it with a unique per-operation
// token identity and a causal span chain. spec.Procs workers issue
// spec.Ops traversals in total on shm.Drive, which every
// real-goroutine engine shares.
func RunMsgnetPlan(spec workload.Spec, plan *faults.Plan, tr obs.Tracer) (*Execution, error) {
	engine := "msgnet"
	if plan != nil && plan.Active() {
		engine = "msgnet-faults"
	}
	g, err := spec.Net.Build(spec.Width)
	if err != nil {
		return nil, err
	}
	n, err := msgnet.StartOpts(g, msgnet.Options{Buffer: 1, Faults: plan, Tracer: tr})
	if err != nil {
		return nil, err
	}
	defer n.Close()
	ops, err := shm.Drive(time.Now(), spec.Procs, spec.Ops, n.Next)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", engine, err)
	}
	return &Execution{Engine: engine, Ops: ops}, nil
}

// ChaosConfig configures a chaos soak: random fault plans against fixed
// workloads across the network matrix.
type ChaosConfig struct {
	Nets   []workload.NetKind
	Widths []int
	// Rounds is the number of fault plans per (net, width) cell.
	Rounds int
	Seed   int64
	// Ops and Procs shape the workload each plan runs under (defaults
	// 128 ops, 4 procs).
	Ops, Procs int
	// Shrink minimizes any failing plan before reporting it.
	Shrink bool
	// Progress, when non-nil, receives a line per completed cell.
	Progress func(format string, args ...any)
}

// ChaosFailure is one invariant breach found under fault injection, with
// its (possibly shrunk) plan reproducer.
type ChaosFailure struct {
	Spec workload.Spec
	Plan *faults.Plan
	Err  error
}

// Error renders the failure with its reproducer plan.
func (f *ChaosFailure) Error() string {
	return fmt.Sprintf("%s[%d] under %v: %v", f.Spec.Net, f.Spec.Width, f.Plan, f.Err)
}

// chaosRound runs one plan against one spec and checks the universal
// invariants plus operation-count completeness.
func chaosRound(spec workload.Spec, plan *faults.Plan) error {
	exec, err := RunMsgnetPlan(spec, plan, nil)
	if err != nil {
		return err
	}
	if len(exec.Ops) != spec.Ops {
		return fmt.Errorf("%s: completed %d of %d operations", exec.Engine, len(exec.Ops), spec.Ops)
	}
	return exec.CheckUniversal(spec.Width)
}

// ChaosSoak fuzzes random fault plans across the configured matrix and
// returns the first failure (shrunk to a minimal plan when cfg.Shrink is
// set) or nil when every round passed. rounds reports how many plans were
// executed.
func ChaosSoak(cfg ChaosConfig) (fail *ChaosFailure, rounds int, err error) {
	if len(cfg.Nets) == 0 {
		cfg.Nets = []workload.NetKind{workload.Bitonic, workload.Periodic, workload.DTree}
	}
	if len(cfg.Widths) == 0 {
		cfg.Widths = []int{2, 4}
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 20
	}
	if cfg.Ops <= 0 {
		cfg.Ops = 128
	}
	if cfg.Procs <= 0 {
		cfg.Procs = 4
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for _, net := range cfg.Nets {
		for _, width := range cfg.Widths {
			g, err := net.Build(width)
			if err != nil {
				return nil, rounds, err
			}
			spec := workload.Spec{
				Net: net, Width: width, Procs: cfg.Procs, Ops: cfg.Ops, Seed: cfg.Seed,
			}
			if err := spec.Validate(); err != nil {
				return nil, rounds, err
			}
			for r := 0; r < cfg.Rounds; r++ {
				plan := faults.Generate(rng, msgnet.NumLinks(g), g.NumNodes(), faults.GenOptions{})
				plan.Net, plan.Width, plan.Procs, plan.Ops = string(net), width, cfg.Procs, cfg.Ops
				rounds++
				roundErr := chaosRound(spec, plan)
				if roundErr == nil {
					continue
				}
				f := &ChaosFailure{Spec: spec, Plan: plan, Err: roundErr}
				if cfg.Shrink {
					f.Plan = faults.Shrink(plan, func(cand *faults.Plan) bool {
						return chaosRound(spec, cand) != nil
					})
				}
				return f, rounds, nil
			}
			if cfg.Progress != nil {
				cfg.Progress("%s[%d] chaos: %d plans ok", net, width, cfg.Rounds)
			}
		}
	}
	return nil, rounds, nil
}
