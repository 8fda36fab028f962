// Package conformance is the cross-engine differential testing harness: it
// runs the same workloads through every execution engine in the repository
// — the quiescent topo executor, the cycle simulator (internal/sim), the
// real-goroutine runtime (internal/shm) plain, behind the
// elimination/combining funnel (internal/shm/combine), and behind the
// fixed-mode adaptive front (internal/shm/adaptive), the
// message-passing runtime (internal/msgnet) both fault-free and under
// deterministic fault injection (internal/faults), and the timed schedule
// executor (internal/schedule) —
// and asserts the invariants that must hold in every engine, no matter the
// interleaving:
//
//   - output values form a gapless permutation 0..n-1, equivalently the
//     per-output tallies are exactly the step-property counts (Section 2);
//   - per-balancer output tallies satisfy the step property at quiescence,
//     checked from transition traces where the engine exposes them;
//   - the O(n log n) linearizability sweep agrees with the quadratic
//     oracle (lincheck.Analyze vs AnalyzeBrute);
//   - zero violations whenever c2 <= 2*c1 (Corollary 3.9), for engines
//     with bounded link delays;
//   - padded networks (Corollary 3.12) are violation-free under k-bounded
//     schedules.
//
// Engine disagreement is a test failure, which makes the harness the
// automated form of DESIGN.md's ablation 1 ("violation ratios from both
// engines agree in shape") and the correctness foundation for scaling work:
// any engine bug shows up as an invariant breach with a way back to it
// (the failing cell's workload.Spec, which the same flags regenerate, or
// a shrunk schedule.Concrete JSONL).
package conformance

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"countnet/internal/lincheck"
	"countnet/internal/schedule"
	"countnet/internal/topo"
	"countnet/internal/workload"
)

// Execution is the engine-neutral record of one run: the completed
// operations and, when the engine exposes transitions, each token's node
// sequence.
type Execution struct {
	// Engine names the engine that produced the execution.
	Engine string
	// Ops holds one record per completed operation.
	Ops []lincheck.Op
	// Paths holds each token's transited node sequence, when available
	// (quiescent and schedule engines); nil otherwise.
	Paths [][]topo.NodeID
}

// Values extracts the counter values of the execution's operations.
func (e *Execution) Values() []int64 {
	out := make([]int64, len(e.Ops))
	for i, op := range e.Ops {
		out[i] = op.Value
	}
	return out
}

// CheckUniversal verifies the invariants every engine must satisfy on a
// quiescent execution over a width-w network: gapless permutation, exact
// step tallies per output, and analyzer agreement.
func (e *Execution) CheckUniversal(w int) error {
	if err := checkPermutation(e.Values()); err != nil {
		return fmt.Errorf("%s: %w", e.Engine, err)
	}
	if err := checkTallies(e.Values(), w); err != nil {
		return fmt.Errorf("%s: %w", e.Engine, err)
	}
	if err := checkAnalyzers(e.Ops); err != nil {
		return fmt.Errorf("%s: %w", e.Engine, err)
	}
	return nil
}

// checkPermutation verifies the values are exactly {0, 1, ..., n-1}: the
// counting property at quiescence. Duplicates and gaps are both reported.
func checkPermutation(values []int64) error {
	sorted := append([]int64(nil), values...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for i, v := range sorted {
		if v != int64(i) {
			return fmt.Errorf("values are not a gapless permutation: position %d holds %d (values %v)", i, v, clip(sorted))
		}
	}
	return nil
}

// checkTallies verifies the per-output exit tallies implied by the values
// (value v exited output v mod w) are exactly the step-property counts for
// the total — the strongest form of cross-engine agreement: every engine
// must end in the identical quiescent counter state.
func checkTallies(values []int64, w int) error {
	tallies := make([]int64, w)
	for _, v := range values {
		if v < 0 {
			return fmt.Errorf("negative value %d", v)
		}
		tallies[int(v)%w]++
	}
	want := topo.StepCounts(int64(len(values)), w)
	for i := range tallies {
		if tallies[i] != want[i] {
			return fmt.Errorf("output tallies %v != step counts %v for %d tokens", tallies, want, len(values))
		}
	}
	if !topo.StepPropertyHolds(tallies) {
		return fmt.Errorf("output tallies %v violate the step property", tallies)
	}
	return nil
}

// checkAnalyzers cross-checks the O(n log n) sweep against the quadratic
// oracle on the execution's own operations.
func checkAnalyzers(ops []lincheck.Op) error {
	a, b := lincheck.Analyze(ops), lincheck.AnalyzeBrute(ops)
	if a.NonLinearizable != b.NonLinearizable || a.MaxInversion != b.MaxInversion || a.FirstViolation != b.FirstViolation {
		return fmt.Errorf("lincheck sweep (%v) disagrees with brute oracle (%v)", a, b)
	}
	return nil
}

// checkBalancerStep verifies the step property on every balancer's
// per-output exit counts, reconstructed from token paths: consecutive path
// nodes identify which output each token took. Balancers whose outputs
// cannot be distinguished by destination node (two ports wired to the same
// node) are skipped.
func checkBalancerStep(g *topo.Graph, paths [][]topo.NodeID) error {
	type key struct {
		bal  topo.NodeID
		port int
	}
	destPort := make(map[topo.NodeID]map[topo.NodeID]int)
	ambiguous := make(map[topo.NodeID]bool)
	for _, id := range g.Balancers() {
		m := make(map[topo.NodeID]int, g.FanOut(id))
		for p := 0; p < g.FanOut(id); p++ {
			dest := g.OutDest(id, p).Node
			if _, dup := m[dest]; dup {
				ambiguous[id] = true
			}
			m[dest] = p
		}
		destPort[id] = m
	}
	counts := make(map[key]int64)
	for tok, path := range paths {
		for i := 0; i+1 < len(path); i++ {
			id := path[i]
			if g.KindOf(id) != topo.KindBalancer || ambiguous[id] {
				continue
			}
			p, ok := destPort[id][path[i+1]]
			if !ok {
				return fmt.Errorf("token %d jumped from node %d to unwired node %d", tok, id, path[i+1])
			}
			counts[key{id, p}]++
		}
	}
	for _, id := range g.Balancers() {
		if ambiguous[id] {
			continue
		}
		per := make([]int64, g.FanOut(id))
		for p := range per {
			per[p] = counts[key{id, p}]
		}
		if !topo.StepPropertyHolds(per) {
			return fmt.Errorf("balancer %d output counts %v violate the step property", id, per)
		}
	}
	return nil
}

// clip truncates long value lists for error messages.
func clip(v []int64) []int64 {
	if len(v) > 24 {
		return v[:24]
	}
	return v
}

// RunQuiescent executes `tokens` tokens through g on the topo stepper under
// an rng-chosen interleaving, to quiescence. Operation timestamps are the
// interleaving step indices, so lincheck analysis is meaningful.
func RunQuiescent(g *topo.Graph, tokens int, seed int64) (*Execution, error) {
	rng := rand.New(rand.NewSource(seed))
	s := topo.NewStepper(g)
	s.TrackPaths()
	starts := make([]int64, tokens)
	for k := 0; k < tokens; k++ {
		s.Inject(k % g.InWidth())
	}
	live := make([]int, tokens)
	for k := range live {
		live[k] = k
	}
	exec := &Execution{Engine: "quiescent", Ops: make([]lincheck.Op, tokens)}
	var step int64
	for len(live) > 0 {
		step++
		i := rng.Intn(len(live))
		tok := live[i]
		if starts[tok] == 0 {
			starts[tok] = step
		}
		done, err := s.Step(tok)
		if err != nil {
			return nil, fmt.Errorf("quiescent: %w", err)
		}
		if done {
			v, _ := s.Value(tok)
			exec.Ops[tok] = lincheck.Op{Start: starts[tok], End: step, Value: v}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	if !s.Quiescent() {
		return nil, fmt.Errorf("quiescent: executor not quiescent after drain")
	}
	exec.Paths = make([][]topo.NodeID, tokens)
	for k := 0; k < tokens; k++ {
		exec.Paths[k] = s.Path(k)
	}
	return exec, nil
}

// RunSim executes the spec on the cycle simulator.
func RunSim(spec workload.Spec) (*Execution, error) {
	res, err := spec.Run()
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	return &Execution{Engine: "sim", Ops: res.Ops}, nil
}

// RunSHM executes the spec on the real-goroutine shared-memory runtime
// behind the given front-end, mapping W cycles to nanoseconds of
// wall-clock delay; the execution is named after the front-end. Running
// the combining funnel and the adaptive front as differential engines
// asserts that combined walks and the direct fetch-and-add are invisible
// in every quiescent invariant. The shm-adaptive engine serves every
// token from one padded fetch-and-add word; shm-adaptive-linear is built
// in the waiting mode and promises full linearizability, which
// CrossCheck asserts.
func RunSHM(spec workload.Spec, front workload.FrontKind) (*Execution, error) {
	real := workload.RealSpec{
		Net:         spec.Net,
		Width:       spec.Width,
		Workers:     spec.Procs,
		Ops:         spec.Ops,
		Frac:        spec.Frac,
		Delay:       time.Duration(spec.Wait) * time.Nanosecond,
		RandomDelay: spec.RandomWait,
		Seed:        spec.Seed,
		Front:       front,
	}
	res, err := real.Run()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", front, err)
	}
	return &Execution{Engine: string(front), Ops: res.Ops}, nil
}

// RunMsgnet executes the spec on the message-passing runtime: spec.Procs
// goroutines issue spec.Ops traversals in total, each timestamped with the
// monotonic clock. The shared harness is RunMsgnetPlan (faults.go), which
// RunMsgnetFaulty reuses under a derived chaos plan.
func RunMsgnet(spec workload.Spec) (*Execution, error) {
	return RunMsgnetPlan(spec, nil, nil)
}

// Runner executes a concrete schedule on a graph. The default is the
// schedule executor itself; tests substitute fault-injecting runners to
// prove the harness catches engine bugs.
type Runner func(g *topo.Graph, c *schedule.Concrete) (*schedule.Result, error)

// DefaultRunner runs the schedule on the timed executor with tracing, so
// balancer-level checks see the transitions.
func DefaultRunner(g *topo.Graph, c *schedule.Concrete) (*schedule.Result, error) {
	return c.Run(g, schedule.Options{Trace: true})
}

// CheckConcrete runs the concrete schedule on the timed executor and
// verifies every applicable invariant: the universal quiescent invariants,
// the per-balancer step property (from the transition trace), and — when
// the schedule's bounds satisfy c2 <= 2*c1 — the Corollary 3.9 guarantee
// that no operation is non-linearizable.
func CheckConcrete(g *topo.Graph, c *schedule.Concrete) error {
	return CheckConcreteWith(DefaultRunner, g, c)
}

// CheckConcreteWith is CheckConcrete with a custom runner, the
// fault-injection seam.
func CheckConcreteWith(run Runner, g *topo.Graph, c *schedule.Concrete) error {
	res, err := run(g, c)
	if err != nil {
		return fmt.Errorf("schedule: %w", err)
	}
	exec := &Execution{Engine: "schedule", Ops: res.Ops}
	if err := exec.CheckUniversal(g.OutWidth()); err != nil {
		return err
	}
	if len(res.Events) > 0 {
		paths := make([][]topo.NodeID, len(c.Tokens))
		for _, ev := range res.Events {
			paths[ev.Tok] = append(paths[ev.Tok], topo.NodeID(ev.Node))
		}
		if err := checkBalancerStep(g, paths); err != nil {
			return fmt.Errorf("schedule: %w", err)
		}
	}
	if c.C2 <= 2*c.C1 {
		if rep := lincheck.Analyze(res.Ops); rep.NonLinearizable > 0 {
			w, _ := lincheck.FirstWitness(res.Ops)
			return fmt.Errorf("schedule: Corollary 3.9 violated with c2=%d <= 2*c1=%d: %v (%s)",
				c.C2, 2*c.C1, rep, w)
		}
	}
	return nil
}

// CheckPadded verifies Corollary 3.12 on the schedule: choosing the
// smallest k with c2 < k*c1 strictly, the padded network (h*(k-2)
// pass-through balancers per input) must execute the same k-bounded
// schedule with zero violations, even when the unpadded network violates.
func CheckPadded(g *topo.Graph, c *schedule.Concrete) error {
	k := int(c.C2/c.C1) + 1
	padLen := g.Depth() * (k - 2)
	if padLen <= 0 {
		return nil // c2 < 2*c1: Corollary 3.9 already applies unpadded
	}
	padded, err := topo.Pad(g, padLen)
	if err != nil {
		return err
	}
	res, err := c.Run(padded, schedule.Options{})
	if err != nil {
		return fmt.Errorf("padded schedule: %w", err)
	}
	exec := &Execution{Engine: "padded-schedule", Ops: res.Ops}
	if err := exec.CheckUniversal(padded.OutWidth()); err != nil {
		return err
	}
	if rep := lincheck.Analyze(res.Ops); rep.NonLinearizable > 0 {
		w, _ := lincheck.FirstWitness(res.Ops)
		return fmt.Errorf("padded: Corollary 3.12 violated: k=%d, pad %d, %v (%s)", k, padLen, rep, w)
	}
	return nil
}

// CrossCheck runs the spec through all eight execution engines —
// quiescent topo, sim, shm behind each of workload.Fronts (the plain
// network, the combining funnel, the adaptive front-end, and the same
// front-end built in its guaranteed-linearizable waiting mode), msgnet, and msgnet under the spec-derived fault plan — and
// verifies the universal invariants on each; any breach is an engine
// disagreement. The shm-adaptive-linear engine additionally promises a
// linearizable history, so its ops are run through lincheck and any
// violation fails the check. The returned error carries the spec's JSON
// so the failing cell can be replayed exactly.
func CrossCheck(spec workload.Spec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	g, err := spec.Net.Build(spec.Width)
	if err != nil {
		return err
	}
	quiescent, err := RunQuiescent(g, spec.Ops, spec.Seed)
	if err == nil {
		err = quiescent.CheckUniversal(g.OutWidth())
	}
	if err == nil {
		err = checkBalancerStep(g, quiescent.Paths)
	}
	if err != nil {
		return replayable(spec, err)
	}
	runs := []func(workload.Spec) (*Execution, error){RunSim}
	for _, front := range workload.Fronts {
		runs = append(runs, func(s workload.Spec) (*Execution, error) { return RunSHM(s, front) })
	}
	for _, run := range append(runs, RunMsgnet, RunMsgnetFaulty) {
		exec, err := run(spec)
		if err != nil {
			return replayable(spec, err)
		}
		if len(exec.Ops) != spec.Ops {
			return replayable(spec, fmt.Errorf("%s: completed %d of %d operations", exec.Engine, len(exec.Ops), spec.Ops))
		}
		if err := exec.CheckUniversal(g.OutWidth()); err != nil {
			return replayable(spec, err)
		}
		if exec.Engine == string(workload.FrontAdaptiveLinear) {
			if rep := lincheck.Analyze(exec.Ops); rep.NonLinearizable > 0 {
				w, _ := lincheck.FirstWitness(exec.Ops)
				return replayable(spec, fmt.Errorf("%s: waiting regime misordered: %v (%s)", exec.Engine, rep, w))
			}
		}
	}
	return nil
}

// replayable wraps an engine failure with the failing cell's spec as
// JSON. No command reads the line back: rerunning conformance with the
// same flags regenerates the cell.
func replayable(spec workload.Spec, err error) error {
	data, encErr := workload.EncodeSpec(spec)
	if encErr != nil {
		return fmt.Errorf("%s: %w", spec, err)
	}
	return fmt.Errorf("%w\nspec: %s", err, data)
}
