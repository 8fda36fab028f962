package topo

import "fmt"

// Stepper executes a balancing network one instantaneous node transition at
// a time, in any interleaving the caller chooses. It is the execution-model
// core shared by the sequential executor, the timed schedule engine, and the
// verification helpers: an execution E = e1, e2, ... of events <T, D> is
// exactly a sequence of Step calls.
//
// Balancers route tokens to their ordered outputs round-robin (the toggle
// implementation), which preserves the step property on each node's outputs.
// Counters assign the a-th exiting token on output Y_i the value i + w*a.
//
// Stepper is not safe for concurrent use; the shm package provides the
// goroutine-safe runtime.
type Stepper struct {
	g       *Graph
	toggle  []int32
	counts  []int64
	pos     []PortRef // per token: input port the token waits at
	val     []int64   // per token: assigned value, -1 while in flight
	visited [][]NodeID
	track   bool
}

// NewStepper returns a Stepper for g with all balancer toggles in their
// initial state (first token exits on output 0).
func NewStepper(g *Graph) *Stepper {
	return &Stepper{
		g:      g,
		toggle: make([]int32, len(g.nodes)),
		counts: make([]int64, len(g.nodes)),
	}
}

// TrackPaths records, for every token, the sequence of nodes it transits.
// Must be called before the first Inject.
func (s *Stepper) TrackPaths() { s.track = true }

// Inject admits a new token at network input port `input` and returns the
// token id. The token waits at the input node; it transitions on Step.
func (s *Stepper) Inject(input int) int {
	tok := len(s.pos)
	s.pos = append(s.pos, s.g.inputs[input])
	s.val = append(s.val, -1)
	if s.track {
		s.visited = append(s.visited, nil)
	}
	return tok
}

// Value returns the value assigned to token tok and whether it has exited.
func (s *Stepper) Value(tok int) (int64, bool) {
	v := s.val[tok]
	return v, v >= 0
}

// At returns the input port token tok currently waits at. Undefined once
// the token is done.
func (s *Stepper) At(tok int) PortRef { return s.pos[tok] }

// Path returns the nodes token tok has transited, if TrackPaths was enabled.
func (s *Stepper) Path(tok int) []NodeID {
	if !s.track {
		return nil
	}
	return s.visited[tok]
}

// CounterCount returns the number of tokens that have exited output Y_i.
func (s *Stepper) CounterCount(i int) int64 { return s.counts[s.g.counters[i]] }

// OutputCounts returns the per-output exit tallies Y_0..Y_{w-1}.
func (s *Stepper) OutputCounts() []int64 {
	out := make([]int64, s.g.OutWidth())
	for i := range out {
		out[i] = s.CounterCount(i)
	}
	return out
}

// Step performs the instantaneous transition of the node token tok waits at.
// It returns done=true when the transition was through a counter, in which
// case the token has received its value. Stepping a finished token is an
// error.
func (s *Stepper) Step(tok int) (done bool, err error) {
	if tok < 0 || tok >= len(s.pos) {
		return false, fmt.Errorf("topo: step of unknown token %d", tok)
	}
	if s.val[tok] >= 0 {
		return false, fmt.Errorf("topo: step of finished token %d", tok)
	}
	p := s.pos[tok]
	id := p.Node
	n := &s.g.nodes[id]
	if s.track {
		s.visited[tok] = append(s.visited[tok], id)
	}
	switch n.kind {
	case KindBalancer:
		t := s.toggle[id]
		s.toggle[id] = (t + 1) % n.fanOut
		s.counts[id]++
		s.pos[tok] = s.g.dsts[n.out+t]
		return false, nil
	case KindCounter:
		a := s.counts[id]
		s.counts[id] = a + 1
		s.val[tok] = int64(n.index) + int64(s.g.OutWidth())*a
		return true, nil
	default:
		return false, fmt.Errorf("topo: token %d at node %d of unknown kind %d", tok, id, n.kind)
	}
}

// Run steps token tok to completion and returns its value. It models a
// token traversing the network with no interleaving from other tokens.
func (s *Stepper) Run(tok int) (int64, error) {
	for {
		done, err := s.Step(tok)
		if err != nil {
			return 0, err
		}
		if done {
			v, _ := s.Value(tok)
			return v, nil
		}
	}
}

// Quiescent reports whether every injected token has exited; in a quiescent
// state the step property must hold on the output counts (Section 2).
func (s *Stepper) Quiescent() bool {
	for _, v := range s.val {
		if v < 0 {
			return false
		}
	}
	return true
}

// Sequential is a convenience wrapper running whole-token traversals, which
// models tokens traversing the network one after another.
type Sequential struct {
	s *Stepper
}

// NewSequential returns a sequential executor over a fresh Stepper for g.
func NewSequential(g *Graph) *Sequential {
	return &Sequential{s: NewStepper(g)}
}

// Traverse injects a token at input and runs it to completion.
func (q *Sequential) Traverse(input int) (int64, error) {
	return q.s.Run(q.s.Inject(input))
}
