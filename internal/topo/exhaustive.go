package topo

import (
	"fmt"
	"sort"
	"strings"
)

// ErrStateSpace is returned by ExhaustiveCheck when the interleaving state
// space exceeds the caller's budget.
var ErrStateSpace = fmt.Errorf("topo: state space exceeds budget")

// ExhaustiveCheck verifies the quiescent step property over EVERY possible
// interleaving of node transitions, for perInput[i] tokens entering network
// input i. Tokens are anonymous, so states are (toggle vector, counter
// tallies, multiset of waiting positions); the search memoizes visited
// states and fails fast on the first terminal state violating the step
// property. maxStates bounds the search; exceeding it returns
// ErrStateSpace.
//
// This is model checking in miniature: for small widths it upgrades the
// randomized VerifyCounting evidence to a proof over the bounded token
// count.
func ExhaustiveCheck(g *Graph, perInput []int64, maxStates int) error {
	if len(perInput) != g.InWidth() {
		return fmt.Errorf("topo: %d token counts for %d inputs", len(perInput), g.InWidth())
	}
	var total int64
	init := xstate{
		toggles: make([]int32, g.NumNodes()),
		counts:  make([]int64, g.OutWidth()),
		tokens:  map[PortRef]int64{},
	}
	for i, c := range perInput {
		if c < 0 {
			return fmt.Errorf("topo: negative token count %d", c)
		}
		if c > 0 {
			init.tokens[g.inputs[i]] += c
		}
		total += c
	}
	want := StepCounts(total, g.OutWidth())
	seen := map[string]bool{}
	stack := []xstate{init}
	for len(stack) > 0 {
		st := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		key := st.key()
		if seen[key] {
			continue
		}
		if len(seen) >= maxStates {
			return fmt.Errorf("%w (%d states, budget %d)", ErrStateSpace, len(seen), maxStates)
		}
		seen[key] = true
		if len(st.tokens) == 0 {
			for i := range st.counts {
				if st.counts[i] != want[i] {
					return fmt.Errorf("topo: interleaving reaches quiescent outputs %v, want %v", st.counts, want)
				}
			}
			continue
		}
		// Sorted positions keep the DFS push order — and therefore which
		// violating interleaving is reported first — identical across runs.
		for _, pos := range sortedPositions(st.tokens) {
			stack = append(stack, st.step(g, pos))
		}
	}
	return nil
}

// xstate is one configuration of the anonymous-token transition system.
type xstate struct {
	toggles []int32
	counts  []int64
	tokens  map[PortRef]int64
}

// step advances one token waiting at pos through its node.
func (s xstate) step(g *Graph, pos PortRef) xstate {
	n := xstate{
		toggles: append([]int32(nil), s.toggles...),
		counts:  append([]int64(nil), s.counts...),
		tokens:  make(map[PortRef]int64, len(s.tokens)+1),
	}
	//countnet:allow detvet -- map-to-map copy; insertion order cannot affect the result
	for p, c := range s.tokens {
		n.tokens[p] = c
	}
	if n.tokens[pos] == 1 {
		delete(n.tokens, pos)
	} else {
		n.tokens[pos]--
	}
	id := pos.Node
	if i := g.CounterIndex(id); i >= 0 {
		n.counts[i]++
		return n
	}
	node := &g.nodes[id]
	t := n.toggles[id]
	n.toggles[id] = (t + 1) % node.fanOut
	n.tokens[g.dsts[node.out+t]]++
	return n
}

// key canonically encodes the state (waiting positions sorted by node then
// port via deterministic iteration over a sorted slice).
func (s xstate) key() string {
	var sb strings.Builder
	for _, t := range s.toggles {
		fmt.Fprintf(&sb, "%d,", t)
	}
	sb.WriteByte('|')
	for _, c := range s.counts {
		fmt.Fprintf(&sb, "%d,", c)
	}
	sb.WriteByte('|')
	for _, p := range sortedPositions(s.tokens) {
		fmt.Fprintf(&sb, "%d:%d=%d,", p.Node, p.Port, s.tokens[p])
	}
	return sb.String()
}

// sortedPositions returns the waiting positions in node/port order, the
// one place map iteration is funneled through so its randomized order
// never leaks into DFS push order or state keys.
func sortedPositions(tokens map[PortRef]int64) []PortRef {
	out := make([]PortRef, 0, len(tokens))
	//countnet:allow detvet -- collection pass; the slice is sorted before any use
	for p := range tokens {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return less(out[i], out[j]) })
	return out
}

func less(a, b PortRef) bool {
	if a.Node != b.Node {
		return a.Node < b.Node
	}
	return a.Port < b.Port
}
