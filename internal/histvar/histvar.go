// Package histvar implements the history variables of Section 2 of the
// paper: every token T carries a set H_T and every node D a set H_D of token
// ids ("implicit knowledge"). Initially H_T = {T} and H_D = {}; on each
// transition event <T, D> the two sets are merged: H_D = H_T = H_T ∪ H_D.
//
// The tracker makes the information-propagation lemmas of Section 3
// empirically checkable:
//
//   - Lemma 3.1: when T is the a-th token to exit on output Y_i of a network
//     with w outputs, |H_T| >= w*(a-1) + i + 1.
//   - Lemma 3.2: knowledge travels at most one link per c1 time, so every
//     token in H_D after an event at time t at a layer-(g+1) node entered
//     the network no later than t - g*c1.
package histvar

import (
	"fmt"

	"countnet/internal/topo"
)

// Tracker maintains H_T and H_D over an execution of a network.
type Tracker struct {
	g      *topo.Graph
	nodes  []*Bitset // per node
	tokens []*Bitset // per token
	exits  []int64   // per counter node: tokens exited so far
}

// New returns a Tracker for g able to track numTokens tokens.
//
//countnet:allow apivet -- Lemma 3.1-3.3 checker API, run only by tests: the package has no non-test importer (E12)
func New(g *topo.Graph, numTokens int) *Tracker {
	t := &Tracker{
		g:      g,
		nodes:  make([]*Bitset, g.NumNodes()),
		tokens: make([]*Bitset, numTokens),
		exits:  make([]int64, g.NumNodes()),
	}
	for i := range t.nodes {
		t.nodes[i] = NewBitset(numTokens)
	}
	for i := range t.tokens {
		t.tokens[i] = NewBitset(numTokens)
		t.tokens[i].Add(i)
	}
	return t
}

// OnEvent merges knowledge for the transition event <tok, node>. Feed it
// every event of the execution, in execution order (e.g. the Events of a
// schedule.Run made with Options.Trace).
//
//countnet:allow apivet -- Lemma 3.1-3.3 checker API, run only by tests: the package has no non-test importer (E12)
func (t *Tracker) OnEvent(tok int, node topo.NodeID) {
	ht := t.tokens[tok]
	hd := t.nodes[node]
	ht.UnionWith(hd)
	hd.UnionWith(ht) // hd now equals ht
	if t.g.KindOf(node) == topo.KindCounter {
		t.exits[node]++
	}
}

// TokenKnowledge returns H_T for token tok (a live view, not a copy).
//
//countnet:allow apivet -- Lemma 3.1-3.3 checker API, run only by tests: the package has no non-test importer (E12)
func (t *Tracker) TokenKnowledge(tok int) *Bitset { return t.tokens[tok] }

// NodeKnowledge returns H_D for node id (a live view, not a copy).
//
//countnet:allow apivet -- Lemma 3.1-3.3 checker API, run only by tests: the package has no non-test importer (E12)
func (t *Tracker) NodeKnowledge(id topo.NodeID) *Bitset { return t.nodes[id] }

// ExitOrdinal returns how many tokens have exited through counter node id.
//
//countnet:allow apivet -- Lemma 3.1-3.3 checker API, run only by tests: the package has no non-test importer (E12)
func (t *Tracker) ExitOrdinal(id topo.NodeID) int64 { return t.exits[id] }

// CheckLemma31 verifies the Lemma 3.1 lower bound for a token that just
// exited: it was the a-th token to exit on Y_i, so its knowledge must
// contain at least w*(a-1) + i + 1 tokens.
//
//countnet:allow apivet -- Lemma 3.1-3.3 checker API, run only by tests: the package has no non-test importer (E12)
func (t *Tracker) CheckLemma31(tok int, counter topo.NodeID) error {
	i := t.g.CounterIndex(counter)
	if i < 0 {
		return fmt.Errorf("histvar: node %d is not a counter", counter)
	}
	a := t.exits[counter] // already incremented by OnEvent
	w := int64(t.g.OutWidth())
	want := w*(a-1) + int64(i) + 1
	got := int64(t.tokens[tok].Count())
	if got < want {
		return fmt.Errorf("histvar: token %d exited %d-th on Y_%d with |H_T| = %d < %d (Lemma 3.1)",
			tok, a, i, got, want)
	}
	return nil
}

// CheckLemma33 verifies the combined Lemma 3.3 bound at an exit event: if
// token tok was the a-th to exit counter node at time t, then at least
// w*(a-1)+i+1 tokens entered the network no later than t - h*c1.
//
//countnet:allow apivet -- Lemma 3.1-3.3 checker API, run only by tests: the package has no non-test importer (E12)
func (t *Tracker) CheckLemma33(counter topo.NodeID, now int64, c1 int64, entry []int64) error {
	i := t.g.CounterIndex(counter)
	if i < 0 {
		return fmt.Errorf("histvar: node %d is not a counter", counter)
	}
	a := t.exits[counter] // already incremented by OnEvent
	w := int64(t.g.OutWidth())
	want := w*(a-1) + int64(i) + 1
	limit := now - int64(t.g.Depth())*c1
	var early int64
	for _, e := range entry {
		if e <= limit {
			early++
		}
	}
	if early < want {
		return fmt.Errorf("histvar: exit %d on Y_%d at %d: only %d tokens entered by %d, want >= %d (Lemma 3.3)",
			a, i, now, early, limit, want)
	}
	return nil
}

// CheckLemma32 verifies the Lemma 3.2 bound after an event at time `now` at
// `node`: every token in H_node entered the network no later than
// now - (layer(node)-1)*c1, where entry[k] is token k's entry time.
//
//countnet:allow apivet -- Lemma 3.1-3.3 checker API, run only by tests: the package has no non-test importer (E12)
func (t *Tracker) CheckLemma32(node topo.NodeID, now int64, c1 int64, entry []int64) error {
	g := int64(t.g.Layer(node) - 1)
	limit := now - g*c1
	var err error
	t.nodes[node].ForEach(func(id int) {
		if err == nil && entry[id] > limit {
			err = fmt.Errorf("histvar: node %d (layer %d) at time %d knows token %d which entered at %d > %d (Lemma 3.2)",
				node, g+1, now, id, entry[id], limit)
		}
	})
	return err
}
