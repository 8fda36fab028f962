package obs

import (
	"sort"
	"sync/atomic"
)

// Causal span model. Every traced engine draws span ids for its events
// from one shared Clock — a Lamport clock whose Tick is a single atomic
// increment, so ids are unique within a run and every id a message could
// have carried when an event was stamped is strictly smaller than the
// event's own id. Each event records the id of its causal predecessor in
// Event.Parent (the token's previous hop, the send a retransmission
// repeats, the original delivery a duplicate shadows), which turns the
// flat per-processor ring streams into a forest of per-token span trees
// with cross-node edges: exactly the happens-before order linearizability
// monitoring reconstructs violations from, rather than wall clock.

// Clock is the run-wide Lamport clock causal span ids are drawn from.
// All methods are lock-free and allocation-free; the zero value is ready
// to use (NewClock exists for symmetry with the other obs constructors).
type Clock struct{ v atomic.Uint64 }

// NewClock returns a clock whose first Tick returns 1.
func NewClock() *Clock { return &Clock{} }

// Tick advances the clock and returns the new value — a fresh span id.
func (c *Clock) Tick() uint64 { return c.v.Add(1) }

// Witness folds a remotely observed clock value in (the Lamport max-join
// rule): after Witness(r), Tick returns values greater than r. Receivers
// call it with the span id a message carries; with one shared in-process
// clock it is a no-op by construction, but it keeps the stamping protocol
// correct if the engines ever span OS processes.
func (c *Clock) Witness(remote uint64) {
	for {
		cur := c.v.Load()
		if remote <= cur || c.v.CompareAndSwap(cur, remote) {
			return
		}
	}
}

// CausalClosure filters events down to the causally closed subset: an
// event is kept when its whole ancestor chain is present (span ids
// increase along causal edges, so one pass in span order suffices).
// Events without span ids are kept unconditionally — an uncausal trace
// passes through unchanged. The input order is preserved; orphans reports
// how many events were dropped for referencing an absent ancestor (the
// part of a wrapped ring the overwritten prefix took with it).
func CausalClosure(events []Event) (closed []Event, orphans int) {
	kept := make(map[uint64]bool, len(events))
	// Spans are unique and parents precede children numerically, so
	// resolving in ascending span order needs no fixpoint iteration.
	order := make([]int, 0, len(events))
	for i, ev := range events {
		if ev.Span != 0 {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(i, j int) bool {
		return events[order[i]].Span < events[order[j]].Span
	})
	for _, i := range order {
		ev := events[i]
		if ev.Parent == 0 || kept[ev.Parent] {
			kept[ev.Span] = true
		} else {
			orphans++
		}
	}
	closed = make([]Event, 0, len(events)-orphans)
	for _, ev := range events {
		if ev.Span == 0 || kept[ev.Span] {
			closed = append(closed, ev)
		}
	}
	return closed, orphans
}
