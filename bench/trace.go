package main

import (
	"fmt"
	"os"

	"countnet/internal/obs"
	"countnet/internal/topo"
)

// keepSpans is how many calls per client keep their full span record for
// -spans; the aggregates cover every call of the traced round.
const keepSpans = 4096

// tracer is one client's traced-round state. The per-node hook stamps
// each node the call leaves, splitting its time into head (call to first
// node), hops (node to node: a toggle plus the step to the next node)
// and tail (last node to return: the turn wait on linear). Each client
// owns its tracer, so tracing adds no shared writes.
type tracer struct {
	c           int
	t0, last    int64
	nodes       int
	node        int32
	headSum     int64
	calls       int
	hop, tail   *latHist
	hook        func()
	hookID      func(topo.NodeID)
	events      []obs.Event
	span        uint64
	parent      uint64
	keepCurrent bool
}

func newTracer(c int) *tracer {
	tr := &tracer{c: c, node: -1, hop: newLatHist(), tail: newLatHist(),
		events: make([]obs.Event, 0, keepSpans*10)} // enter + up to 8 nodes + exit
	tr.hook = tr.stamp
	tr.hookID = func(id topo.NodeID) {
		tr.node = int32(id)
		tr.stamp()
	}
	return tr
}

// nextSpan returns a span id unique across clients.
func (tr *tracer) nextSpan() uint64 {
	tr.span++
	return tr.span*clients + uint64(tr.c)
}

func (tr *tracer) tok() int32 { return int32(tr.calls*clients + tr.c) }

func (tr *tracer) begin(t int64) {
	tr.t0, tr.last, tr.nodes, tr.node = t, t, 0, -1
	tr.keepCurrent = tr.calls < keepSpans
	if tr.keepCurrent {
		tr.parent = tr.nextSpan()
		tr.events = append(tr.events, obs.Event{T: t, Kind: obs.KindEnter, P: int32(tr.c),
			Tok: tr.tok(), Node: -1, Value: -1, Span: tr.parent})
	}
}

func (tr *tracer) stamp() {
	t := now()
	if tr.nodes == 0 {
		tr.headSum += t - tr.t0
	} else {
		tr.hop.add(t - tr.last)
	}
	if tr.keepCurrent {
		sp := tr.nextSpan()
		// The first node's Dur is the head: entry plus its toggle.
		tr.events = append(tr.events, obs.Event{T: t, Dur: t - tr.last, Kind: obs.KindBalancer,
			P: int32(tr.c), Tok: tr.tok(), Node: tr.node, Value: -1, Span: sp, Parent: tr.parent})
		tr.parent = sp
	}
	tr.last = t
	tr.nodes++
	tr.node = -1
}

func (tr *tracer) end(t, v int64) {
	tr.tail.add(t - tr.last)
	if tr.keepCurrent {
		if tr.nodes > 0 {
			// The last node a call leaves is its output counter.
			last := &tr.events[len(tr.events)-1]
			last.Kind, last.Value = obs.KindCounter, v
		}
		// An exit's Dur is the whole call, as tracetool expects; the
		// untraced head and tail show there as "other".
		tr.events = append(tr.events, obs.Event{T: t, Dur: t - tr.t0, Kind: obs.KindExit,
			P: int32(tr.c), Tok: tr.tok(), Node: -1, Value: v, Span: tr.nextSpan(), Parent: tr.parent})
	}
	tr.calls++
}

// wrap times op's head, hops and tail through the client's tracer.
func wrap(trs *[clients]*tracer, op opFunc) opFunc {
	return func(c, i int) int64 {
		tr := trs[c]
		tr.begin(now())
		v := op(c, i)
		tr.end(now(), v)
		return v
	}
}

// traceSummary merges the clients' aggregates.
type traceSummary struct {
	headNs           float64
	hopP50, hopP99   int64
	tailP50, tailP99 int64
	hops, heads      int
}

func summarize(trs *[clients]*tracer) traceSummary {
	hop, tail := newLatHist(), newLatHist()
	var s traceSummary
	var headSum int64
	for _, tr := range trs {
		mergeHist(hop, tr.hop)
		mergeHist(tail, tr.tail)
		headSum += tr.headSum
		s.heads += tr.calls
	}
	s.headNs = float64(headSum) / float64(max(s.heads, 1))
	s.hopP50, s.hopP99 = hop.percentile(50), hop.percentile(99)
	s.tailP50, s.tailP99 = tail.percentile(50), tail.percentile(99)
	s.hops = hop.n
	return s
}

func mergeHist(dst, src *latHist) {
	for v, c := range src.counts {
		dst.counts[v] += c
	}
	dst.over = append(dst.over, src.over...)
	dst.n += src.n
}

// exportSpans writes the kept spans of every client with obs.ExportFile:
// JSON Lines for a ".jsonl" name, Chrome trace_event (Perfetto)
// otherwise.
func exportSpans(path, workload string, trs *[clients]*tracer) error {
	var events []obs.Event
	for _, tr := range trs {
		events = append(events, tr.events...)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	meta := obs.Meta{Engine: "shm-bench", Unit: "ns", Net: workload}
	if err := obs.ExportFile(f, path, meta, events); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
