package sim

import (
	"fmt"

	"countnet/internal/obs"
	"countnet/internal/topo"
)

// simMetrics is the simulator's live metrics surface: the toggle-wait
// latency histogram (the live (Tog+W)/Tog ratio is a view of it),
// traversal counters, and per-wire link-time extremes (one MinMax per
// source node), which make the Theorem 3.6 precondition c2 <= 2*c1
// observable while a run is in flight.
type simMetrics struct {
	tog        *obs.Histogram
	toggles    *obs.Counter
	diffracted *obs.Counter
	inflight   *obs.Gauge
	wire       []*obs.MinMax // indexed by the node a wire leaves
	wireAll    *obs.MinMax   // all wires folded together
}

// newSimMetrics registers the simulator metric family on reg. effW is the
// effective injected per-node delay in cycles (the W of the live ratio).
func newSimMetrics(reg *obs.Registry, g *topo.Graph, effW float64) *simMetrics {
	m := &simMetrics{
		tog:        reg.Histogram("sim_tog_wait_cycles"),
		toggles:    reg.Counter("sim_toggles_total"),
		diffracted: reg.Counter("sim_diffracted_total"),
		inflight:   reg.Gauge("sim_inflight_tokens"),
		wire:       make([]*obs.MinMax, g.NumNodes()),
		wireAll:    reg.MinMax("sim_wire_cycles"),
	}
	reg.RatioOf("sim_avg_c2c1", m.tog, effW)
	for id := 0; id < g.NumNodes(); id++ {
		m.wire[id] = reg.MinMax(fmt.Sprintf("sim_wire_node%03d_cycles", id))
	}
	return m
}

// observeTog folds one balancer wait into the toggle-wait histogram, which
// the live (Tog+W)/Tog ratio reads.
func (m *simMetrics) observeTog(wait int64) {
	if m == nil {
		return
	}
	m.tog.Observe(wait)
}

// observeLink folds one wire traversal leaving `from` into the per-wire
// extremes.
func (m *simMetrics) observeLink(from topo.NodeID, dur int64) {
	if m == nil {
		return
	}
	m.wire[from].Observe(dur)
	m.wireAll.Observe(dur)
}
