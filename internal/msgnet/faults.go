package msgnet

// Fault wiring for the message-passing engine: link numbering, the
// retrying send path, and asynchronous (duplicate / reordered) delivery.
//
// Links are numbered deterministically from the topology alone, so a
// faults.Plan written for a graph applies identically across runs and
// processes: network input i is link i, and output port p of node id is
// link InWidth + offset(id) + p, where offset is the running sum of
// fan-outs over the nodes before id. Counter replies are not links —
// the model injects faults on the wires between balancers, not on the
// final hand-back to the requesting processor.
//
// A Drop verdict is handled entirely at the sender: the message was
// "lost", so the sender pauses for a capped exponential backoff
// (backoff.Exp) and retransmits. Retransmission is idempotent because
// every token carries a unique id and each node deduplicates arrivals,
// so a duplicate produced by a Dup verdict — or by any future
// retransmit-after-successful-delivery policy — cannot double-count or
// double-reply.

import (
	"time"

	"countnet/internal/faults"
	"countnet/internal/obs"
	"countnet/internal/shm/backoff"
	"countnet/internal/topo"
)

// Retry policy of the faulty send path: backoff.Exp(retryBase, retryCap,
// attempt) between retransmissions. The cap keeps the worst-case wait per
// hop at retryCap * faults.MaxAttempts, well under a millisecond.
const (
	retryBase = 2 * time.Microsecond
	retryCap  = 256 * time.Microsecond
)

// reorderHold is how long an async reordered delivery is held back so
// later sends on the same link can overtake it.
const reorderHold = 10 * time.Microsecond

// NumLinks returns the number of fault-injectable links in g: one per
// network input plus one per node output port. faults.Plan link ids for
// this engine lie in [0, NumLinks(g)).
func NumLinks(g *topo.Graph) int {
	n := g.InWidth()
	for id := 0; id < g.NumNodes(); id++ {
		n += g.FanOut(topo.NodeID(id))
	}
	return n
}

// linkTables computes the link numbering for g: base[id] is the link id
// of node id's output port 0, and dests[l] is the node link l delivers
// into (the injector's per-node clock index).
func linkTables(g *topo.Graph) (base []int, dests []int) {
	dests = make([]int, 0, NumLinks(g))
	for i := 0; i < g.InWidth(); i++ {
		dests = append(dests, int(g.Input(i).Node))
	}
	base = make([]int, g.NumNodes())
	for id := 0; id < g.NumNodes(); id++ {
		base[id] = len(dests)
		for p := 0; p < g.FanOut(topo.NodeID(id)); p++ {
			dests = append(dests, int(g.OutDest(topo.NodeID(id), p).Node))
		}
	}
	return base, dests
}

// forward delivers t into dest over the numbered link, consulting the
// injector when one is active. It returns false when the network stopped
// before delivery. Fault-free networks take the two-case select and
// nothing else.
func (n *Network) forward(link int, dest chan token, t token) bool {
	if n.inj == nil {
		select {
		case dest <- t:
			return true
		case <-n.stop:
			return false
		}
	}
	for attempt := 0; ; attempt++ {
		v := n.inj.Next(link, attempt)
		if v.Forced {
			// The liveness valve overrode a loss: the network is degraded
			// enough that a plan exhausted MaxAttempts, which is exactly
			// the moment a black box should preserve. Trip only freezes
			// the recorder; its owner dumps it once the network is closed.
			if f := n.flight; f != nil {
				f.Trip("liveness-valve")
			}
		}
		if v.Drop {
			// Lost on the wire: back off and retransmit. The injector
			// guarantees at most faults.MaxAttempts consecutive drops.
			n.retries.Add(1)
			d := backoff.Exp(retryBase, retryCap, attempt)
			if o := n.obs; o != nil && o.retry != nil {
				o.retry.Observe(int64(d))
			}
			backoff.Pause(d)
			if o := n.obs; o != nil && o.tr != nil {
				// The retry is a causal hop of its own: Dur is the backoff
				// pause, Node the destination the token is stuck short of,
				// Value the link id. Chaining t.span through it makes storms
				// legible as span runs in the dump.
				sp := o.spans.Tick()
				o.tr.Record(obs.Event{T: o.clock(), Dur: int64(d), Kind: obs.KindRetry,
					P: t.proc, Tok: t.tok, Node: int32(n.inj.Dest(link)), Value: int64(link),
					Span: sp, Parent: t.span})
				t.span = sp
			}
			select {
			case <-n.stop:
				return false
			default:
			}
			continue
		}
		if v.DelayNs > 0 {
			// Link latency and stall pauses block the sender: a slow wire
			// is head-of-line blocking, not a free-running buffer.
			backoff.Pause(time.Duration(v.DelayNs))
		}
		if v.Dup {
			n.deliverAsync(dest, t, 0)
		}
		if v.Reorder {
			// Hand the token to a held-back courier and return: sends the
			// node issues next can overtake this one.
			n.deliverAsync(dest, t, reorderHold)
			return true
		}
		select {
		case dest <- t:
			return true
		case <-n.stop:
			return false
		}
	}
}

// deliverAsync delivers a copy of t from its own goroutine after an
// optional hold. The goroutine is tracked by n.done so Close still waits
// for every in-flight delivery attempt, and it aborts on n.stop. Once
// Close has begun no courier starts.
func (n *Network) deliverAsync(dest chan token, t token, hold time.Duration) {
	n.stopMu.RLock()
	defer n.stopMu.RUnlock()
	select {
	case <-n.stop:
		return
	default:
	}
	n.done.Add(1)
	go func() {
		defer n.done.Done()
		if hold > 0 {
			backoff.Pause(hold)
		}
		select {
		case dest <- t:
		case <-n.stop:
		}
	}()
}

// Faults returns the live fault injector, or nil when the network runs
// fault-free.
func (n *Network) Faults() *faults.Injector { return n.inj }

// Retries returns how many hop retransmissions the send paths have
// performed (zero on a fault-free network).
func (n *Network) Retries() int64 { return n.retries.Load() }

// Dedups returns how many duplicate token arrivals receivers have
// suppressed (zero on a fault-free network).
func (n *Network) Dedups() int64 { return n.dedups.Load() }

// registerFaultMetrics exposes the injector's tallies and the engine's
// retry/dedup counters on the registry. Everything is a GaugeFunc over
// an atomic, so the hot paths never touch the registry.
func registerFaultMetrics(m *obs.Registry, n *Network) {
	in := n.inj
	m.GaugeFunc("msgnet_fault_drops_total", func() float64 { return float64(in.Stats().Drops) })
	m.GaugeFunc("msgnet_fault_dups_total", func() float64 { return float64(in.Stats().Dups) })
	m.GaugeFunc("msgnet_fault_delays_total", func() float64 { return float64(in.Stats().Delays) })
	m.GaugeFunc("msgnet_fault_reorders_total", func() float64 { return float64(in.Stats().Reorders) })
	m.GaugeFunc("msgnet_fault_partition_drops_total", func() float64 { return float64(in.Stats().PartitionDrops) })
	m.GaugeFunc("msgnet_fault_crash_drops_total", func() float64 { return float64(in.Stats().CrashDrops) })
	m.GaugeFunc("msgnet_fault_stalls_total", func() float64 { return float64(in.Stats().Stalled) })
	m.GaugeFunc("msgnet_fault_forced_total", func() float64 { return float64(in.Stats().Forced) })
	m.GaugeFunc("msgnet_retries_total", func() float64 { return float64(n.retries.Load()) })
	m.GaugeFunc("msgnet_dedup_total", func() float64 { return float64(n.dedups.Load()) })
}
