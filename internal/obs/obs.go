// Package obs is the shared observability layer of the three execution
// engines (internal/sim, internal/shm, internal/msgnet): a low-overhead
// structured-event tracer with a lock-free per-processor ring recorder
// (tripped and dumped, the same ring is the flight recorder), an
// online metrics registry (counters, gauges, min/max trackers, log-bucketed
// latency histograms, and a live (Tog+W)/Tog ratio that is a read-only view
// of an engine's toggle-wait histogram, so each wait is recorded once), and
// exporters to JSON Lines and the Chrome trace_event format so any run
// opens directly in Perfetto (https://ui.perfetto.dev).
//
// The design goal is that tracing disabled costs nothing on the hot path:
// engines hold a nil Tracer (or the value type Nop) and guard every Record
// with a nil check, and Nop.Record compiles to an empty inlined call with
// zero allocations (locked down by an AllocsPerRun test).
package obs

import "fmt"

// Kind classifies one trace event.
type Kind uint8

// Event kinds. The lifecycle of one counting operation is Enter, then for
// every network node either Balancer (toggle critical section), Diffract
// (prism pairing), or Counter (output fetch-and-increment), interleaved
// with Link events for the wire hops between nodes, and finally Exit with
// the returned counter value.
const (
	// KindEnter marks a token entering the network.
	KindEnter Kind = iota + 1
	// KindBalancer marks a token passing a balancer's toggle; Dur is the
	// time from arrival at the node to leaving the critical section — the
	// paper's Tog contribution of this traversal.
	KindBalancer
	// KindDiffract marks a token leaving a balancer by prism pairing
	// instead of the toggle; Dur is the prism wait plus pairing time.
	KindDiffract
	// KindCounter marks a token taking a value from an output counter.
	KindCounter
	// KindLink marks a wire hop between nodes; Node is the node the wire
	// leaves and Dur the traversal time (the quantity c1/c2 bound).
	KindLink
	// KindExit marks operation completion; Value holds the counter value.
	KindExit
	// KindRetry marks one retransmission of a dropped hop on the faulty
	// message-passing send path: Dur is the backoff pause before the
	// retry, Node the node the delivery was headed for, and Value the
	// link id of the dropped wire (fault verdicts carry span ids through
	// these events).
	KindRetry
	// KindDedup marks a receiver suppressing a faulty duplicate delivery;
	// Node is the receiver. The duplicate's causal chain ends here.
	KindDedup
)

// kindMax is the highest defined Kind, the upper bound of kind loops.
const kindMax = KindDedup

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindEnter:
		return "enter"
	case KindBalancer:
		return "balancer"
	case KindDiffract:
		return "diffract"
	case KindCounter:
		return "counter"
	case KindLink:
		return "link"
	case KindExit:
		return "exit"
	case KindRetry:
		return "retry"
	case KindDedup:
		return "dedup"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is one structured trace record. Timestamps are in the engine's
// native unit — simulator cycles or wall-clock nanoseconds (Meta.Unit says
// which); only their relative order and differences matter.
type Event struct {
	// T is the event timestamp (for spanned events, the end of the span).
	T int64
	// Dur is the duration of the spanned work; 0 for instant events.
	Dur int64
	// Kind classifies the event.
	Kind Kind
	// P is the processor (simulated processor, worker goroutine, or node
	// goroutine) that produced the event; it selects the recorder shard.
	P int32
	// Tok is the token (operation) id, -1 when not applicable.
	Tok int32
	// Node is the network node id, -1 when not applicable.
	Node int32
	// Value is the counter value on Exit/Counter events, the link id on
	// Retry events, and -1 otherwise.
	Value int64
	// Span is the event's causal span id: a Lamport timestamp drawn from
	// the run's shared Clock, unique within the trace and strictly greater
	// than Parent. 0 when causal stamping is off.
	Span uint64
	// Parent is the span id of the event that causally precedes this one
	// on the token's path — the previous hop, the send a retry
	// retransmits, or the original delivery a duplicate shadows. 0 for
	// chain roots (Enter events) and uncausal traces.
	Parent uint64
}

// Tracer receives trace events. Implementations must tolerate concurrent
// Record calls from distinct P values; events with the same P are always
// recorded by at most one goroutine at a time (each processor records only
// its own actions).
type Tracer interface {
	Record(Event)
}

// Nop is the disabled tracer: Record does nothing, allocates nothing, and
// inlines to nothing.
type Nop struct{}

// Record implements Tracer.
func (Nop) Record(Event) {}

// Tee returns a tracer forwarding every event to both a and b, dropping
// nil branches: Tee(a, nil) is a itself, so the extra dispatch is only
// paid when both sinks are live. It is how an engine feeds a full-trace
// ring and a tripping flight ring from one Record stream.
func Tee(a, b Tracer) Tracer {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return tee{a, b}
}

// tee is the two-sink fan-out tracer built by Tee.
type tee struct{ a, b Tracer }

// Record implements Tracer.
func (t tee) Record(ev Event) {
	t.a.Record(ev)
	t.b.Record(ev)
}

// Window returns the events whose span overlaps the closed interval
// [from, to] — the minimal trace slice covering a time window, used to cut
// a violation witness out of a full run. The input order is preserved.
func Window(events []Event, from, to int64) []Event {
	var out []Event
	for _, ev := range events {
		dur := ev.Dur
		if dur < 0 {
			dur = 0
		}
		// Span is [T-Dur, T]; keep events whose span overlaps [from, to].
		if ev.T >= from && ev.T-dur <= to {
			out = append(out, ev)
		}
	}
	return out
}

// Interface compliance.
var _ Tracer = Nop{}
var _ Tracer = (*Ring)(nil)
