package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// Meta describes the run a trace came from: which engine produced it, the
// timestamp unit ("cycles" or "ns"), the workload identity, and — on
// flight-recorder dumps — the reason the recorder fired.
type Meta struct {
	Engine string `json:"engine"`
	Unit   string `json:"unit"`
	Net    string `json:"net,omitempty"`
	Width  int    `json:"width,omitempty"`
	Reason string `json:"reason,omitempty"`
}

// jsonlEvent is the JSONL wire form of one event.
type jsonlEvent struct {
	T      int64  `json:"t"`
	Dur    int64  `json:"dur,omitempty"`
	Kind   string `json:"kind"`
	P      int32  `json:"p"`
	Tok    int32  `json:"tok"`
	Node   int32  `json:"node"`
	Value  *int64 `json:"value,omitempty"`
	Span   uint64 `json:"span,omitempty"`
	Parent uint64 `json:"parent,omitempty"`
}

// kindFromString inverts Kind.String.
func kindFromString(s string) (Kind, error) {
	for k := KindEnter; k <= kindMax; k++ {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("obs: unknown event kind %q", s)
}

// WriteJSONL emits the trace as JSON Lines: a meta header line
// {"meta": {...}} followed by one event object per line, in slice order.
func WriteJSONL(w io.Writer, meta Meta, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(struct {
		Meta Meta `json:"meta"`
	}{meta}); err != nil {
		return err
	}
	for _, ev := range events {
		rec := jsonlEvent{T: ev.T, Dur: ev.Dur, Kind: ev.Kind.String(), P: ev.P, Tok: ev.Tok, Node: ev.Node,
			Span: ev.Span, Parent: ev.Parent}
		if ev.Value >= 0 {
			v := ev.Value
			rec.Value = &v
		}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a trace written by WriteJSONL, preserving event order.
func ReadJSONL(r io.Reader) (Meta, []Event, error) {
	dec := json.NewDecoder(r)
	var header struct {
		Meta *Meta `json:"meta"`
	}
	if err := dec.Decode(&header); err != nil {
		return Meta{}, nil, fmt.Errorf("obs: trace header: %w", err)
	}
	if header.Meta == nil {
		return Meta{}, nil, fmt.Errorf("obs: trace missing meta header line")
	}
	var out []Event
	for {
		var rec jsonlEvent
		if err := dec.Decode(&rec); err == io.EOF {
			break
		} else if err != nil {
			return Meta{}, nil, fmt.Errorf("obs: trace line %d: %w", len(out)+2, err)
		}
		k, err := kindFromString(rec.Kind)
		if err != nil {
			return Meta{}, nil, fmt.Errorf("obs: trace line %d: %w", len(out)+2, err)
		}
		ev := Event{T: rec.T, Dur: rec.Dur, Kind: k, P: rec.P, Tok: rec.Tok, Node: rec.Node, Value: -1,
			Span: rec.Span, Parent: rec.Parent}
		if rec.Value != nil {
			ev.Value = *rec.Value
		}
		out = append(out, ev)
	}
	return *header.Meta, out, nil
}

// chromeEvent is one entry of the Chrome trace_event "traceEvents" array.
// Spanned events are complete events (ph "X"), instants are ph "i".
// Timestamps are microseconds per the format; the original native-unit
// timestamp rides along losslessly in args.t (and args.dur).
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   *float64       `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int32          `json:"tid"`
	ID    uint64         `json:"id,omitempty"`
	BP    string         `json:"bp,omitempty"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// chromeScale converts a native timestamp to trace_event microseconds:
// nanoseconds are divided by 1000; cycles map 1:1 onto microseconds (only
// relative durations matter in a simulation).
func chromeScale(unit string) float64 {
	if unit == "ns" {
		return 1.0 / 1000
	}
	return 1
}

// WriteChromeTrace emits the trace in Chrome trace_event format (a JSON
// object with a traceEvents array), which Perfetto and chrome://tracing
// open directly. One track (tid) per processor; spanned events become
// complete events whose slice covers [T-Dur, T]. Causal edges (Parent
// span ids whose parent event is in the trace) are additionally emitted
// as flow events (ph "s"/"f"), so Perfetto draws arrows between the hops
// of a token's journey across tracks and nodes.
func WriteChromeTrace(w io.Writer, meta Meta, events []Event) error {
	bw := bufio.NewWriter(w)
	scale := chromeScale(meta.Unit)
	metaJSON, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	fmt.Fprintf(bw, "{\"displayTimeUnit\":\"ms\",\"otherData\":%s,\"traceEvents\":[\n", metaJSON)
	enc := json.NewEncoder(bw)
	enc.SetEscapeHTML(false)
	first := true
	emit := func(ce chromeEvent) error {
		if !first {
			fmt.Fprint(bw, ",")
		}
		first = false
		return enc.Encode(ce)
	}
	bySpan := make(map[uint64]Event)
	for _, ev := range events {
		if ev.Span != 0 {
			bySpan[ev.Span] = ev
		}
	}
	for _, ev := range events {
		ce := chromeEvent{
			Name:  ev.Kind.String(),
			Phase: "i",
			Scope: "t",
			TS:    float64(ev.T) * scale,
			PID:   1,
			TID:   ev.P,
			Args:  map[string]any{"t": ev.T, "tok": ev.Tok},
		}
		if ev.Node >= 0 {
			ce.Name = fmt.Sprintf("%s n%d", ev.Kind, ev.Node)
			ce.Args["node"] = ev.Node
		}
		if ev.Value >= 0 {
			ce.Args["value"] = ev.Value
		}
		if ev.Span != 0 {
			ce.Args["span"] = ev.Span
			if ev.Parent != 0 {
				ce.Args["parent"] = ev.Parent
			}
		}
		if ev.Dur > 0 {
			ce.Phase = "X"
			ce.Scope = ""
			ce.TS = float64(ev.T-ev.Dur) * scale
			d := float64(ev.Dur) * scale
			ce.Dur = &d
			ce.Args["dur"] = ev.Dur
		}
		if err := emit(ce); err != nil {
			return err
		}
	}
	// Flow section: one s/f pair per causal edge whose parent is present.
	// The start binds to the parent's slice at its end timestamp, the
	// finish ("bp":"e") to the enclosing child slice at its start, which
	// is what makes Perfetto draw the arrow parent -> child. The child's
	// span id keys the pair (edges are 1:1 with child events, so ids
	// never collide).
	for _, ev := range events {
		if ev.Span == 0 || ev.Parent == 0 {
			continue
		}
		parent, ok := bySpan[ev.Parent]
		if !ok {
			continue
		}
		childStart := ev.T
		if ev.Dur > 0 {
			childStart = ev.T - ev.Dur
		}
		if err := emit(chromeEvent{
			Name: "causal", Cat: "causal", Phase: "s", ID: ev.Span,
			TS: float64(parent.T) * scale, PID: 1, TID: parent.P,
			Args: map[string]any{"span": ev.Parent},
		}); err != nil {
			return err
		}
		if err := emit(chromeEvent{
			Name: "causal", Cat: "causal", Phase: "f", BP: "e", ID: ev.Span,
			TS: float64(childStart) * scale, PID: 1, TID: ev.P,
			Args: map[string]any{"span": ev.Span},
		}); err != nil {
			return err
		}
	}
	fmt.Fprint(bw, "]}\n")
	return bw.Flush()
}

// ExportFile writes events to w in the format implied by the file name:
// ".jsonl" means JSON Lines, anything else Chrome trace_event.
func ExportFile(w io.Writer, name string, meta Meta, events []Event) error {
	if strings.HasSuffix(name, ".jsonl") {
		return WriteJSONL(w, meta, events)
	}
	return WriteChromeTrace(w, meta, events)
}

// WriteFile creates the file at path and writes events to it in the
// format ExportFile picks from the name.
func WriteFile(path string, meta Meta, events []Event) error {
	return createFile(path, func(w io.Writer) error { return ExportFile(w, path, meta, events) })
}

// createFile creates the file at path and fills it with write.
func createFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
