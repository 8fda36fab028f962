package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func sampleEvents() []Event {
	return []Event{
		{T: 100, Kind: KindEnter, P: 0, Tok: 0, Node: 0, Value: -1},
		{T: 350, Dur: 250, Kind: KindBalancer, P: 0, Tok: 0, Node: 0, Value: -1},
		{T: 360, Dur: 10, Kind: KindLink, P: 0, Tok: 0, Node: 0, Value: -1},
		{T: 610, Dur: 250, Kind: KindDiffract, P: 1, Tok: 1, Node: 1, Value: -1},
		{T: 700, Dur: 40, Kind: KindCounter, P: 0, Tok: 0, Node: 2, Value: 0},
		{T: 700, Kind: KindExit, P: 0, Tok: 0, Node: -1, Value: 0},
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	meta := Meta{Engine: "sim", Unit: "cycles", Net: "bitonic", Width: 4}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, meta, sampleEvents()); err != nil {
		t.Fatal(err)
	}
	gotMeta, got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if gotMeta != meta {
		t.Fatalf("meta round-trip: got %+v, want %+v", gotMeta, meta)
	}
	want := sampleEvents()
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d round-trip: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestReadJSONLRejectsGarbage(t *testing.T) {
	if _, _, err := ReadJSONL(strings.NewReader("not json")); err == nil {
		t.Fatal("ReadJSONL accepted garbage")
	}
	if _, _, err := ReadJSONL(strings.NewReader(`{"t":1,"kind":"enter","p":0,"tok":0,"node":0}`)); err == nil {
		t.Fatal("ReadJSONL accepted a trace without a meta header")
	}
	if _, _, err := ReadJSONL(strings.NewReader(
		`{"meta":{"engine":"sim","unit":"cycles"}}` + "\n" + `{"t":1,"kind":"bogus","p":0,"tok":0,"node":0}`)); err == nil {
		t.Fatal("ReadJSONL accepted an unknown event kind")
	}
}

// TestChromeTraceLossless verifies the JSONL → Chrome conversion is
// lossless for event ordering and timestamps: the traceEvents array keeps
// the input order and carries every native timestamp (and duration)
// verbatim in args.
func TestChromeTraceLossless(t *testing.T) {
	for _, unit := range []string{"cycles", "ns"} {
		meta := Meta{Engine: "shm", Unit: unit, Net: "dtree", Width: 8}
		events := sampleEvents()

		// The JSONL → Chrome pipeline: serialize, re-read, convert.
		var jsonl bytes.Buffer
		if err := WriteJSONL(&jsonl, meta, events); err != nil {
			t.Fatal(err)
		}
		meta2, events2, err := ReadJSONL(&jsonl)
		if err != nil {
			t.Fatal(err)
		}
		var chrome bytes.Buffer
		if err := WriteChromeTrace(&chrome, meta2, events2); err != nil {
			t.Fatal(err)
		}

		var doc struct {
			TraceEvents []struct {
				Name  string         `json:"name"`
				Phase string         `json:"ph"`
				TS    float64        `json:"ts"`
				Args  map[string]any `json:"args"`
			} `json:"traceEvents"`
			OtherData Meta `json:"otherData"`
		}
		if err := json.Unmarshal(chrome.Bytes(), &doc); err != nil {
			t.Fatalf("chrome trace is not valid JSON (%s): %v", unit, err)
		}
		if doc.OtherData != meta {
			t.Fatalf("meta lost in conversion: got %+v, want %+v", doc.OtherData, meta)
		}
		if len(doc.TraceEvents) != len(events) {
			t.Fatalf("chrome trace has %d events, want %d", len(doc.TraceEvents), len(events))
		}
		for i, ce := range doc.TraceEvents {
			ev := events[i]
			gotT := int64(ce.Args["t"].(float64))
			if gotT != ev.T {
				t.Fatalf("event %d: args.t = %d, want %d (order or timestamp lost)", i, gotT, ev.T)
			}
			if ev.Dur > 0 {
				if ce.Phase != "X" {
					t.Fatalf("event %d: spanned event has phase %q, want X", i, ce.Phase)
				}
				if int64(ce.Args["dur"].(float64)) != ev.Dur {
					t.Fatalf("event %d: args.dur = %v, want %d", i, ce.Args["dur"], ev.Dur)
				}
			} else if ce.Phase != "i" {
				t.Fatalf("event %d: instant event has phase %q, want i", i, ce.Phase)
			}
			if !strings.HasPrefix(ce.Name, ev.Kind.String()) {
				t.Fatalf("event %d: name %q does not carry kind %q", i, ce.Name, ev.Kind)
			}
		}
		// ts values must be monotone when the native timestamps are —
		// ordering survives the unit scaling.
		for i := 1; i < len(doc.TraceEvents); i++ {
			a, b := doc.TraceEvents[i-1], doc.TraceEvents[i]
			sa, sb := events[i-1].T-events[i-1].Dur, events[i].T-events[i].Dur
			if sa <= sb && a.TS > b.TS {
				t.Fatalf("ts ordering inverted at %d: %f > %f (%s)", i, a.TS, b.TS, unit)
			}
		}
	}
}

func TestExportFilePicksFormat(t *testing.T) {
	meta := Meta{Engine: "sim", Unit: "cycles"}
	var buf bytes.Buffer
	if err := ExportFile(&buf, "trace.jsonl", meta, sampleEvents()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadJSONL(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("jsonl suffix did not produce JSONL: %v", err)
	}
	buf.Reset()
	if err := ExportFile(&buf, "trace.json", meta, sampleEvents()); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("json suffix did not produce a chrome trace: %v", err)
	}
	if _, ok := doc["traceEvents"]; !ok {
		t.Fatal("chrome trace missing traceEvents")
	}
}

// TestWriteFile: the file holds exactly what ExportFile writes for its
// name, and a path that cannot be created is an error.
func TestWriteFile(t *testing.T) {
	meta := Meta{Engine: "schedule", Unit: "cycles"}
	dir := t.TempDir()
	for _, name := range []string{"trace.jsonl", "trace.json"} {
		path := filepath.Join(dir, name)
		if err := WriteFile(path, meta, sampleEvents()); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := ExportFile(&want, name, meta, sampleEvents()); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s: file differs from ExportFile output", name)
		}
	}
	if err := WriteFile(filepath.Join(dir, "missing", "t.jsonl"), meta, nil); err == nil {
		t.Error("WriteFile into a missing directory succeeded")
	}
}

// TestJSONLSpanRoundTrip pins the causal fields on the wire: span/parent
// survive a JSONL round trip and stay absent (omitempty) on uncausal
// events, so traces from unstamped runs are byte-identical to before.
func TestJSONLSpanRoundTrip(t *testing.T) {
	meta := Meta{Engine: "msgnet", Unit: "ns", Reason: "liveness-valve"}
	events := []Event{
		{T: 1, Kind: KindEnter, P: 0, Tok: 0, Node: -1, Value: -1, Span: 7},
		{T: 2, Dur: 1, Kind: KindRetry, P: 0, Tok: 0, Node: 3, Value: 1, Span: 9, Parent: 7},
		{T: 3, Kind: KindDedup, P: 1, Tok: 0, Node: 1, Value: -1, Span: 12, Parent: 9},
		{T: 4, Kind: KindExit, P: 0, Tok: 0, Node: -1, Value: 0},
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, meta, events); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `"kind":"exit","p":0,"tok":0,"node":-1,"value":0,"span"`) ||
		strings.Count(buf.String(), `"span"`) != 3 {
		t.Fatalf("span fields not omitted on uncausal events:\n%s", buf.String())
	}
	gotMeta, got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if gotMeta != meta {
		t.Fatalf("meta round-trip: got %+v, want %+v", gotMeta, meta)
	}
	for i := range events {
		if got[i] != events[i] {
			t.Fatalf("event %d round-trip: got %+v, want %+v", i, got[i], events[i])
		}
	}
}

// TestChromeTraceFlowEvents checks causal edges become flow-event pairs:
// ph "s" anchored on the parent's track and timestamp, ph "f" with
// bp "e" on the child's, keyed by the child's span id. Edges whose
// parent is missing from the trace emit nothing.
func TestChromeTraceFlowEvents(t *testing.T) {
	meta := Meta{Engine: "msgnet", Unit: "ns"}
	events := []Event{
		{T: 100, Kind: KindBalancer, P: 0, Tok: 0, Node: 0, Value: -1, Span: 5},
		{T: 300, Dur: 50, Kind: KindCounter, P: 2, Tok: 0, Node: 4, Value: 1, Span: 8, Parent: 5},
		{T: 400, Kind: KindDedup, P: 1, Tok: 0, Node: 4, Value: -1, Span: 9, Parent: 99}, // parent absent
	}
	var chrome bytes.Buffer
	if err := WriteChromeTrace(&chrome, meta, events); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string  `json:"name"`
			Cat   string  `json:"cat"`
			Phase string  `json:"ph"`
			TS    float64 `json:"ts"`
			TID   int32   `json:"tid"`
			ID    uint64  `json:"id"`
			BP    string  `json:"bp"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	var starts, finishes []int
	for i, ce := range doc.TraceEvents {
		switch ce.Phase {
		case "s":
			starts = append(starts, i)
		case "f":
			finishes = append(finishes, i)
		}
	}
	if len(starts) != 1 || len(finishes) != 1 {
		t.Fatalf("got %d flow starts, %d finishes; want 1 each (orphan edge must emit none)", len(starts), len(finishes))
	}
	s, f := doc.TraceEvents[starts[0]], doc.TraceEvents[finishes[0]]
	if s.ID != 8 || f.ID != 8 {
		t.Fatalf("flow pair keyed by ids %d/%d, want the child span 8", s.ID, f.ID)
	}
	if s.Cat != "causal" || f.Cat != "causal" || f.BP != "e" {
		t.Fatalf("flow pair malformed: start %+v finish %+v", s, f)
	}
	// Start binds to the parent's track/time; finish to the child slice
	// start (T-Dur) on the child's track.
	scale := chromeScale(meta.Unit)
	if s.TID != 0 || s.TS != 100*scale {
		t.Fatalf("flow start at tid %d ts %f, want parent track 0 ts %f", s.TID, s.TS, 100*scale)
	}
	if f.TID != 2 || f.TS != 250*scale {
		t.Fatalf("flow finish at tid %d ts %f, want child track 2 ts %f", f.TID, f.TS, 250*scale)
	}
}
