package conformance

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"countnet/internal/bitonic"
	"countnet/internal/obs"
	"countnet/internal/schedule"
)

// violatingSchedule synthesizes a concrete schedule with at least one
// linearizability violation (c2 = 4*c1, where the search provably can find
// one for Bitonic[4]).
func violatingSchedule(t *testing.T) *schedule.Concrete {
	t.Helper()
	g, err := bitonic.New(4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := schedule.Search(g, schedule.SearchSpec{
		C1: 10, C2: 40, Tokens: 10, Rounds: 400, Restarts: 4, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations < 1 {
		t.Skip("search found no violation under this seed")
	}
	return res.Concrete("bitonic", 4, 10, 40)
}

// TestTraceWitness checks violation correlation end to end: the witness
// pair exists, the window covers both its operations, every sliced event
// overlaps the window, and the slice survives a Chrome-format export.
func TestTraceWitness(t *testing.T) {
	c := violatingSchedule(t)
	g, err := bitonic.New(4)
	if err != nil {
		t.Fatal(err)
	}
	wt, ok, err := TraceWitness(g, c)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("violating schedule produced no witness")
	}
	w := wt.Witness
	if w.Preceding.End >= w.Violated.Start {
		t.Fatalf("witness pair not ordered: %s", w)
	}
	if w.Preceding.Value <= w.Violated.Value {
		t.Fatalf("witness pair is not a violation: %s", w)
	}
	if wt.From > w.Preceding.Start || wt.To < w.Violated.End {
		t.Fatalf("window [%d,%d] does not cover witness pair %s", wt.From, wt.To, w)
	}
	if len(wt.Events) == 0 {
		t.Fatal("empty trace slice")
	}
	for _, ev := range wt.Events {
		if ev.T < wt.From || ev.T > wt.To {
			t.Fatalf("event %+v outside window [%d,%d]", ev, wt.From, wt.To)
		}
	}
	// The violated token's counter event must be inside the slice — that
	// is the point of the correlation.
	var counters int
	for _, ev := range wt.Events {
		if ev.Kind == obs.KindCounter && ev.Value == w.Violated.Value {
			counters++
		}
	}
	if counters != 1 {
		t.Fatalf("violated operation's counter event appears %d times in the slice", counters)
	}

	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, wt.Meta, wt.Events); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome trace has no events")
	}

	path := filepath.Join(t.TempDir(), "witness.trace.json")
	if err := wt.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, buf.Bytes()) {
		t.Fatal("WriteFile and obs.WriteChromeTrace disagree for a .json path")
	}
}

// TestTraceWitnessCleanSchedule pins ok=false on a violation-free run.
func TestTraceWitnessCleanSchedule(t *testing.T) {
	g, err := bitonic.New(4)
	if err != nil {
		t.Fatal(err)
	}
	c := &schedule.Concrete{Net: "bitonic", Width: 4, C1: 10, C2: 20}
	for k := 0; k < 6; k++ {
		c.Tokens = append(c.Tokens, schedule.ConcreteToken{
			Time: int64(k * 100), Input: k % g.InWidth(),
			Delays: []int64{10, 15, 20},
		})
	}
	if _, ok, err := TraceWitness(g, c); err != nil {
		t.Fatal(err)
	} else if ok {
		t.Fatal("c2 <= 2*c1 schedule reported a witness")
	}
}

// TestWitnessFlightDump is the acceptance check for the violation black
// box: a lincheck violation yields a flight dump whose causal (span)
// order agrees with the witness pair — the preceding operation's counter
// event happens-before the violated one's — and whose trace is causally
// closed with per-token chains intact.
func TestWitnessFlightDump(t *testing.T) {
	c := violatingSchedule(t)
	g, err := bitonic.New(4)
	if err != nil {
		t.Fatal(err)
	}
	wt, ok, err := TraceWitness(g, c)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("violating schedule produced no witness")
	}
	path := filepath.Join(t.TempDir(), "flight.jsonl")
	if err := wt.DumpFlight(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	meta, events, err := obs.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Reason != "lincheck-violation" {
		t.Fatalf("dump reason = %q", meta.Reason)
	}
	if closed, orphans := obs.CausalClosure(events); orphans != 0 || len(closed) != len(events) {
		t.Fatalf("flight dump not causally closed: %d orphans", orphans)
	}
	// Per-token chains: walking in span order, each event's parent is the
	// token's previous span.
	lastSpan := map[int32]uint64{}
	sort.Slice(events, func(i, j int) bool { return events[i].Span < events[j].Span })
	var precedingSpan, violatedSpan uint64
	w := wt.Witness
	for _, ev := range events {
		if ev.Span == 0 {
			t.Fatalf("unstamped event in flight dump: %+v", ev)
		}
		if ev.Parent != lastSpan[ev.Tok] {
			t.Fatalf("token %d chain broken at %+v (want parent %d)", ev.Tok, ev, lastSpan[ev.Tok])
		}
		lastSpan[ev.Tok] = ev.Span
		if ev.Kind == obs.KindCounter {
			switch ev.Value {
			case w.Preceding.Value:
				precedingSpan = ev.Span
			case w.Violated.Value:
				violatedSpan = ev.Span
			}
		}
	}
	if precedingSpan == 0 || violatedSpan == 0 {
		t.Fatalf("witness pair counter events missing from dump (preceding=%d violated=%d)",
			precedingSpan, violatedSpan)
	}
	// The preceding op finished before the violated one started, so its
	// count happens-before the violated count: span order must agree.
	if precedingSpan >= violatedSpan {
		t.Fatalf("dump causal order contradicts witness pair: preceding span %d >= violated span %d",
			precedingSpan, violatedSpan)
	}
}
