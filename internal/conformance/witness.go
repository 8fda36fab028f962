package conformance

import (
	"fmt"

	"countnet/internal/lincheck"
	"countnet/internal/obs"
	"countnet/internal/schedule"
	"countnet/internal/topo"
)

// WitnessTrace is a violation correlated with its execution trace: the
// FirstWitness pair reported by lincheck plus the slice of transition
// events inside the minimal time window covering both operations. Written
// next to a shrunken reproducer it gives every fuzz failure a visual
// timeline.
type WitnessTrace struct {
	Witness  lincheck.Witness
	From, To int64 // the window [From, To] in schedule time units
	Events   []obs.Event
	Meta     obs.Meta

	// all is the full stamped transition trace the window was cut from;
	// DumpFlight preserves it whole so causal chains reaching outside the
	// witness window survive in the black-box artifact.
	all []obs.Event
}

// TraceWitness reruns the concrete schedule with tracing on the timed
// executor and correlates the first linearizability witness with the
// transition trace. ok is false when the schedule has no violation.
func TraceWitness(g *topo.Graph, c *schedule.Concrete) (wt *WitnessTrace, ok bool, err error) {
	res, err := c.Run(g, schedule.Options{Trace: true})
	if err != nil {
		return nil, false, fmt.Errorf("witness trace: %w", err)
	}
	w, ok := lincheck.FirstWitness(res.Ops)
	if !ok {
		return nil, false, nil
	}
	from, to := w.Preceding.Start, w.Violated.End
	if w.Violated.Start < from {
		from = w.Violated.Start
	}
	if w.Preceding.End > to {
		to = w.Preceding.End
	}
	return &WitnessTrace{
		Witness: w,
		From:    from,
		To:      to,
		Events:  obs.Window(res.Events, from, to),
		Meta:    obs.Meta{Engine: "schedule", Unit: "cycles", Net: c.Net, Width: c.Width},
		all:     res.Events,
	}, true, nil
}

// DumpFlight writes the violation's black box: the full stamped
// transition trace pushed through a flight recorder and tripped with
// reason "lincheck-violation", so a shrunken fuzz failure leaves the same
// artifact a chaos run's liveness valve would. Returns the path written.
func (wt *WitnessTrace) DumpFlight(path string) (string, error) {
	n := len(wt.all)
	if n == 0 {
		n = 1
	}
	f := obs.NewFlight(wt.Meta, 1, n)
	for _, ev := range wt.all {
		f.Record(ev)
	}
	f.SetAutoDump(path)
	return f.Trip("lincheck-violation")
}

// WriteFile writes the slice to path, picking JSONL or Chrome format from
// the extension as obs.ExportFile does.
func (wt *WitnessTrace) WriteFile(path string) error {
	return obs.WriteFile(path, wt.Meta, wt.Events)
}
