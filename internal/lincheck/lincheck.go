// Package lincheck measures how linearizable a counting execution was, in
// the sense of Definitions 2.3 and 2.4 of "Counting Networks are Practically
// Linearizable": an operation O is non-linearizable if some other operation
// O' completely precedes O in time (O'.End < O.Start) yet returned a higher
// counter value. The non-linearizability ratio of an execution is the
// fraction of non-linearizable operations — the quantity plotted in
// Figures 5 and 6 of the paper.
//
//countnet:deterministic
package lincheck

import (
	"fmt"
	"sort"
	"sync"
)

// Op is one completed counting operation: the token entered the network at
// Start, exited with Value at End. Times are in whatever monotone unit the
// execution engine uses (simulator cycles or nanoseconds); only their order
// matters.
type Op struct {
	Start int64
	End   int64
	Value int64
}

// Report summarizes the linearizability analysis of an execution.
type Report struct {
	// Total is the number of operations analyzed.
	Total int
	// NonLinearizable is the number of operations for which some
	// completely-preceding operation returned a higher value.
	NonLinearizable int
	// MaxInversion is the largest value gap observed: max over violated
	// operations O of (max preceding value) - O.Value. Zero when there are
	// no violations.
	MaxInversion int64
	// FirstViolation indexes (into the analyzed slice, sorted by start
	// time) the earliest-starting violated operation, or -1.
	FirstViolation int
}

// Ratio returns the fraction of non-linearizable operations.
func (r Report) Ratio() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.NonLinearizable) / float64(r.Total)
}

// Linearizable reports whether no violations were observed.
//
//countnet:allow apivet -- the verdict predicate the tests of eight packages assert on
func (r Report) Linearizable() bool { return r.NonLinearizable == 0 }

// String renders the report in one line.
func (r Report) String() string {
	return fmt.Sprintf("%d/%d non-linearizable (%.3f%%), max inversion %d",
		r.NonLinearizable, r.Total, 100*r.Ratio(), r.MaxInversion)
}

// opLess is the canonical operation order: by start, then end, then value.
// Using a total order keeps indices such as Report.FirstViolation
// deterministic under ties.
func opLess(a, b Op) bool {
	if a.Start != b.Start {
		return a.Start < b.Start
	}
	if a.End != b.End {
		return a.End < b.End
	}
	return a.Value < b.Value
}

// Analyze computes the Report for an execution in O(n log n) time with
// one watermark sweep (see sweep). The input slice is not modified.
func Analyze(ops []Op) Report {
	r := Report{Total: len(ops), FirstViolation: -1}
	sweep(ops, func(i int, op Op, maxEnded int64) {
		r.NonLinearizable++
		if inv := maxEnded - op.Value; inv > r.MaxInversion {
			r.MaxInversion = inv
		}
		if r.FirstViolation == -1 {
			r.FirstViolation = i
		}
	})
	return r
}

// sweep visits every violated operation in canonical start order
// (opLess): it walks the operations by start time while maintaining the
// watermark, the maximum value among operations that ended strictly
// before the sweep point, and calls visit with the operation's index in
// that order and the watermark whenever the watermark exceeds the
// operation's value. The input slice is not modified.
func sweep(ops []Op, visit func(i int, op Op, maxEnded int64)) {
	if len(ops) == 0 {
		return
	}
	byStart := make([]Op, len(ops))
	copy(byStart, ops)
	sort.Slice(byStart, func(i, j int) bool { return opLess(byStart[i], byStart[j]) })
	byEnd := make([]Op, len(ops))
	copy(byEnd, ops)
	sort.Slice(byEnd, func(i, j int) bool { return byEnd[i].End < byEnd[j].End })

	var maxEnded int64
	haveEnded := false
	j := 0
	for i, op := range byStart {
		for j < len(byEnd) && byEnd[j].End < op.Start {
			if !haveEnded || byEnd[j].Value > maxEnded {
				maxEnded = byEnd[j].Value
				haveEnded = true
			}
			j++
		}
		if haveEnded && maxEnded > op.Value {
			visit(i, op, maxEnded)
		}
	}
}

// AnalyzeBrute computes the same Report by the O(n^2) definition. It exists
// as a cross-checking oracle for Analyze and for tests.
func AnalyzeBrute(ops []Op) Report {
	r := Report{Total: len(ops), FirstViolation: -1}
	byStart := make([]Op, len(ops))
	copy(byStart, ops)
	sort.Slice(byStart, func(i, j int) bool { return opLess(byStart[i], byStart[j]) })
	for i, op := range byStart {
		violated := false
		for _, prior := range byStart {
			if prior.End < op.Start && prior.Value > op.Value {
				violated = true
				if inv := prior.Value - op.Value; inv > r.MaxInversion {
					r.MaxInversion = inv
				}
			}
		}
		if violated {
			r.NonLinearizable++
			if r.FirstViolation == -1 {
				r.FirstViolation = i
			}
		}
	}
	return r
}

// Violations returns the violated operations (sorted by start time),
// each paired with the highest value returned by an operation that
// completely preceded it.
func Violations(ops []Op) []Violation {
	var out []Violation
	sweep(ops, func(_ int, op Op, maxEnded int64) {
		out = append(out, Violation{Op: op, PrecedingMax: maxEnded})
	})
	return out
}

// Violation describes one non-linearizable operation.
type Violation struct {
	Op           Op
	PrecedingMax int64 // highest value returned by a completely-preceding op
}

// Witness pairs a violated operation with a concrete operation that proves
// the violation: Preceding ended strictly before Violated started yet
// returned a higher value. The conformance shrinker keys its minimization
// on witnesses — a two-operation reproducer is exactly one witness.
type Witness struct {
	Violated  Op
	Preceding Op
}

// String renders the witness in one line.
func (w Witness) String() string {
	return fmt.Sprintf("op [%d,%d]->%d violated by preceding [%d,%d]->%d",
		w.Violated.Start, w.Violated.End, w.Violated.Value,
		w.Preceding.Start, w.Preceding.End, w.Preceding.Value)
}

// FirstWitness returns a witness for the earliest-starting violated
// operation (the one Report.FirstViolation indexes), choosing as Preceding
// the completely-preceding operation with the highest value. ok is false
// when the execution is linearizable.
func FirstWitness(ops []Op) (w Witness, ok bool) {
	viols := Violations(ops)
	if len(viols) == 0 {
		return Witness{}, false
	}
	v := viols[0]
	w.Violated = v.Op
	found := false
	for _, prior := range ops {
		if prior.End < v.Op.Start && prior.Value == v.PrecedingMax {
			if !found || opLess(prior, w.Preceding) {
				w.Preceding = prior
				found = true
			}
		}
	}
	return w, found
}

// Recorder collects operations from concurrently running workers. The zero
// value is ready to use.
type Recorder struct {
	mu  sync.Mutex
	ops []Op
}

// NewRecorder returns a Recorder pre-sized for n operations.
func NewRecorder(n int) *Recorder {
	return &Recorder{ops: make([]Op, 0, n)}
}

// Record appends one completed operation. Safe for concurrent use.
func (r *Recorder) Record(start, end, value int64) {
	r.mu.Lock()
	r.ops = append(r.ops, Op{Start: start, End: end, Value: value})
	r.mu.Unlock()
}

// Len returns the number of recorded operations.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.ops)
}

// Ops returns a copy of the recorded operations.
func (r *Recorder) Ops() []Op {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Op, len(r.ops))
	copy(out, r.ops)
	return out
}

// Analyze runs Analyze over the recorded operations.
func (r *Recorder) Analyze() Report { return Analyze(r.Ops()) }
