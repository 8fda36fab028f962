// Package obsvetdata seeds guarded and unguarded observability call
// sites for obsvet: the engine-style struct holds nil obs pointers when
// observability is disabled, so every call must be provably guarded.
package obsvetdata

import "countnet/internal/obs"

type engine struct {
	tr   obs.Tracer
	tog  *obs.Counter
	hist *obs.Histogram
	//countnet:allow obsvet -- New substitutes a no-op counter when metrics are off; never nil
	safe *obs.Counter
	mx   *metrics
}

type metrics struct {
	depth *obs.Gauge
}

func (e *engine) Unguarded() {
	e.tog.Inc() // want `unguarded Inc call on \*obs\.Counter`
}

func (e *engine) SiblingGuard(wait int64) {
	if e.tog != nil {
		e.tog.Inc()
		e.hist.Observe(wait) // want `unguarded Observe call on \*obs\.Histogram`
	}
}

func (e *engine) Guarded(wait int64) {
	if e.tog != nil {
		e.tog.Inc()
	}
	if e.hist != nil {
		e.hist.Observe(wait)
	}
	if e.tr != nil {
		e.tr.Record(obs.Event{})
	}
}

func (e *engine) ElseArm() {
	if e.tog == nil {
		return
	} else {
		e.tog.Inc()
	}
}

func (e *engine) EarlyReturnGuard() {
	if e.tog == nil {
		return
	}
	e.tog.Inc()
}

func (e *engine) FieldAllow() {
	e.safe.Inc() // sanctioned by the field-declaration allow
}

// observeDepth is a nil-safe wrapper (the simMetrics pattern): the
// receiver guard covers the m.depth call, and unguarded call sites are
// out of obsvet's scope because *metrics is not an obs type.
func (m *metrics) observeDepth(v int64) {
	if m == nil {
		return
	}
	m.depth.Set(v)
}

func (e *engine) NilSafeCallee() {
	e.mx.observeDepth(3)
}

// Registry-sourced metrics are never nil: both the bound-variable and
// the chained-call form need no guard.
func RegistrySourced(reg *obs.Registry) {
	c := reg.Counter("cells")
	c.Inc()
	reg.Histogram("wait").Observe(1)
}

// The causal span layer follows the same rule: a traced engine holds a
// nil *Clock when observability is off and a nil *Ring when the black
// box is not armed, so span stamping and flight recording must be
// guarded too.
type spanEngine struct {
	clock  *obs.Clock
	flight *obs.Ring
}

func (e *spanEngine) UnguardedSpans() {
	e.clock.Tick()               // want `unguarded Tick call on \*obs\.Clock`
	e.flight.Record(obs.Event{}) // want `unguarded Record call on \*obs\.Ring`
	e.flight.Trip("panic")       // want `unguarded Trip call on \*obs\.Ring`
}

func (e *spanEngine) GuardedSpans(remote uint64) {
	if e.clock != nil {
		e.clock.Witness(remote)
		_ = e.clock.Tick()
	}
	if e.flight != nil {
		e.flight.Trip("liveness-valve")
	}
}

// Constructor-sourced values are never nil: both the bound-variable and
// the chained-call form need no guard.
func ConstructorSourced() {
	clock := obs.NewClock()
	_ = clock.Tick()
	f := obs.NewRing(1, 8)
	f.Record(obs.Event{})
	f.Trip("lincheck-violation")
	obs.NewRing(1, 8).Record(obs.Event{})
}
