package obs

import (
	"io"
	"os"
	"sort"
	"sync"
)

// Flight is a bounded-memory flight recorder: a per-processor ring of the
// most recent causally stamped events that can be snapshotted while the
// run is still in motion, then dumped as a causally closed JSONL slice
// the first time something goes wrong — a lincheck violation, a fault
// plan's liveness valve forcing a delivery through, or a panic. Unlike
// Ring (whose Events contract requires quiescence), every Flight shard is
// mutex-guarded, so a dump taken mid-flight is race-free; the lock is
// uncontended on the hot path because each processor still writes only
// its own shard.
type Flight struct {
	shards []flightShard
	meta   Meta

	mu      sync.Mutex
	auto    string // SetAutoDump destination; "" disables Trip dumps
	tripped string // reason of the first Trip, "" until then
}

// flightShard is one processor's guarded window of recent events.
type flightShard struct {
	mu  sync.Mutex
	buf []Event
	n   int64 // total events recorded (monotone; may exceed len(buf))
	_   [32]byte
}

// NewFlight returns a recorder with one shard per processor id in
// [0, procs) holding the last perProc events each. meta describes the run
// and is written into every dump.
func NewFlight(meta Meta, procs, perProc int) *Flight {
	if procs < 1 {
		procs = 1
	}
	if perProc < 1 {
		perProc = 1
	}
	f := &Flight{shards: make([]flightShard, procs), meta: meta}
	for i := range f.shards {
		f.shards[i].buf = make([]Event, perProc)
	}
	return f
}

// Record implements Tracer. Out-of-range P folds onto a shard by modulus,
// like Ring.
func (f *Flight) Record(ev Event) {
	p := int(ev.P)
	if p < 0 {
		p = -p
	}
	s := &f.shards[p%len(f.shards)]
	//countnet:allow hotvet -- the shard mutex keeps a mid-run Snapshot race-free; each processor writes only its own shard, and the shm engines trace through Ring, never Flight
	s.mu.Lock()
	s.buf[s.n%int64(len(s.buf))] = ev
	s.n++
	s.mu.Unlock()
}

// Snapshot returns the retained window of every shard, causally closed
// (ancestor chains cut by ring wraparound are dropped) and merged in span
// order so the dump reads as a happens-before story. Safe to call while
// other goroutines keep recording.
func (f *Flight) Snapshot() (events []Event, orphans int) {
	var all []Event
	for i := range f.shards {
		s := &f.shards[i]
		s.mu.Lock()
		c := int64(len(s.buf))
		start := int64(0)
		if s.n > c {
			start = s.n - c
		}
		for seq := start; seq < s.n; seq++ {
			all = append(all, s.buf[seq%c])
		}
		s.mu.Unlock()
	}
	sortEvents(all)
	return CausalClosure(all)
}

// sortEvents orders a merged snapshot deterministically: by span id when
// both events carry one (causal order), by timestamp otherwise.
func sortEvents(events []Event) {
	sort.SliceStable(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.Span != 0 && b.Span != 0 {
			return a.Span < b.Span
		}
		return a.T < b.T
	})
}

// Dump writes the current snapshot as JSONL, with reason recorded in the
// meta header.
func (f *Flight) Dump(w io.Writer, reason string) error {
	events, _ := f.Snapshot()
	meta := f.meta
	meta.Reason = reason
	return WriteJSONL(w, meta, events)
}

// DumpFile writes the snapshot to path (JSONL regardless of extension —
// a flight dump is an analysis artifact, not a Perfetto view).
func (f *Flight) DumpFile(path, reason string) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := f.Dump(file, reason); err != nil {
		file.Close()
		return err
	}
	return file.Close()
}

// SetAutoDump arms the recorder: the first Trip after it writes the
// snapshot to path.
func (f *Flight) SetAutoDump(path string) {
	f.mu.Lock()
	f.auto = path
	f.mu.Unlock()
}

// Trip fires the recorder once: the first call dumps the snapshot to the
// SetAutoDump path under the given reason and returns the path; later
// calls (and calls on an unarmed recorder) are no-ops returning "". This
// is the hook engines call on a liveness-valve trip and drivers call on
// violation, so a long chaos run leaves exactly one black-box artifact.
func (f *Flight) Trip(reason string) (string, error) {
	f.mu.Lock()
	if f.tripped != "" || f.auto == "" {
		f.mu.Unlock()
		return "", nil
	}
	f.tripped = reason
	path := f.auto
	f.mu.Unlock()
	return path, f.DumpFile(path, reason)
}

// Tripped returns the reason of the first Trip, or "" if the recorder has
// not fired.
func (f *Flight) Tripped() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.tripped
}

// RecoverDump is the panic hook: deferred at the top of a driver, it
// dumps the flight window (reason "panic") to the auto-dump path before
// re-panicking, so a crash leaves the same artifact a violation would.
func (f *Flight) RecoverDump() {
	if r := recover(); r != nil {
		f.Trip("panic")
		panic(r)
	}
}

// Interface compliance.
var _ Tracer = (*Flight)(nil)
