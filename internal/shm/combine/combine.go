// Package combine implements an elimination/combining funnel that sits
// in front of a counting network (Shavit and Zemach's combining-funnel
// idea applied to the shm runtime): concurrent tokens rendezvous in a
// sized exchanger array with CAS-based pairing — like the diffracting
// prism, but exchanging *counts* instead of toggling — so that a paired
// pair sends one representative through the balancer network with a
// combined demand and the partner parks until its values arrive.
//
// Combining preserves exact counting for any interleaving because the
// representative's batch traversal is operationally identical to the
// partners' tokens walking the network back to back: every balancer
// toggle advances once per combined token and every output counter is
// fetched once per combined token (see shm.Network.TraverseBatch). What
// combining removes is *contention*: under heavy traffic roughly half
// the goroutines wait in an exchanger slot instead of queueing on MCS
// toggles, which shortens lock queues, cuts scheduler pressure on
// oversubscribed machines, and degrades to a single atomic check when the
// funnel is idle. The slots are the prism's (prism.Slot): one camp,
// claim, withdraw and delivery protocol, and one wait, for every
// exchanger in the runtime.
//
// The funnel is generic over the downstream counter: Do takes the
// traversal as a closure. Front binds it to a compiled shm network, which
// makes the funnel one more shm.Front for the stress driver, run as the
// shm-combine engine.
package combine

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"countnet/internal/obs"
	"countnet/internal/shm"
	"countnet/internal/shm/prism"
	"countnet/internal/topo"
)

// Defaults for Options.
const (
	// DefaultWidth is the default exchanger slot count.
	DefaultWidth = 8
	// DefaultWindow is the default partner wait.
	DefaultWindow = 30 * time.Microsecond
)

// Traverse executes one batch traversal of the downstream network for
// the given combined demand and returns exactly that many counter
// values (in any order).
type Traverse func(demand int) []int64

// Options configures a Funnel.
type Options struct {
	// Width is the exchanger slot count (default DefaultWidth).
	Width int
	// Window is how long a camped token waits for a partner before
	// falling back to a plain traversal (default DefaultWindow).
	Window time.Duration
	// Metrics, when non-nil, registers the funnel's metric family:
	// combine pair/timeout/idle/race counters, the pairing-latency
	// histogram shm_combine_pair_wait_ns, and the live
	// shm_combine_hit_rate gauge.
	Metrics *obs.Registry
}

// maxPartners bounds how many camped tokens one representative claims
// in a single sweep. Combining degree is the funnel's leverage — a
// batch of k tokens shares every balancer visit until the toggles
// split the group, so per-token cost falls roughly as (tree of the
// batch)/(k full paths) — but an unbounded sweep would let one walk
// starve the exchanger, so claims stop after the funnel's partner cap
// (width-1, at most maxPartners) or one pass over the live slots,
// whichever comes first.
const maxPartners = 31

// spreadPerSlot is the occupancy granularity of the live slot range:
// one exchanger slot is live per spreadPerSlot in-flight tokens.
const spreadPerSlot = 8

// share is what a camped token exchanges: its demand, which the
// representative that claims it reads, and the values the
// representative delivers back.
type share struct {
	demand int
	vals   []int64
}

// waiter is one token camped in a slot awaiting a representative. The
// representative reads nothing of a waiter before its claim wins, so
// waiters are pooled.
type waiter = prism.Offer[share]

// slot keeps each exchanger cell on its own cache line.
type slot struct {
	prism.Slot[share]
	_ [56]byte
}

// Stats is a snapshot of the funnel's counters.
type Stats struct {
	// Tokens is the number of Do calls.
	Tokens int64
	// Pairs is the number of combined walks: traversals a representative
	// executed on behalf of itself plus at least one parked partner.
	Pairs int64
	// Partners is the number of tokens served while parked — claimed
	// from a slot by a representative and handed their values. Each
	// combined walk covers one representative and one or more partners,
	// so Pairs+Partners tokens in total rode a shared traversal.
	Partners int64
	// Timeouts counts camped tokens whose window expired with no
	// partner; they traversed alone.
	Timeouts int64
	// Solo counts colliding tokens whose claim sweep came up empty
	// (every camper was stolen by a concurrent representative); they
	// traversed alone.
	Solo int64
	// Idle counts tokens that skipped the exchanger because no other
	// token was in flight.
	Idle int64
	// Races counts lost CAS races (a claim or camp attempt beaten by a
	// concurrent token), the funnel's contention signal.
	Races int64
}

// Every token ends in exactly one disposition, so at quiescence
//
//	Tokens == Idle + Pairs + Partners + Timeouts + Solo
//
// which the funnel's tests assert after every concurrent run.

// HitRate returns the fraction of tokens whose value came from a
// shared traversal — (Pairs+Partners)/Tokens, counting each combined
// walk's representative and every partner it served — or 0 before any
// traffic.
func (s Stats) HitRate() float64 {
	if s.Tokens == 0 {
		return 0
	}
	return float64(s.Pairs+s.Partners) / float64(s.Tokens)
}

// Funnel is the elimination/combining exchanger array. Safe for
// concurrent use by any number of goroutines.
type Funnel struct {
	slots  []slot
	window time.Duration

	// inflight counts tokens currently inside Do. A token that finds
	// itself alone skips the exchanger entirely, and the live slot
	// range adapts to this occupancy: light traffic concentrates on
	// slot 0 so tokens actually meet, heavy traffic spreads over the
	// whole array so a representative can sweep up several partners.
	inflight atomic.Int64

	// The metric fields are never nil: New installs either registry
	// metrics or unregistered no-op instances, so the hot path can skip
	// the nil checks (the obsvet allows below record that contract).
	tokens   *obs.Counter   //countnet:allow obsvet -- never nil; New substitutes an unregistered no-op
	pairs    *obs.Counter   //countnet:allow obsvet -- never nil; New substitutes an unregistered no-op
	partners *obs.Counter   //countnet:allow obsvet -- never nil; New substitutes an unregistered no-op
	timeouts *obs.Counter   //countnet:allow obsvet -- never nil; New substitutes an unregistered no-op
	solos    *obs.Counter   //countnet:allow obsvet -- never nil; New substitutes an unregistered no-op
	idle     *obs.Counter   //countnet:allow obsvet -- never nil; New substitutes an unregistered no-op
	races    *obs.Counter   //countnet:allow obsvet -- never nil; New substitutes an unregistered no-op
	pairWait *obs.Histogram //countnet:allow obsvet -- never nil; New substitutes an unregistered no-op

	pool sync.Pool
}

// New returns a funnel with the given options.
func New(opts Options) *Funnel {
	if opts.Width < 1 {
		opts.Width = DefaultWidth
	}
	if opts.Window <= 0 {
		opts.Window = DefaultWindow
	}
	f := &Funnel{
		slots:  make([]slot, opts.Width),
		window: opts.Window,
	}
	if reg := opts.Metrics; reg != nil {
		f.tokens = reg.Counter("shm_combine_tokens_total")
		f.pairs = reg.Counter("shm_combine_pairs_total")
		f.partners = reg.Counter("shm_combine_partners_total")
		f.timeouts = reg.Counter("shm_combine_timeouts_total")
		f.solos = reg.Counter("shm_combine_solo_total")
		f.idle = reg.Counter("shm_combine_idle_total")
		f.races = reg.Counter("shm_combine_cas_races_total")
		f.pairWait = reg.Histogram("shm_combine_pair_wait_ns")
		reg.GaugeFunc("shm_combine_hit_rate", func() float64 { return f.Stats().HitRate() })
	} else {
		f.tokens = &obs.Counter{}
		f.pairs = &obs.Counter{}
		f.partners = &obs.Counter{}
		f.timeouts = &obs.Counter{}
		f.solos = &obs.Counter{}
		f.idle = &obs.Counter{}
		f.races = &obs.Counter{}
		f.pairWait = obs.NewHistogram()
	}
	f.pool.New = func() any { return new(waiter) }
	return f
}

// Stats returns a snapshot of the funnel's counters.
func (f *Funnel) Stats() Stats {
	return Stats{
		Tokens:   f.tokens.Value(),
		Pairs:    f.pairs.Value(),
		Partners: f.partners.Value(),
		Timeouts: f.timeouts.Value(),
		Solo:     f.solos.Value(),
		Idle:     f.idle.Value(),
		Races:    f.races.Value(),
	}
}

// Do routes one token of the given demand through the funnel: when
// concurrent partners are camped, the token claims up to maxPartners of
// them, executes traverse once with the combined demand, and
// distributes the values; otherwise it camps for a window hoping to be
// claimed itself, falling back to a plain traversal. Do returns exactly
// demand values.
//
//countnet:hotpath
func (f *Funnel) Do(demand int, traverse Traverse) []int64 {
	if demand < 1 {
		badDemand(demand)
	}
	f.tokens.Inc()
	if f.inflight.Add(1) == 1 {
		// Alone in the funnel: degrade to a plain traversal.
		vals := f.run(traverse, demand)
		f.inflight.Add(-1)
		f.idle.Inc()
		return vals
	}
	// The decrement is explicit rather than deferred: exchange cannot
	// panic on the funnel's own account (run re-panics only on a broken
	// traverse contract), and a deferred call is exactly the kind of
	// hot-path frame pinning hotvet exists to reject.
	vals := f.exchange(demand, traverse)
	f.inflight.Add(-1)
	return vals
}

// Front is the funnel in front of a compiled network, as an shm.Front:
// every token enters the funnel with demand 1 and one representative
// walks Net for its whole group (shm.Network.TraverseBatch).
type Front struct {
	*Funnel
	Net *shm.Network
}

// TraverseSpan draws one value for the token (proc, tok) entering Net at
// input, invoking afterNode per node the token's walk visits. A combined
// walk's hops chain onto its representative's parent. Every token gets
// parent back: a partner's value comes from another token's walk, so its
// exit has no hop of its own to chain onto.
//
//countnet:hotpath
func (f Front) TraverseSpan(input int, proc, tok int32, parent uint64, afterNode func(id topo.NodeID)) (int64, uint64) {
	return f.Do(1, func(demand int) []int64 {
		return f.Net.TraverseBatch(input, demand, proc, tok, parent, afterNode)
	})[0], parent
}

// badDemand panics on an impossible demand. It lives outside Do so the
// panic formatting — which boxes its argument — stays out of the hot
// path's escape profile.
//
//go:noinline
func badDemand(demand int) {
	panic(fmt.Sprintf("combine: demand %d", demand))
}

// exchange is the contended body of Do: camp-or-claim, then either
// represent a swept batch or wait to be represented.
func (f *Funnel) exchange(demand int, traverse Traverse) []int64 {
	spread := f.liveSpread()
	i := rand.IntN(spread)

	// Tokens prefer to camp: partners accumulate across the live slots,
	// and the first token whose random slot is already taken turns
	// representative — a birthday collision, so the expected number of
	// campers it sweeps up grows with the live spread.
	me, _ := f.pool.Get().(*waiter)
	me.V.demand = demand
	if !f.slots[i].Camp(me) {
		f.pool.Put(me)
		// Claim sweep: gather every camped partner in one pass over the
		// live slots, starting at the collision slot. A lost claim is
		// counted as a contention signal.
		var ps [maxPartners]*waiter
		cap := len(f.slots) - 1
		if cap > maxPartners {
			cap = maxPartners
		}
		if cap < 1 {
			cap = 1
		}
		np := 0
		for j := 0; j < spread && np < cap; j++ {
			s := &f.slots[(i+j)%spread]
			switch w := s.Peek(); {
			case w == nil:
			case s.Claim(w):
				ps[np] = w
				np++
			default:
				f.races.Add(1)
			}
		}
		if np > 0 {
			return f.represent(ps[:np], demand, traverse)
		}
		// Every camper was claimed out from under us between the camp
		// attempt and the sweep; traverse alone.
		f.races.Add(1)
		f.solos.Inc()
		return f.run(traverse, demand)
	}
	t0 := time.Now()
	if !f.slots[i].Wait(me, t0.Add(f.window)) {
		f.pool.Put(me)
		f.timeouts.Inc()
		return f.run(traverse, demand)
	}
	f.pairWait.Observe(time.Since(t0).Nanoseconds())
	vals := me.V.vals
	f.pool.Put(me)
	return vals
}

// represent executes one combined traversal for self (demand values)
// plus every claimed partner, delivers each partner's share, and
// returns its own.
func (f *Funnel) represent(ps []*waiter, demand int, traverse Traverse) []int64 {
	total := demand
	for _, w := range ps {
		total += w.V.demand
	}
	vals := f.run(traverse, total)
	off := demand
	for _, w := range ps {
		// Read the demand before delivering: once its values arrive the
		// partner may put w back in the pool, where another token rewrites
		// it.
		d := w.V.demand
		w.V.vals = vals[off : off+d : off+d]
		w.Deliver()
		off += d
	}
	f.pairs.Inc()
	f.partners.Add(int64(len(ps)))
	return vals[:demand]
}

// run executes traverse and checks the demand contract, so a buggy
// traversal fails loudly instead of deadlocking a parked partner.
func (f *Funnel) run(traverse Traverse, demand int) []int64 {
	vals := traverse(demand)
	if len(vals) != demand {
		panic(fmt.Sprintf("combine: traverse returned %d values for demand %d", len(vals), demand))
	}
	return vals
}

// liveSpread returns the current live slot range in [1, len(slots)],
// sized to the funnel's occupancy: roughly one slot per spreadPerSlot
// in-flight tokens, so light traffic concentrates and heavy traffic
// fans out.
func (f *Funnel) liveSpread() int {
	n := int(f.inflight.Load()) / spreadPerSlot
	if n < 1 {
		return 1
	}
	if n > len(f.slots) {
		return len(f.slots)
	}
	return n
}
