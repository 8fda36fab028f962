package faults

import "sync/atomic"

// Verdict is the injector's decision for one delivery attempt.
type Verdict struct {
	// Drop means the message is lost; the sender should back off and
	// retry.
	Drop bool
	// Dup means a second copy of the message is delivered; the receiver
	// deduplicates by token identity.
	Dup bool
	// Reorder means delivery should happen asynchronously so later sends
	// on the link can overtake this message.
	Reorder bool
	// DelayNs is extra latency to impose before delivery (rule delay,
	// jitter, and any stall pause, summed).
	DelayNs int64
	// Forced means a loss verdict was overridden because the sender
	// exhausted MaxAttempts — the liveness valve fired. The delivery goes
	// through; observers treat it as a black-box moment worth dumping.
	Forced bool
}

// Stats is a snapshot of the injector's fault tallies.
type Stats struct {
	// Attempts counts every verdict issued.
	Attempts int64
	// Drops, Dups, Delays, Reorders count rule-driven faults.
	Drops, Dups, Delays, Reorders int64
	// PartitionDrops and CrashDrops count window-driven losses; Stalled
	// counts deliveries a stall window delayed.
	PartitionDrops, CrashDrops, Stalled int64
	// Forced counts deliveries pushed through after MaxAttempts
	// consecutive failures — the transient-fault liveness valve.
	Forced int64
}

// Faults returns the total number of injected fault events.
//
//countnet:allow apivet -- the fault total the faults and msgnet tests both assert on
func (s Stats) Faults() int64 {
	return s.Drops + s.Dups + s.Delays + s.Reorders + s.PartitionDrops + s.CrashDrops + s.Stalled
}

// Injector issues deterministic fault verdicts for a running network. One
// injector serves all links concurrently; every method is lock-free.
type Injector struct {
	plan  *Plan
	rules []Rule         // effective rule per link
	dests []int          // destination node per link
	links []atomic.Int64 // per-link delivery clocks
	nodes []atomic.Int64 // per-node inbound clocks
	parts [][]Partition  // partitions indexed by link
	stall [][]Stall      // stalls indexed by node

	attempts, drops, dups, delays, reorders atomic.Int64
	partDrops, crashDrops, stalled, forced  atomic.Int64
}

// NewInjector builds an injector for a network whose link l delivers into
// node dests[l]. Rules, partitions, and stalls referring to links or nodes
// beyond the table are ignored (a plan generated for a larger network
// degrades gracefully). The plan must be validated by the caller.
func NewInjector(p *Plan, dests []int) *Injector {
	nodes := 0
	for _, d := range dests {
		if d+1 > nodes {
			nodes = d + 1
		}
	}
	in := &Injector{
		plan:  p,
		rules: make([]Rule, len(dests)),
		dests: append([]int(nil), dests...),
		links: make([]atomic.Int64, len(dests)),
		nodes: make([]atomic.Int64, nodes),
		parts: make([][]Partition, len(dests)),
		stall: make([][]Stall, nodes),
	}
	for l := range in.rules {
		in.rules[l] = p.RuleFor(l)
	}
	for _, part := range p.Partitions {
		for _, l := range part.Links {
			if l < len(dests) {
				in.parts[l] = append(in.parts[l], part)
			}
		}
	}
	for _, s := range p.Stalls {
		if s.Node < nodes {
			in.stall[s.Node] = append(in.stall[s.Node], s)
		}
	}
	return in
}

// Hash streams separating the independent per-delivery decisions.
const (
	streamDrop = iota
	streamDup
	streamReorder
	streamJitter
)

// Next issues the verdict for one delivery attempt on link. attempt is the
// sender's consecutive-failure count for this message: once it reaches
// MaxAttempts the verdict can no longer be a loss, so every message is
// eventually delivered under any plan. Each call advances the link (and
// destination node) clock, which is what ends partition and stall windows
// even under pure retry traffic.
func (in *Injector) Next(link, attempt int) Verdict {
	in.attempts.Add(1)
	lc := in.links[link].Add(1) - 1
	node := in.dests[link]
	nc := in.nodes[node].Add(1) - 1
	exhausted := attempt >= MaxAttempts

	v := Verdict{}
	for _, part := range in.parts[link] {
		if lc >= part.From && lc < part.To {
			if exhausted {
				in.forced.Add(1)
				v.Forced = true
				break
			}
			in.partDrops.Add(1)
			v.Drop = true
			return v
		}
	}
	for _, s := range in.stall[node] {
		if nc >= s.From && nc < s.To {
			if s.Crash {
				if exhausted {
					in.forced.Add(1)
					v.Forced = true
					continue
				}
				in.crashDrops.Add(1)
				v.Drop = true
				return v
			}
			in.stalled.Add(1)
			v.DelayNs += s.PauseNs
		}
	}
	r := in.rules[link]
	if r.Drop > 0 && in.uniform(link, lc, streamDrop) < r.Drop {
		if exhausted {
			in.forced.Add(1)
			v.Forced = true
		} else {
			in.drops.Add(1)
			v.Drop = true
			return v
		}
	}
	if r.Dup > 0 && in.uniform(link, lc, streamDup) < r.Dup {
		in.dups.Add(1)
		v.Dup = true
	}
	if r.Reorder > 0 && in.uniform(link, lc, streamReorder) < r.Reorder {
		in.reorders.Add(1)
		v.Reorder = true
	}
	if r.DelayNs > 0 || r.JitterNs > 0 {
		d := r.DelayNs
		if r.JitterNs > 0 {
			d += int64(in.uniform(link, lc, streamJitter) * float64(r.JitterNs))
		}
		if d > 0 {
			in.delays.Add(1)
			v.DelayNs += d
		}
	}
	return v
}

// Dest returns the destination node of link, or -1 if link is out of
// range. Tracers use it to label retry events with the hop they stalled
// on.
func (in *Injector) Dest(link int) int {
	if link < 0 || link >= len(in.dests) {
		return -1
	}
	return in.dests[link]
}

// Stats snapshots the fault tallies.
func (in *Injector) Stats() Stats {
	return Stats{
		Attempts: in.attempts.Load(),
		Drops:    in.drops.Load(), Dups: in.dups.Load(),
		Delays: in.delays.Load(), Reorders: in.reorders.Load(),
		PartitionDrops: in.partDrops.Load(), CrashDrops: in.crashDrops.Load(),
		Stalled: in.stalled.Load(), Forced: in.forced.Load(),
	}
}

// uniform derives a deterministic uniform in [0, 1) for one decision
// stream of one delivery: a pure function of (seed, link, clock, stream),
// independent of goroutine scheduling and wall time.
func (in *Injector) uniform(link int, clock int64, stream uint64) float64 {
	h := mix(uint64(in.plan.Seed) ^ uint64(link)*0x9E3779B97F4A7C15 ^ uint64(clock)*0xBF58476D1CE4E5B9 ^ stream*0x94D049BB133111EB)
	return float64(h>>11) / (1 << 53)
}

// mix is the splitmix64 finalizer: a strong, allocation-free 64-bit
// mixer.
func mix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}
