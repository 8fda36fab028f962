package main

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"countnet"
	"countnet/internal/obs"
	"countnet/internal/shm"
	"countnet/internal/shm/adaptive"
	"countnet/internal/shm/backoff"
	"countnet/internal/shm/combine"
	"countnet/internal/topo"
)

// Share of a -trace 1 run's budget per phase: untraced rounds (3 of
// them), the traced round, each of the isolated layer rows, and each of
// the two observer-effect rounds.
const (
	untracedShare = 0.1
	tracedShare   = 0.2
	rowShare      = 0.025
	obsShare      = 0.05
)

// padded is an atomic word on its own cache line.
type padded struct {
	v atomic.Int64
	_ [56]byte
}

// layers is a -trace 1 run: untraced rounds for the run's ratios, one
// traced round of the workload, then the isolated layer rows, each timed
// from outside with the same two-client driver.
func layers(out io.Writer, w workload, cfg runConfig) (result, error) {
	k, err := w.build()
	if err != nil {
		return result{}, err
	}
	in := newInputs(cfg.seed, cfg.perClient, 8)
	d := newDriver(cfg.perClient)
	part := func(share float64) time.Duration { return time.Duration(share * float64(cfg.budget)) }
	m := map[string]metricValue{}
	put := func(name string, v float64) { m[name] = metricValue{Value: v, Unit: unitOf(name)} }

	op := k.op(in)
	var t tally
	// The layer rows are not scaled; this says how far the host was
	// from the reference speed while they ran.
	put("harness.slowdown", d.slowdown())
	d.round(part(untracedShare)/2, op)
	t.check(d, k)
	var untraced float64
	var allocs uint64
	var timed int64
	var p99 []float64
	var beyond int
	for r := 0; r < 3; r++ {
		m0 := mallocs()
		d.round(part(untracedShare), op)
		allocs += mallocs() - m0
		untraced += d.meanNs() / 3
		timed += int64(d.ops())
		h := d.latencies()
		p := h.percentile(99)
		p99 = append(p99, float64(p))
		beyond += h.beyond(p)
		t.check(d, k)
	}
	// p99 is reported here, without a bound, because on linear it spread
	// up to 27% over ten runs even when scaled; the end-to-end tail is p90.
	put("latency_p99_ns", median(p99))
	fmt.Fprintf(out, "latency_p99_ns (unscaled, median of 3 rounds) rests on %d samples beyond it\n", beyond)
	put("nonlin_frac", float64(t.nonlin)/float64(t.analyzed))
	put("allocs_per_op", float64(allocs)/float64(timed))
	put("lincheck.analyze_ns_per_op", float64(t.analyzeNs)/float64(t.analyzed))

	var trs [clients]*tracer
	for c := range trs {
		trs[c] = newTracer(c)
	}
	d.round(part(tracedShare), wrap(&trs, k.traced(in, &trs)))
	traced := d.meanNs()
	t.check(d, k)
	s := summarize(&trs)
	put("trace.head_ns", s.headNs)
	put("trace.hop_p50_ns", float64(s.hopP50))
	put("trace.hop_p99_ns", float64(s.hopP99))
	put("trace.tail_p50_ns", float64(s.tailP50))
	put("trace.tail_p99_ns", float64(s.tailP99))
	put("trace.overhead_frac", traced/untraced-1)
	put("trace.mode_share", t.regime(out, k))
	put("failed_frac", float64(t.failed)/float64(t.attempted))
	fmt.Fprintf(out, "untraced %.1f ns/call traced %.1f ns/call; traced calls %d, hops %d; nonlin %d/%d\n",
		untraced, traced, s.heads, s.hops, t.nonlin, t.analyzed)
	if cfg.spans != "" {
		if err := exportSpans(cfg.spans, w.name, &trs); err != nil {
			return result{}, err
		}
		fmt.Fprintf(out, "spans of the first %d calls per client written to %s\n", keepSpans, cfg.spans)
	}

	rows, err := layerRows(d, in, part(rowShare))
	if err != nil {
		return result{}, err
	}
	for n, v := range rows {
		put(n, v)
	}
	put("harness.share", m["harness.null_ns"].Value/untraced)
	if err := observerEffect(d, part(obsShare), put); err != nil {
		return result{}, err
	}
	printMetrics(out, m)
	return t.result(m), nil
}

// layerRows times each layer on its own: every row is one call, made in
// a closed loop by both clients on one shared instance, reported as the
// mean time per call per client (harness included, like harness.null_ns).
func layerRows(d *driver, in *inputs, dur time.Duration) (map[string]float64, error) {
	rows := map[string]float64{}
	row := func(name string, op opFunc) {
		d.round(dur, op)
		rows[name] = d.meanNs()
	}
	var local [clients]padded
	row("harness.null_ns", func(c, _ int) int64 { return local[c].v.Add(1) })

	b8, err := countnet.BitonicTopology(8)
	if err != nil {
		return nil, err
	}
	ctr, err := countnet.NewCounter(b8)
	if err != nil {
		return nil, err
	}
	row("api.next", func(int, int) int64 { return ctr.Next() })
	row("api.nextat", func(c, i int) int64 {
		v, _ := ctr.NextAt(int(in[c][i]))
		return v
	})
	rows["api.cursor_ns"] = rows["api.next"] - rows["api.nextat"]
	delete(rows, "api.next")
	delete(rows, "api.nextat")

	for _, kind := range []shm.Kind{shm.KindAtomic, shm.KindMutex, shm.KindMCS} {
		b, err := shm.NewBalancer(kind, 2)
		if err != nil {
			return nil, err
		}
		row("toggle."+kind.String()+"_ns", func(int, int) int64 { return int64(b.Traverse()) })
	}
	inner, err := shm.NewBalancer(shm.KindMCS, 2)
	if err != nil {
		return nil, err
	}
	// The prism of shm.Compile's defaults: 4 slots, 5µs partner window.
	prism, err := shm.NewDiffracting(inner, 4, 5*time.Microsecond)
	if err != nil {
		return nil, err
	}
	row("toggle.prism_ns", func(int, int) int64 { return int64(prism.Traverse()) })

	net, err := shm.Compile(b8.Graph(), shm.Options{})
	if err != nil {
		return nil, err
	}
	row("walk.bitonic8_ns", func(c, _ int) int64 { return net.Traverse(c) })

	var word padded
	row("counter.faa_ns", func(int, int) int64 { return word.v.Add(1) })

	ad, err := adaptive.New(net, adaptive.Options{})
	if err != nil {
		return nil, err
	}
	row("gate.direct_ns", func(c, i int) int64 { return ad.Next(int(in[c][i]), int32(c), int32(i), nil) })
	rows["gate.overhead_ns"] = rows["gate.direct_ns"] - rows["counter.faa_ns"]

	// The filter's turn starts at zero, so it needs a network that has
	// handed out nothing yet.
	fnet, err := shm.Compile(b8.Graph(), shm.Options{})
	if err != nil {
		return nil, err
	}
	filter := shm.NewFilter(fnet)
	row("turn.filter_ns", func(c, i int) int64 { return filter.Traverse(int(in[c][i])) })

	f := combine.New(combine.Options{})
	var fword padded
	one := func(demand int) []int64 {
		first := fword.v.Add(int64(demand)) - int64(demand)
		vals := make([]int64, demand)
		for j := range vals {
			vals[j] = first + int64(j)
		}
		return vals
	}
	if raceEnabled {
		rows["funnel.do_ns"] = 0 // not run: see race.go
	} else {
		row("funnel.do_ns", func(int, int) int64 { return f.Do(1, one)[0] })
	}
	rows["funnel.hit_rate"] = f.Stats().HitRate()

	// Client 0 forces drain-then-switch transitions while client 1 keeps
	// drawing values: the drain latency is client 0's call time.
	sw, err := adaptive.New(net, adaptive.Options{})
	if err != nil {
		return nil, err
	}
	d.round(dur, func(c, i int) int64 {
		if c == 0 {
			_ = sw.SwitchTo(adaptive.ModeDirect) // errs only on an unknown mode
			return 0
		}
		return sw.Next(int(in[c][i]), int32(c), int32(i), nil)
	})
	h := d.latencies(0)
	rows["switch.drain_p50_ns"] = float64(h.percentile(50))
	rows["switch.drain_p99_ns"] = float64(h.percentile(99))
	return rows, nil
}

// observerEffect reruns the anomaly workload on a bare tree[32] network,
// once plain and once after EnableObs with a metrics registry, and
// reports what turning metrics on costs and how it moves the (Tog+W)/Tog
// and non-linearizability numbers it exists to report.
func observerEffect(d *driver, dur time.Duration, put func(string, float64)) error {
	t32, err := countnet.TreeTopology(32)
	if err != nil {
		return err
	}
	pause := func(topo.NodeID) { backoff.Pause(anomalyW) }
	effW := float64(anomalyW) / clients // F = 1/2 of the clients pause
	var thr, nonlin [2]float64
	var reg *obs.Registry
	for pass := range thr {
		net, err := shm.Compile(t32.Graph(), shm.Options{})
		if err != nil {
			return err
		}
		if pass == 1 {
			reg = obs.NewRegistry()
			net.EnableObs(nil, reg, now, effW)
		}
		d.round(dur, func(c, i int) int64 {
			if c == 0 {
				return net.TraverseObs(0, 0, int32(i), pause)
			}
			return net.TraverseObs(0, 1, int32(i), nil)
		})
		thr[pass] = d.throughput()
		rep, _ := d.analyze()
		nonlin[pass] = rep.Ratio()
	}
	put("obs.metrics_slowdown", thr[0]/thr[1])
	put("obs.tog_ns", reg.Histogram("shm_tog_wait_ns").Mean())
	put("obs.c2c1", reg.Ratio("shm_avg_c2c1", effW).Value())
	put("obs.nonlin_shift", nonlin[1]-nonlin[0])
	return nil
}
