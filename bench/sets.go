package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
)

// setFile is what -set writes and -compare reads: the machine the sets
// ran on and, per set and workload, every -trace 0 run's end-to-end
// metrics plus one -trace 1 run's per-layer metrics.
type setFile struct {
	Meta setMeta                  `json:"meta"`
	Sets []map[string]workloadSet `json:"sets"`
}

type setMeta struct {
	Nproc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Clients    int     `json:"clients"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
	Seconds    float64 `json:"seconds"`
	Runs       int     `json:"runs"`
}

type workloadSet struct {
	// Runs holds each end-to-end metric's values, one per seed.
	Runs map[string][]float64 `json:"runs"`
	// Layers is the per-layer metrics of one traced run.
	Layers map[string]float64 `json:"layers"`
}

// buildCommit is the source revision the binary was built from; run.sh
// sets it at link time.
var buildCommit = "unknown"

// setRuns is how many seeds a set runs per workload with -trace 0.
const setRuns = 10

// specPath is the benchmark declaration whose bounds -compare applies.
const specPath = "BENCHMARK.json"

// runSets runs every workload setRuns times (seeds 1..setRuns, -trace 0)
// plus once with -trace 1, each run a separate process of this binary,
// sets times over, and writes the collected metrics to path.
func runSets(out io.Writer, path string, sets int, seconds float64) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	sf := setFile{Meta: setMeta{
		Nproc: runtime.NumCPU(), GOMAXPROCS: clients, Clients: clients,
		Go: runtime.Version(), Commit: buildCommit, Seconds: seconds, Runs: setRuns,
	}}
	sec := strconv.FormatFloat(seconds, 'g', -1, 64)
	for s := 0; s < sets; s++ {
		set := map[string]workloadSet{}
		for _, w := range workloads {
			ws := workloadSet{Runs: map[string][]float64{}}
			for seed := 1; seed <= setRuns; seed++ {
				res, err := child(exe, w.name, strconv.Itoa(seed), sec, "0")
				if err != nil {
					return err
				}
				for n, v := range res.Metrics {
					ws.Runs[n] = append(ws.Runs[n], v.Value)
				}
				fmt.Fprintf(out, "set %d %-16s seed %2d throughput %.4g ops/s p50 %.0f ns p90 %.0f ns setup %.3g s\n",
					s+1, w.name, seed, res.Metrics["throughput_ops_s"].Value, res.Metrics["latency_p50_ns"].Value,
					res.Metrics["latency_p90_ns"].Value, res.Metrics["setup_s"].Value)
			}
			res, err := child(exe, w.name, "1", sec, "1")
			if err != nil {
				return err
			}
			ws.Layers = map[string]float64{}
			for n, v := range res.Metrics {
				ws.Layers[n] = v.Value
			}
			set[w.name] = ws
		}
		sf.Sets = append(sf.Sets, set)
	}
	b, err := json.MarshalIndent(sf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// child runs one benchmark run as a separate process and parses its last
// output line.
func child(exe, workload, seed, seconds, trace string) (result, error) {
	cmd := exec.Command(exe, "--workload", workload, "--seed", seed, "--seconds", seconds, "--trace", trace)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("%s seed %s trace %s: %w", workload, seed, trace, err)
	}
	return lastResult(stdout)
}

// lastResult parses the JSON object on the last non-empty line of a
// run's output.
func lastResult(stdout []byte) (result, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return result{}, fmt.Errorf("parse result line %q: %w", last, err)
	}
	return res, nil
}

// spec is the part of BENCHMARK.json that -compare reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// pooled concatenates one workload's runs of metric over the given sets.
func pooled(sets []map[string]workloadSet, workload, metric string) []float64 {
	var xs []float64
	for _, s := range sets {
		xs = append(xs, s[workload].Runs[metric]...)
	}
	return xs
}

// runCompare prints, for every end-to-end metric and workload, the
// medians and quartiles of a prior and a current set file and a verdict
// under the metric's bound. With no current file it compares the prior
// file's first set with its last. It fails when any verdict is "worse".
func runCompare(out io.Writer, priorPath string, args []string) error {
	var sp spec
	if err := readJSON(specPath, &sp); err != nil {
		return err
	}
	var prior setFile
	if err := readJSON(priorPath, &prior); err != nil {
		return err
	}
	if len(prior.Sets) == 0 {
		return fmt.Errorf("%s holds no sets", priorPath)
	}
	before, after := prior.Sets, prior.Sets
	curMeta := prior.Meta
	switch len(args) {
	case 0:
		before, after = prior.Sets[:1], prior.Sets[len(prior.Sets)-1:]
	case 1:
		var cur setFile
		if err := readJSON(args[0], &cur); err != nil {
			return err
		}
		after, curMeta = cur.Sets, cur.Meta
	default:
		return fmt.Errorf("-compare takes at most one current set file")
	}
	fmt.Fprintf(out, "prior:   nproc %d gomaxprocs %d %s commit %s (%d sets)\n",
		prior.Meta.Nproc, prior.Meta.GOMAXPROCS, prior.Meta.Go, prior.Meta.Commit, len(before))
	fmt.Fprintf(out, "current: nproc %d gomaxprocs %d %s commit %s (%d sets)\n",
		curMeta.Nproc, curMeta.GOMAXPROCS, curMeta.Go, curMeta.Commit, len(after))
	fmt.Fprintf(out, "%-16s %-17s %12s %12s %12s | %12s %12s %12s | %8s %7s %7s %6s  %s\n",
		"workload", "metric", "prior.q1", "prior.med", "prior.q3", "cur.q1", "cur.med", "cur.q3",
		"delta", "sprd.p", "sprd.c", "bound", "verdict")
	worse := 0
	for _, w := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			p, c := pooled(before, w.Name, m.Name), pooled(after, w.Name, m.Name)
			if len(p) == 0 || len(c) == 0 {
				fmt.Fprintf(out, "%-16s %-17s missing\n", w.Name, m.Name)
				continue
			}
			pq1, pq3 := quartiles(p)
			cq1, cq3 := quartiles(c)
			v := verdict(p, c, m.Bound, m.Better)
			if v == "worse" {
				worse++
			}
			fmt.Fprintf(out, "%-16s %-17s %12.5g %12.5g %12.5g | %12.5g %12.5g %12.5g | %+7.2f%% %6.2f%% %6.2f%% %5.0f%%  %s\n",
				w.Name, m.Name, pq1, median(p), pq3, cq1, median(c), cq3,
				100*(median(c)/median(p)-1), 100*spread(p), 100*spread(c), 100*m.Bound, v)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d metric(s) worse than the prior beyond their bound", worse)
	}
	return nil
}
