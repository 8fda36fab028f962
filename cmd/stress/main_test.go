package main

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"countnet/internal/workload"
)

func TestRunStressSmall(t *testing.T) {
	var sb strings.Builder
	args := []string{"-net", "dtree", "-width", "8", "-workers", "8", "-ops", "2000", "-frac", "0.25", "-delay", "20us"}
	if err := run(args, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"dtree[8]", "ops/s", "linearizability:"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestRunCompareSmall(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-compare", "-width", "8", "-workers", "8", "-ops", "5000"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"bitonic[8]+mcs", "dtree[8]+prism", "mutex counter", "atomic counter"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestRunRejectsBadBalancer(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-balancer", "bogus", "-ops", "10", "-workers", "1"}, &sb); err == nil {
		t.Error("bogus balancer accepted")
	}
}

func TestRunMsgnetEngineFaultFree(t *testing.T) {
	var sb strings.Builder
	args := []string{"-engine", "msgnet", "-net", "bitonic", "-width", "4", "-workers", "4", "-ops", "400"}
	if err := run(args, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"bitonic[4] msgnet", "faults=0", "ops/s", "linearizability:"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
	// No injector means no fault/recovery tallies to report.
	if strings.Contains(out, "recovery:") {
		t.Errorf("fault-free run printed recovery stats:\n%s", out)
	}
}

// TestRunMsgnetFlightNeverTripped arms the flight recorder on a
// fault-free run: no valve can fire, so the run says so and writes no
// dump.
func TestRunMsgnetFlightNeverTripped(t *testing.T) {
	var sb strings.Builder
	path := filepath.Join(t.TempDir(), "f.jsonl")
	args := []string{"-engine", "msgnet", "-net", "bitonic", "-width", "4", "-workers", "4", "-ops", "400", "-flight", path}
	if err := run(args, &sb); err != nil {
		t.Fatal(err)
	}
	if out := sb.String(); !strings.Contains(out, "flight recorder armed, never tripped") {
		t.Errorf("missing the never-tripped line:\n%s", out)
	}
	if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("untripped recorder left a dump: %v", err)
	}
}

func TestRunMsgnetEngineWithFaults(t *testing.T) {
	var sb strings.Builder
	args := []string{"-engine", "msgnet", "-net", "bitonic", "-width", "4", "-workers", "4",
		"-ops", "400", "-faults", "0.1", "-fault-seed", "7"}
	if err := run(args, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"faults=0.1 (seed 7)", "faults:", "recovery:", "retries", "duplicates suppressed"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestRunRejectsFaultsOnSHMEngine(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-faults", "0.1", "-ops", "10", "-workers", "1"}, &sb); err == nil {
		t.Error("-faults accepted on the shm engine")
	}
	if err := run([]string{"-engine", "bogus", "-ops", "10", "-workers", "1"}, &sb); err == nil {
		t.Error("bogus engine accepted")
	}
}

func TestRunEveryShmEngine(t *testing.T) {
	stats := map[workload.FrontKind]string{
		workload.FrontCombine:        "combine: hit rate",
		workload.FrontAdaptive:       "adaptive: built in direct",
		workload.FrontAdaptiveLinear: "adaptive: built in linear",
	}
	for _, f := range workload.Fronts {
		t.Run(string(f), func(t *testing.T) {
			var sb strings.Builder
			args := []string{"-engine", string(f), "-width", "4", "-workers", "4", "-ops", "500", "-frac", "0.25", "-delay", "5us"}
			if err := run(args, &sb); err != nil {
				t.Fatal(err)
			}
			out := sb.String()
			for _, want := range []string{"bitonic[4] " + string(f) + " mcs", "linearizability:", stats[f]} {
				if !strings.Contains(out, want) {
					t.Errorf("missing %q:\n%s", want, out)
				}
			}
		})
	}
}

func TestRunRejectsFlagsForOtherEngine(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-engine", "msgnet", "-frac", "0.5"}, "-frac does not apply to -engine msgnet"},
		{[]string{"-engine", "msgnet", "-random"}, "-random does not apply to -engine msgnet"},
		{[]string{"-engine", "msgnet", "-burn"}, "-burn does not apply to -engine msgnet"},
		{[]string{"-engine", "msgnet", "-balancer", "atomic"}, "-balancer does not apply to -engine msgnet"},
		{[]string{"-engine", "msgnet", "-seed", "3"}, "-seed does not apply to -engine msgnet"},
		{[]string{"-engine", "msgnet", "-pprof", "localhost:0"}, "-pprof does not apply to -engine msgnet"},
		{[]string{"-faults", "0.1"}, "-faults does not apply to -engine shm"},
		{[]string{"-engine", "shm-combine", "-fault-seed", "7"}, "-fault-seed does not apply to -engine shm-combine"},
		{[]string{"-engine", "shm-adaptive", "-flight", "flight.jsonl"}, "-flight does not apply to -engine shm-adaptive"},
		{[]string{"-engine", "adaptive"}, `unknown engine "adaptive"`},
	} {
		var sb strings.Builder
		err := run(append(tc.args, "-ops", "10", "-workers", "1"), &sb)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: error %v, want %q", tc.args, err, tc.want)
		}
	}
}
