package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"countnet/internal/topo"
	"countnet/internal/workload"
)

func TestRunLinearizableBound(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-net", "bitonic", "-width", "8", "-c1", "100", "-c2", "200", "-verify"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "linearizable in every execution") {
		t.Errorf("missing Corollary 3.9 verdict:\n%s", out)
	}
	if !strings.Contains(out, "counting-property check: ok") {
		t.Errorf("missing verification line:\n%s", out)
	}
}

func TestRunRender(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-net", "dtree", "-width", "4", "-render", "-verify"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "layer 1:") || !strings.Contains(out, "counters:") {
		t.Errorf("render output missing:\n%s", out)
	}
	if !strings.Contains(out, "exhaustive") {
		t.Errorf("small tree should certify exhaustively:\n%s", out)
	}
}

func TestRunAboveBoundWithExports(t *testing.T) {
	dir := t.TempDir()
	dot := filepath.Join(dir, "net.dot")
	js := filepath.Join(dir, "net.json")
	var sb strings.Builder
	args := []string{"-net", "dtree", "-width", "8", "-c1", "100", "-c2", "300", "-pad", "-dot", dot, "-json", js}
	if err := run(args, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"NOT guaranteed linearizable", "padding fix", "padded:"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
	dotData, err := os.ReadFile(dot)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(dotData), "digraph") {
		t.Error("dot file malformed")
	}
	jsData, err := os.ReadFile(js)
	if err != nil {
		t.Fatal(err)
	}
	g, err := topo.Decode(jsData)
	if err != nil {
		t.Fatalf("exported JSON does not decode: %v", err)
	}
	if g.OutWidth() != 8 {
		t.Errorf("decoded width %d", g.OutWidth())
	}
}

func TestRunRejectsBadArgs(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-net", "bogus"}, &sb); err == nil {
		t.Error("bogus network accepted")
	}
	if err := run([]string{"-c1", "0"}, &sb); err == nil {
		t.Error("c1=0 accepted")
	}
}

func TestRunMeasure(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-net", "bitonic", "-width", "4", "-measure"}, &sb); err != nil {
		t.Fatal(err)
	}
	rows := map[string]bool{}
	for _, line := range strings.Split(sb.String(), "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			rows[f[0]] = true
		}
	}
	want := []string{"sim", "msgnet"}
	for _, f := range workload.Fronts {
		want = append(want, string(f))
	}
	for _, name := range want {
		if !rows[name] {
			t.Errorf("no %q row:\n%s", name, sb.String())
		}
	}
}
