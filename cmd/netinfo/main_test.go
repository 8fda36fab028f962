package main

import (
	"os"
	"path/filepath"
	"strconv"
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
	if !strings.Contains(out, "counting-property check: ok (every input vector of up to 99999 tokens (100000 vectors)") {
		t.Errorf("one-input tree should check every token count up to 99999:\n%s", out)
	}
}

// TestRunVerifyEveryConstructor certifies every constructor at widths 2-32:
// each verify line names how many input vectors it checked, and up to what
// total, which is at least w+2 tokens.
func TestRunVerifyEveryConstructor(t *testing.T) {
	for _, c := range []struct {
		net   string
		width int
		line  string
	}{
		{"bitonic", 2, "every input vector of up to 445 tokens (99681 vectors)"},
		{"bitonic", 4, "every input vector of up to 36 tokens (91390 vectors)"},
		{"bitonic", 8, "every input vector of up to 11 tokens (75582 vectors)"},
		{"bitonic", 16, "every input vector of up to 6 tokens (74613 vectors)"},
		{"bitonic", 32, "every input vector of up to 4 tokens (58905 vectors)"},
		{"periodic", 2, "every input vector of up to 445 tokens (99681 vectors)"},
		{"periodic", 4, "every input vector of up to 36 tokens (91390 vectors)"},
		{"periodic", 8, "every input vector of up to 11 tokens (75582 vectors)"},
		{"periodic", 16, "every input vector of up to 6 tokens (74613 vectors)"},
		{"periodic", 32, "every input vector of up to 4 tokens (58905 vectors)"},
		{"dtree", 2, "every input vector of up to 99999 tokens (100000 vectors)"},
		{"dtree", 4, "every input vector of up to 99999 tokens (100000 vectors)"},
		{"dtree", 8, "every input vector of up to 99999 tokens (100000 vectors)"},
		{"dtree", 16, "every input vector of up to 99999 tokens (100000 vectors)"},
		{"dtree", 32, "every input vector of up to 99999 tokens (100000 vectors)"},
	} {
		var sb strings.Builder
		if err := run([]string{"-net", c.net, "-width", strconv.Itoa(c.width), "-verify"}, &sb); err != nil {
			t.Fatalf("%s[%d]: %v", c.net, c.width, err)
		}
		want := "counting-property check: ok (" + c.line + " + 25 randomized trials)\n"
		if !strings.Contains(sb.String(), want) {
			t.Errorf("%s[%d]: no line %q:\n%s", c.net, c.width, want, sb.String())
		}
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
