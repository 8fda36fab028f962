package report

import (
	"strings"
	"testing"
)

func sample() *Table {
	var t Table
	t.Add(Cell{Net: "bitonic", Procs: 4, Wait: 100, Frac: 0.25, Ratio: 0.01, AvgRatio: 1.45, Tog: 222})
	t.Add(Cell{Net: "bitonic", Procs: 16, Wait: 100, Frac: 0.25, Ratio: 0, AvgRatio: 1.39, Tog: 256})
	t.Add(Cell{Net: "dtree", Procs: 4, Wait: 100, Frac: 0.25, Ratio: 0.5, AvgRatio: 1.11, Tog: 909})
	return &t
}

func TestWriteFigure(t *testing.T) {
	tbl := sample()
	var sb strings.Builder
	tbl.WriteFigure(&sb, []string{"bitonic", "dtree"}, []int{4, 16}, []int64{100}, 0.25)
	out := sb.String()
	for _, want := range []string{"F=25%", "n=4", "n=16", "bitonic", "dtree", "1.000%", "50.000%", "-"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteAvgRatio(t *testing.T) {
	tbl := sample()
	var sb strings.Builder
	tbl.WriteAvgRatio(&sb, []string{"bitonic", "dtree"}, []int{4, 16}, []int64{100}, []float64{0.25, 0.5})
	out := sb.String()
	for _, want := range []string{"Average c2/c1", "1.45", "1.11", "25%", "50%", "-"} {
		if !strings.Contains(out, want) {
			t.Errorf("ratio table missing %q:\n%s", want, out)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	tbl := sample()
	var sb strings.Builder
	tbl.WriteCSV(&sb)
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("csv lines = %d, want 4", len(lines))
	}
	if lines[0] != "network,frac,wait,procs,nonlin_ratio,avg_c2c1,tog" {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "bitonic,0.25,100,4,0.01,1.45,222") {
		t.Errorf("row = %q", lines[1])
	}
	if len(tbl.cells) != 3 {
		t.Errorf("cells = %d", len(tbl.cells))
	}
}
