// Package report renders the paper-shaped tables and series produced by the
// benchmark harness: the non-linearizability-ratio series of Figures 5 and
// 6 and the average-c2/c1 table of Figure 7.
package report

import (
	"fmt"
	"io"
	"strings"
)

// Cell is one measured grid cell.
type Cell struct {
	Net      string  // "bitonic" or "dtree"
	Procs    int     // n
	Wait     int64   // W
	Frac     float64 // F
	Ratio    float64 // non-linearizability ratio (0..1)
	AvgRatio float64 // (Tog+W)/Tog
	Tog      float64
}

// Table accumulates cells and renders them.
type Table struct {
	cells []Cell
}

// Add appends a cell.
func (t *Table) Add(c Cell) { t.cells = append(t.cells, c) }

func (t *Table) find(net string, procs int, wait int64, frac float64) (Cell, bool) {
	for _, c := range t.cells {
		if c.Net == net && c.Procs == procs && c.Wait == wait && c.Frac == frac {
			return c, true
		}
	}
	return Cell{}, false
}

// WriteFigure renders a Figures 5/6-shaped block for the given F: one line
// per (network, W) series, the non-linearizability percentage per n.
func (t *Table) WriteFigure(w io.Writer, nets []string, procs []int, waits []int64, frac float64) {
	fmt.Fprintf(w, "Non-linearizability ratios, F=%.0f%% delayed processors\n", 100*frac)
	fmt.Fprintf(w, "%-10s %-8s", "network", "W")
	for _, n := range procs {
		fmt.Fprintf(w, " %9s", fmt.Sprintf("n=%d", n))
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, strings.Repeat("-", 19+10*len(procs)))
	for _, net := range nets {
		for _, wait := range waits {
			fmt.Fprintf(w, "%-10s %-8d", net, wait)
			for _, n := range procs {
				if c, ok := t.find(net, n, wait, frac); ok {
					fmt.Fprintf(w, " %8.3f%%", 100*c.Ratio)
				} else {
					fmt.Fprintf(w, " %9s", "-")
				}
			}
			fmt.Fprintln(w)
		}
	}
}

// WriteCSV emits every cell as CSV for external plotting, one row per
// (network, F, W, n) with the non-linearizability ratio, average c2/c1,
// and Tog.
func (t *Table) WriteCSV(w io.Writer) {
	fmt.Fprintln(w, "network,frac,wait,procs,nonlin_ratio,avg_c2c1,tog")
	for _, c := range t.cells {
		fmt.Fprintf(w, "%s,%g,%d,%d,%g,%g,%g\n", c.Net, c.Frac, c.Wait, c.Procs, c.Ratio, c.AvgRatio, c.Tog)
	}
}

// WriteAvgRatio renders the Figure 7-shaped table: average c2/c1 per
// workload row and concurrency column, for both networks side by side.
func (t *Table) WriteAvgRatio(w io.Writer, nets []string, procs []int, waits []int64, fracs []float64) {
	fmt.Fprintln(w, "Average c2/c1 = (Tog+W)/Tog")
	fmt.Fprintf(w, "%-10s", "workload")
	for _, net := range nets {
		for _, n := range procs {
			fmt.Fprintf(w, " %12s", fmt.Sprintf("%s n=%d", net, n))
		}
	}
	fmt.Fprintln(w)
	for _, frac := range fracs {
		fmt.Fprintf(w, "%.0f%%\n", 100*frac)
		for _, wait := range waits {
			fmt.Fprintf(w, "%-10d", wait)
			for _, net := range nets {
				for _, n := range procs {
					if c, ok := t.find(net, n, wait, frac); ok {
						fmt.Fprintf(w, " %12.2f", c.AvgRatio)
					} else {
						fmt.Fprintf(w, " %12s", "-")
					}
				}
			}
			fmt.Fprintln(w)
		}
	}
}
