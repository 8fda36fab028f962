package schedule

import (
	"testing"

	"countnet/internal/dtree"
)

func TestGapSweepLemma37Boundary(t *testing.T) {
	g, err := dtree.New(8)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := GapSweep(g, 10, 100, []float64{0.02, 0.25, 1.0, 1.2}, 20, 30, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("points = %d", len(pts))
	}
	// At and above the Lemma 3.7 bound: zero inversions, guaranteed.
	for _, pt := range pts[2:] {
		if pt.Inversions != 0 {
			t.Errorf("frac %.2f: %d/%d inversions above the bound", pt.Frac, pt.Inversions, pt.Pairs)
		}
	}
	// Far below the bound the adversarial delays should produce some
	// inversions (tokens nearly concurrent, ratio 10).
	if pts[0].Inversions == 0 {
		t.Errorf("frac %.2f: no inversions at near-concurrent starts; sweep not adversarial enough", pts[0].Frac)
	}
	for _, pt := range pts {
		if pt.Pairs != 30*19 {
			t.Errorf("frac %.2f: %d pairs, want %d", pt.Frac, pt.Pairs, 30*19)
		}
	}
}

func TestGapSweepValidation(t *testing.T) {
	g, err := dtree.New(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := GapSweep(g, 0, 10, []float64{1}, 2, 1, 1); err == nil {
		t.Error("c1=0 accepted")
	}
	if _, err := GapSweep(g, 10, 5, []float64{1}, 2, 1, 1); err == nil {
		t.Error("c2<c1 accepted")
	}
}

// TestTheorem36FinishStart property-tests the finish-start form: whenever
// token j enters more than h*c2 - 2*h*c1 after token i exits, j returns a
// higher value — checked over every such pair of random executions.
func TestTheorem36FinishStart(t *testing.T) {
	g, err := dtree.New(8)
	if err != nil {
		t.Fatal(err)
	}
	const c1, c2 = 10, 70
	gap := int64(g.Depth())*c2 - 2*int64(g.Depth())*c1
	for seed := int64(0); seed < 40; seed++ {
		arr := make([]Arrival, 25)
		for k := range arr {
			arr[k] = Arrival{Time: int64(k) * 95 % 1100}
		}
		res, err := Run(g, arr, Bimodal(c1, c2, 0.4, seed), Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := range res.Ops {
			for j := range res.Ops {
				if res.Ops[j].Start > res.Ops[i].End+gap && res.Ops[j].Value <= res.Ops[i].Value {
					t.Fatalf("seed %d: token %d (exit %d, value %d) then token %d (start %d, value %d) despite finish-start gap > %d",
						seed, i, res.Ops[i].End, res.Ops[i].Value, j, res.Ops[j].Start, res.Ops[j].Value, gap)
				}
			}
		}
	}
}
