package core

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTimingValidate(t *testing.T) {
	cases := []struct {
		tm Timing
		ok bool
	}{
		{Timing{C1: 1, C2: 1}, true},
		{Timing{C1: 1, C2: 100}, true},
		{Timing{C1: 0, C2: 5}, false},
		{Timing{C1: -1, C2: 5}, false},
		{Timing{C1: 10, C2: 5}, false},
	}
	for _, c := range cases {
		err := c.tm.Validate()
		if (err == nil) != c.ok {
			t.Errorf("Validate(%+v) = %v, want ok=%v", c.tm, err, c.ok)
		}
	}
}

func TestLinearizableBound(t *testing.T) {
	if !(Timing{C1: 100, C2: 200}).Linearizable() {
		t.Error("c2 = 2*c1 must be linearizable (Corollary 3.9)")
	}
	if (Timing{C1: 100, C2: 201}).Linearizable() {
		t.Error("c2 > 2*c1 must not be guaranteed linearizable")
	}
}

func TestGaps(t *testing.T) {
	tm := Timing{C1: 100, C2: 250}
	if got := tm.FinishStartGap(5); got != 5*250-2*5*100 {
		t.Errorf("FinishStartGap = %d", got)
	}
	if got := tm.StartStartGap(5); got != 2*5*150 {
		t.Errorf("StartStartGap = %d", got)
	}
	// c2 < 2*c1 makes the finish-start gap negative: any non-overlapping
	// pair is ordered with slack.
	if got := (Timing{C1: 100, C2: 150}).FinishStartGap(4); got >= 0 {
		t.Errorf("FinishStartGap = %d, want negative", got)
	}
	if got := tm.Ratio(); got != 2.5 {
		t.Errorf("Ratio = %f", got)
	}
}

func TestK(t *testing.T) {
	cases := []struct {
		c1, c2 int64
		want   int
	}{
		{100, 100, 1},
		{100, 200, 2},
		{100, 201, 3},
		{100, 250, 3},
		{100, 300, 3},
		{100, 301, 4},
	}
	for _, c := range cases {
		if got := (Timing{C1: c.c1, C2: c.c2}).K(); got != c.want {
			t.Errorf("K(%d,%d) = %d, want %d", c.c1, c.c2, got, c.want)
		}
	}
}

func TestKCoversRatioQuick(t *testing.T) {
	f := func(c1Raw, c2Raw uint16) bool {
		c1 := int64(c1Raw%1000) + 1
		c2 := c1 + int64(c2Raw%5000)
		k := (Timing{C1: c1, C2: c2}).K()
		return int64(k)*c1 >= c2 && int64(k-1)*c1 < c2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPadding(t *testing.T) {
	if got := PaddingLength(5, 2); got != 0 {
		t.Errorf("PaddingLength(5,2) = %d", got)
	}
	if got := PaddingLength(5, 1); got != 0 {
		t.Errorf("PaddingLength(5,1) = %d", got)
	}
	if got := PaddingLength(5, 4); got != 10 {
		t.Errorf("PaddingLength(5,4) = %d, want h*(k-2) = 10", got)
	}
	if got := PaddedDepth(5, 4); got != 15 {
		t.Errorf("PaddedDepth(5,4) = %d, want h*(k-1) = 15", got)
	}
}

func TestAvgRatio(t *testing.T) {
	// Figure 7 calibration: bitonic, n=4, W=100 reports 1.45, so
	// Tog = 100/0.45 ≈ 222.
	tog := 100 / 0.45
	if r := AvgRatio(tog, 100); math.Abs(r-1.45) > 1e-9 {
		t.Errorf("AvgRatio(100/0.45, 100) = %f, want 1.45", r)
	}
	if !math.IsInf(AvgRatio(0, 100), 1) {
		t.Error("AvgRatio with zero Tog should be +Inf")
	}
}
