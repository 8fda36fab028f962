package schedule

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"countnet/internal/bitonic"
)

func sampleConcrete() *Concrete {
	return &Concrete{
		Net:   "bitonic",
		Width: 4,
		C1:    10,
		C2:    20,
		Tokens: []ConcreteToken{
			{Time: 0, Input: 0, Delays: []int64{10, 20, 10}},
			{Time: 5, Input: 3, Delays: []int64{20}},
			{Time: 40, Input: 1},
		},
	}
}

func TestConcreteRoundTrip(t *testing.T) {
	c := sampleConcrete()
	var buf bytes.Buffer
	if err := WriteConcrete(&buf, c); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if lines := strings.Count(text, "\n"); lines != 1+len(c.Tokens) {
		t.Fatalf("serialized %d lines, want %d:\n%s", lines, 1+len(c.Tokens), text)
	}
	got, err := ReadConcrete(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c, got) {
		t.Fatalf("round trip mismatch:\nwrote %+v\nread  %+v", c, got)
	}
}

func TestConcreteRunMatchesExplicit(t *testing.T) {
	g, err := bitonic.New(4)
	if err != nil {
		t.Fatal(err)
	}
	c := &Concrete{
		Net: "bitonic", Width: 4, C1: 10, C2: 20,
		Tokens: []ConcreteToken{
			{Time: 0, Input: 0, Delays: []int64{10, 20, 10}},
			{Time: 3, Input: 1, Delays: []int64{20, 20, 20}},
			{Time: 7, Input: 2, Delays: []int64{10, 10, 10}},
		},
	}
	res, err := c.Run(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := Run(g, c.Arrivals(), c.Delays(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Ops, explicit.Ops) {
		t.Fatalf("concrete run %v != explicit run %v", res.Ops, explicit.Ops)
	}
}

func TestConcreteDelaysClampAndDefault(t *testing.T) {
	c := sampleConcrete()
	d := c.Delays()
	if got := d.Link(0, 2); got != 20 {
		t.Errorf("token 0 link 2 = %d, want 20", got)
	}
	if got := d.Link(1, 5); got != 20 {
		t.Errorf("past-end delay should repeat last entry, got %d", got)
	}
	if got := d.Link(2, 1); got != c.C1 {
		t.Errorf("empty delay list should default to c1, got %d", got)
	}
}

func TestConcreteValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Concrete)
	}{
		{"bad bounds", func(c *Concrete) { c.C2 = c.C1 - 1 }},
		{"zero c1", func(c *Concrete) { c.C1 = 0 }},
		{"negative time", func(c *Concrete) { c.Tokens[0].Time = -1 }},
		{"negative input", func(c *Concrete) { c.Tokens[1].Input = -2 }},
		{"delay below c1", func(c *Concrete) { c.Tokens[0].Delays[0] = 1 }},
		{"delay above c2", func(c *Concrete) { c.Tokens[0].Delays[2] = 999 }},
	}
	for _, tc := range cases {
		c := sampleConcrete()
		tc.mut(c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: validation passed", tc.name)
		}
	}
	if err := sampleConcrete().Validate(); err != nil {
		t.Errorf("valid schedule rejected: %v", err)
	}
}

func TestSearchResultConcrete(t *testing.T) {
	r := &SearchResult{
		Arrivals:   []Arrival{{Time: 1, Input: 0}, {Time: 2, Input: 1}},
		LinkDelays: [][]int64{{10, 20}, {20, 10}},
	}
	c := r.Concrete("dtree", 4, 10, 20)
	if len(c.Tokens) != 2 || c.Tokens[1].Delays[0] != 20 {
		t.Fatalf("conversion mangled: %+v", c)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}
