package workload

import (
	"encoding/json"
	"reflect"
	"testing"
)

func TestSpecRoundTrip(t *testing.T) {
	specs := []Spec{
		{Net: Bitonic, Width: 8, Procs: 4, Ops: 100, Frac: 0.25, Wait: 1000, Seed: 7},
		{Net: DTree, Width: 4, Procs: 16, Ops: 50, Frac: 0.5, Wait: 0, RandomWait: true, Seed: 1},
		{Net: Periodic, Width: 2, Procs: 1, Ops: 1, Frac: 0, Wait: 0, Seed: 0},
	}
	for _, s := range specs {
		data, err := EncodeSpec(s)
		if err != nil {
			t.Fatalf("%s: encode: %v", s, err)
		}
		var got Spec
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatalf("%s: decode: %v", s, err)
		}
		if !reflect.DeepEqual(s, got) {
			t.Errorf("round trip mangled spec:\nwrote %+v\nread  %+v", s, got)
		}
	}
}

func TestSpecValidate(t *testing.T) {
	good := Spec{Net: Bitonic, Width: 8, Procs: 4, Ops: 100, Frac: 0.25, Wait: 1000}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Spec)
	}{
		{"unknown net", func(s *Spec) { s.Net = "torus" }},
		{"bad width", func(s *Spec) { s.Width = 3 }},
		{"no procs", func(s *Spec) { s.Procs = 0 }},
		{"no ops", func(s *Spec) { s.Ops = 0 }},
		{"frac too big", func(s *Spec) { s.Frac = 1.5 }},
		{"negative wait", func(s *Spec) { s.Wait = -1 }},
	}
	for _, tc := range cases {
		s := good
		tc.mut(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: validation passed", tc.name)
		}
		if _, err := EncodeSpec(s); err == nil {
			t.Errorf("%s: encode accepted invalid spec", tc.name)
		}
	}
}
