package workload

import (
	"encoding/json"
	"fmt"
)

// Validate checks that the spec describes a runnable workload: a known
// network family, a power-of-two-compatible width (delegated to the
// constructor), and sane counts. It builds the network once to surface
// width errors eagerly.
func (s Spec) Validate() error {
	switch s.Net {
	case Bitonic, DTree, Periodic:
	default:
		return fmt.Errorf("workload: unknown network kind %q", s.Net)
	}
	if _, err := s.Net.Build(s.Width); err != nil {
		return err
	}
	if s.Procs < 1 {
		return fmt.Errorf("workload: %d processors", s.Procs)
	}
	if s.Ops < 1 {
		return fmt.Errorf("workload: %d operations", s.Ops)
	}
	if s.Frac < 0 || s.Frac > 1 {
		return fmt.Errorf("workload: delayed fraction %f outside [0, 1]", s.Frac)
	}
	if s.Wait < 0 {
		return fmt.Errorf("workload: negative wait %d", s.Wait)
	}
	return nil
}

// EncodeSpec renders the spec as one-line JSON, the line the conformance
// harness prints when a cross-engine cell fails; the same conformance
// flags regenerate that cell.
func EncodeSpec(s Spec) ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return json.Marshal(s)
}
