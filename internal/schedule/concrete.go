package schedule

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"countnet/internal/topo"
)

// Concrete is a fully materialized timing schedule: every arrival time and
// every per-token per-link delay is an explicit number, so the schedule can
// be serialized, shrunk, and replayed bit-for-bit. It is the exchange
// format between the conformance fuzzer, the shrinker, and
// `cmd/adversary -replay`.
type Concrete struct {
	// Net and Width name the network family the schedule was generated
	// for (e.g. "bitonic", 8), so replay tools can rebuild the graph.
	Net   string
	Width int
	// C1 and C2 are the link-delay bounds every entry of Tokens[i].Delays
	// is expected to respect; they drive the Corollary 3.9/3.12 checks.
	C1, C2 int64
	// Tokens is the schedule itself, one entry per token in injection
	// order.
	Tokens []ConcreteToken
}

// ConcreteToken schedules one token: it enters input port Input at time
// Time, and its g-th link traversal (1-based) takes Delays[g-1]. When a
// token traverses more links than len(Delays) — for example after the
// network was padded — the last entry repeats; an empty slice means C1
// everywhere.
type ConcreteToken struct {
	Time   int64   `json:"t"`
	Input  int     `json:"input"`
	Delays []int64 `json:"delays,omitempty"`
}

// Validate checks internal consistency: sane bounds and every delay within
// [C1, C2].
func (c *Concrete) Validate() error {
	if c.C1 <= 0 || c.C2 < c.C1 {
		return fmt.Errorf("schedule: bad timing bounds c1=%d c2=%d", c.C1, c.C2)
	}
	for k, tok := range c.Tokens {
		if tok.Time < 0 {
			return fmt.Errorf("schedule: token %d arrives at negative time %d", k, tok.Time)
		}
		if tok.Input < 0 {
			return fmt.Errorf("schedule: token %d enters negative input %d", k, tok.Input)
		}
		for l, d := range tok.Delays {
			if d < c.C1 || d > c.C2 {
				return fmt.Errorf("schedule: token %d link %d delay %d outside [%d, %d]",
					k, l+1, d, c.C1, c.C2)
			}
		}
	}
	return nil
}

// Arrivals converts the schedule's tokens to executor arrivals.
func (c *Concrete) Arrivals() []Arrival {
	out := make([]Arrival, len(c.Tokens))
	for k, tok := range c.Tokens {
		out[k] = Arrival{Time: tok.Time, Input: tok.Input}
	}
	return out
}

// Delays adapts the schedule's delay lists to the executor's Delays
// interface, repeating the last entry past the end of a token's list.
func (c *Concrete) Delays() Delays {
	return DelayFunc(func(tok, link int) int64 {
		d := c.Tokens[tok].Delays
		if len(d) == 0 {
			return c.C1
		}
		if link-1 < len(d) {
			return d[link-1]
		}
		return d[len(d)-1]
	})
}

// Run executes the schedule on g.
func (c *Concrete) Run(g *topo.Graph, opts Options) (*Result, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return Run(g, c.Arrivals(), c.Delays(), opts)
}

// concreteHeader is the first JSONL line of a serialized schedule.
type concreteHeader struct {
	Net    string `json:"net,omitempty"`
	Width  int    `json:"width,omitempty"`
	C1     int64  `json:"c1"`
	C2     int64  `json:"c2"`
	Tokens int    `json:"tokens"`
}

// WriteConcrete serializes the schedule as JSON Lines: a header line with
// the network hint, timing bounds, and token count, then one line per
// token. The format is the reproducer emitted by the conformance shrinker
// and accepted by `cmd/adversary -replay`.
func WriteConcrete(w io.Writer, c *Concrete) error {
	if c == nil {
		return fmt.Errorf("schedule: nil concrete schedule")
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(concreteHeader{
		Net: c.Net, Width: c.Width, C1: c.C1, C2: c.C2, Tokens: len(c.Tokens),
	}); err != nil {
		return err
	}
	for k := range c.Tokens {
		if err := enc.Encode(&c.Tokens[k]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadConcrete parses a schedule serialized by WriteConcrete and validates
// it.
func ReadConcrete(r io.Reader) (*Concrete, error) {
	dec := json.NewDecoder(r)
	var hdr concreteHeader
	if err := dec.Decode(&hdr); err != nil {
		return nil, fmt.Errorf("schedule: concrete header: %w", err)
	}
	if hdr.Tokens < 0 {
		return nil, fmt.Errorf("schedule: negative token count %d", hdr.Tokens)
	}
	c := &Concrete{Net: hdr.Net, Width: hdr.Width, C1: hdr.C1, C2: hdr.C2}
	for k := 0; k < hdr.Tokens; k++ {
		var tok ConcreteToken
		if err := dec.Decode(&tok); err != nil {
			return nil, fmt.Errorf("schedule: concrete token %d: %w", k, err)
		}
		c.Tokens = append(c.Tokens, tok)
	}
	// A hand-edited file whose header count disagrees with its token lines
	// would otherwise be silently truncated.
	var extra ConcreteToken
	if err := dec.Decode(&extra); err != io.EOF {
		return nil, fmt.Errorf("schedule: trailing data after %d tokens (header count mismatch?)", hdr.Tokens)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// Clone deep-copies the schedule; the shrinker mutates clones.
func (c *Concrete) Clone() *Concrete {
	out := &Concrete{Net: c.Net, Width: c.Width, C1: c.C1, C2: c.C2}
	out.Tokens = make([]ConcreteToken, len(c.Tokens))
	for k, tok := range c.Tokens {
		out.Tokens[k] = ConcreteToken{
			Time:   tok.Time,
			Input:  tok.Input,
			Delays: append([]int64(nil), tok.Delays...),
		}
	}
	return out
}

// Concrete converts a search result into a serializable concrete schedule.
//
//countnet:allow apivet -- turns a found schedule into a replayable one for the schedule and conformance tests
func (r *SearchResult) Concrete(net string, width int, c1, c2 int64) *Concrete {
	c := &Concrete{Net: net, Width: width, C1: c1, C2: c2}
	for k, a := range r.Arrivals {
		c.Tokens = append(c.Tokens, ConcreteToken{
			Time:   a.Time,
			Input:  a.Input,
			Delays: append([]int64(nil), r.LinkDelays[k]...),
		})
	}
	return c
}
