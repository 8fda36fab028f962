package shm

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// procIDs is the fixed table procs hands out pointers into, so a lookup
// never allocates: slot i holds id i.
var procIDs = func() (t [256]uint32) {
	for i := range t {
		t[i] = uint32(i)
	}
	return t
}()

// nextProc is the id the next pool miss takes.
var nextProc atomic.Uint32

// procs gives each P its own processor id. Home takes an id and puts it
// straight back, so the pool's per-P private slot returns the same id to
// the same P every time. A miss, on a P's first lookup, after two GCs, or
// when the race detector drops a Put, takes the next id from nextProc.
var procs = sync.Pool{New: func() any {
	return &procIDs[(nextProc.Add(1)-1)%uint32(len(procIDs))]
}}

// Home returns the calling processor's own input: its processor id spread
// over the inputs in van der Corput order (the id's bits reversed, read as
// a fraction of the input width). Ids 0 and 1 land in opposite halves of
// the inputs and ids 0-3 in distinct quarters, so on bitonic[8] the first
// two processors enter different Bitonic[4] halves and share only the last
// merger and the counters. A one-input network returns 0 without a lookup.
//
//countnet:hotpath
func (n *Network) Home() int {
	w := n.g.InWidth()
	if w == 1 {
		return 0
	}
	p := procs.Get().(*uint32)
	id := *p
	procs.Put(p)
	return spread(id, w)
}

// spread maps processor id to an input in [0, w): the id's 32 bits
// reversed form a binary fraction in [0, 1), scaled by w and truncated.
func spread(id uint32, w int) int {
	return int(uint64(bits.Reverse32(id)) * uint64(w) >> 32)
}
