package adaptive

import (
	"fmt"
	"testing"
	"unsafe"

	"countnet/internal/bitonic"
	"countnet/internal/shm"
)

// TestCounterLayout pins the cache-line layout enter's cost depends on:
// gate and cur alone on the first line, every census stripe a whole line
// of its own, and the direct and turn counters line-aligned, so no
// per-token write lands on a line another token reads. It checks the
// struct offsets and then the lines a live Counter's words occupy.
func TestCounterLayout(t *testing.T) {
	var c Counter
	curEnd := unsafe.Offsetof(c.cur) + unsafe.Sizeof(c.cur)
	if off := unsafe.Offsetof(c.inflight); off%cacheLine != 0 || off < curEnd {
		t.Errorf("inflight at offset %d: want a multiple of %d at or past cur's end (%d)", off, cacheLine, curEnd)
	}
	if sz := unsafe.Sizeof(c.inflight[0]); sz != cacheLine {
		t.Errorf("census stripe is %d bytes, want %d", sz, cacheLine)
	}
	for _, f := range []struct {
		name string
		off  uintptr
	}{
		{"direct", unsafe.Offsetof(c.direct)},
		{"turn", unsafe.Offsetof(c.turn)},
	} {
		if f.off%cacheLine != 0 {
			t.Errorf("%s at offset %d, want a multiple of %d", f.name, f.off, cacheLine)
		}
	}

	// The allocator may start a Counter off a line boundary (Go puts an
	// 8-byte malloc header before large pointerful objects), which shifts
	// every word equally. Check the lines the words actually land on.
	g, err := bitonic.New(2)
	if err != nil {
		t.Fatal(err)
	}
	n, err := shm.Compile(g, shm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	nc, err := New(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	line := func(p unsafe.Pointer) uintptr { return uintptr(p) / cacheLine }
	gateLine := line(unsafe.Pointer(&nc.gate))
	if line(unsafe.Pointer(&nc.cur)) != gateLine {
		t.Errorf("gate and cur on different lines (Counter at %p)", nc)
	}
	owner := map[uintptr]string{gateLine: "gate"}
	claim := func(name string, p unsafe.Pointer) {
		if prev, ok := owner[line(p)]; ok {
			t.Errorf("%s shares a cache line with %s (Counter at %p)", name, prev, nc)
		}
		owner[line(p)] = name
	}
	for i := range nc.inflight {
		claim(fmt.Sprintf("census stripe %d", i), unsafe.Pointer(&nc.inflight[i].v))
	}
	claim("direct", unsafe.Pointer(&nc.direct.v))
	claim("turn", unsafe.Pointer(&nc.turn))
}
