package adaptive

import (
	"testing"
	"unsafe"

	"countnet/internal/bitonic"
	"countnet/internal/shm"
)

// TestCounterLayout pins the line a ModeDirect token writes: the
// direct word fills a whole cache line and every allocation of it starts
// on a line boundary, so no other word shares the line at any allocator
// offset. The linear turn's line is pinned by shm's TestFilterLayout.
func TestCounterLayout(t *testing.T) {
	if sz := unsafe.Sizeof(word{}); sz != cacheLine {
		t.Fatalf("direct word is %d bytes, want %d", sz, cacheLine)
	}
	g, err := bitonic.New(2)
	if err != nil {
		t.Fatal(err)
	}
	n, err := shm.Compile(g, shm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Many counters, so the words land at many places in their spans.
	for i := 0; i < 256; i++ {
		c, err := New(n, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if p := uintptr(unsafe.Pointer(c.direct)); p%cacheLine != 0 {
			t.Fatalf("direct word at %#x, %d bytes past a line boundary", p, p%cacheLine)
		}
	}
}
