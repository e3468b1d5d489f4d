package cachesim

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/mem"
)

// Allocation regression tests: Hierarchy.Access is the simulator's hottest
// function and must not allocate on either the innermost-hit fast path or
// the full probe/fill walk.

func TestAccessHitPathZeroAllocs(t *testing.T) {
	d := machine.Xeon7560()
	sp := mem.NewSpace(d.Links, d.Links)
	h := New(d, sp)
	a := mem.Addr(mem.PageSize)
	h.Access(0, 0, a, false)
	clock := int64(1)
	if n := testing.AllocsPerRun(200, func() {
		h.Access(0, clock, a, false)
		clock++
	}); n != 0 {
		t.Errorf("innermost-hit fast path allocates %.1f per access, want 0", n)
	}
}

func TestAccessMissPathZeroAllocs(t *testing.T) {
	d := machine.Xeon7560()
	sp := mem.NewSpace(d.Links, d.Links)
	h := New(d, sp)
	i := 0
	if n := testing.AllocsPerRun(200, func() {
		// Fresh line every call: misses every level, fills down the path.
		h.Access(i%32, int64(i), mem.Addr(mem.PageSize)+mem.Addr(i*64), false)
		i++
	}); n != 0 {
		t.Errorf("miss/fill path allocates %.1f per access, want 0", n)
	}
}
