package cachesim

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/mem"
)

// The tests in this file pin down the eviction corners of the access fast
// path, the innermost hit: invalidations, conflict evictions and resets
// must never turn into false hits, and writes served by an innermost hit
// must still reach the dirty/writeback accounting.

func TestFastPathInvalidatedLineIsNotAFalseHit(t *testing.T) {
	d := machine.Xeon7560()
	sp := mem.NewSpace(d.Links, d.Links)
	h := New(d, sp)
	a := mem.Addr(mem.PageSize)
	h.Access(0, 0, a, false) // cold fill
	if _, lvl := h.Access(0, 1, a, false); lvl != 3 {
		t.Fatalf("warm access served at level %d, want 3 (L1)", lvl)
	}
	// Remove the L1 copy directly, as an exclusive hierarchy would when
	// moving the line.
	l1 := h.CacheAt(3, 0)
	missesBefore := l1.Stats.Misses
	l1.invalidate(a)
	if _, lvl := h.Access(0, 2, a, false); lvl != 2 {
		t.Errorf("after invalidate, access served at level %d, want 2 (L2): false L1 hit", lvl)
	}
	if l1.Stats.Misses != missesBefore+1 {
		t.Errorf("L1 misses = %d, want %d: invalidated line must be a recorded miss", l1.Stats.Misses, missesBefore+1)
	}
	// The L2 hit refilled L1, so the next access is an L1 hit again.
	if _, lvl := h.Access(0, 3, a, false); lvl != 3 {
		t.Errorf("after refill, access served at level %d, want 3", lvl)
	}
}

func TestFastPathConflictEvictedLineIsNotAFalseHit(t *testing.T) {
	// 8-line single-set cache: the line's way, once its set's most recent,
	// is reused by a conflicting line, so the probe must miss.
	h, _ := flatHier(1, 8*64)
	base := mem.Addr(mem.PageSize)
	h.Access(0, 0, base, false)
	if _, lvl := h.Access(0, 1, base, false); lvl != 1 {
		t.Fatalf("warm access served at level %d, want 1", lvl)
	}
	for i := 1; i <= 8; i++ { // 8 conflicting fills evict base (it is LRU)
		h.Access(0, int64(i+1), base+mem.Addr(i*64), false)
	}
	c := h.CacheAt(1, 0)
	if c.findWay(c.line(base)) != -1 {
		t.Fatal("setup failed: base line still resident after 8 conflicting fills")
	}
	hitsBefore := c.Stats.Hits
	if _, lvl := h.Access(0, 100, base, false); lvl != 0 {
		t.Errorf("evicted line served at level %d, want 0 (DRAM): false hit", lvl)
	}
	if c.Stats.Hits != hitsBefore {
		t.Errorf("eviction turned into a false hit: hits %d -> %d", hitsBefore, c.Stats.Hits)
	}
}

func TestFastPathWriteDirtiesLineForWriteback(t *testing.T) {
	// A write served by an innermost hit must set the dirty bit, so the
	// line's later eviction is written back.
	h, _ := flatHier(1, 8*64)
	base := mem.Addr(mem.PageSize)
	h.Access(0, 0, base, false) // clean load
	h.Access(0, 1, base, true)  // write served by an innermost hit
	for i := 1; i <= 8; i++ {   // evict it
		h.Access(0, int64(i+1), base+mem.Addr(i*64), false)
	}
	if h.Writebacks != 1 {
		t.Errorf("Writebacks = %d, want 1: fast-path write lost its dirty bit", h.Writebacks)
	}
}

func TestFastPathWritePropagatesDirtyToOuter(t *testing.T) {
	// Same as above on a deep hierarchy: a write served by an L1 hit must
	// still dirty the outermost (L3) copy for write-back accounting.
	d := machine.Xeon7560()
	sp := mem.NewSpace(4, 4)
	h := New(d, sp)
	a := mem.Addr(mem.PageSize)
	h.Access(0, 0, a, false) // clean load
	if _, lvl := h.Access(0, 1, a, true); lvl != 3 {
		t.Fatal("write not served by the L1 fast path; test exercises nothing")
	}
	l3 := h.CacheAt(1, 0)
	stride := int64(l3.sets) * 64
	for i := 1; i <= l3.assoc; i++ {
		h.Access(0, int64(i+1), a+mem.Addr(int64(i)*stride), false)
	}
	if h.Writebacks == 0 {
		t.Error("dirty line evicted from L3 without a writeback after a fast-path write")
	}
}

func TestResetStartsCold(t *testing.T) {
	h, _ := flatHier(1, 1<<12)
	a := mem.Addr(mem.PageSize)
	h.Access(0, 0, a, false)
	h.Access(0, 1, a, false) // an innermost hit
	h.Reset()
	if _, lvl := h.Access(0, 2, a, false); lvl != 0 {
		t.Errorf("post-Reset access served at level %d, want 0 (DRAM)", lvl)
	}
	if h.HitsAt(1) != 0 {
		t.Errorf("post-Reset hits = %d, want 0", h.HitsAt(1))
	}
}
