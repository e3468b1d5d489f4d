package cachesim

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/mem"
)

// BenchmarkAccessHit measures the simulator's hot path: an L1 hit.
func BenchmarkAccessHit(b *testing.B) {
	d := machine.Xeon7560()
	sp := mem.NewSpace(d.Links, d.Links)
	h := New(d, sp)
	a := mem.Addr(mem.PageSize)
	h.Access(0, 0, a, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(0, int64(i), a, false)
	}
}

// BenchmarkAccessTwoStreams measures RRM's access pattern: read a[i],
// write b[i], on two page-aligned arrays that fit in L1 together, so
// a[i] and b[i] share a set and every access is an L1 hit on a line that
// is not the previous access's.
func BenchmarkAccessTwoStreams(b *testing.B) {
	d := machine.Xeon7560()
	sp := mem.NewSpace(d.Links, d.Links)
	h := New(d, sp)
	const n = 1 << 10 // 8KB per array
	x, y := sp.Alloc("a", 8*n), sp.Alloc("b", 8*n)
	for i := 0; i < n; i++ {
		h.Access(0, 0, x+mem.Addr(8*i), false)
		h.Access(0, 0, y+mem.Addr(8*i), true)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := mem.Addr(8 * (i / 2 % n))
		if i&1 == 0 {
			h.Access(0, int64(i), x+off, false)
		} else {
			h.Access(0, int64(i), y+off, true)
		}
	}
}

// BenchmarkAccessStream measures a streaming scan (mostly misses at the
// inner levels, periodic DRAM accesses).
func BenchmarkAccessStream(b *testing.B) {
	d := machine.Xeon7560()
	sp := mem.NewSpace(d.Links, d.Links)
	h := New(d, sp)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(i%32, int64(i), mem.Addr(mem.PageSize)+mem.Addr(i*8), false)
	}
}

// BenchmarkAccessRandom measures random-gather behaviour across a large
// footprint (DRAM-dominated).
func BenchmarkAccessRandom(b *testing.B) {
	d := machine.Xeon7560()
	sp := mem.NewSpace(d.Links, d.Links)
	h := New(d, sp)
	const span = 1 << 28
	x := uint64(0x9e3779b97f4a7c15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		h.Access(int(x%32), int64(i), mem.Addr(mem.PageSize)+mem.Addr(x%span), false)
	}
}

// BenchmarkAccessConflict measures the miss path's victim selection:
// sixteen lines that share one L1 and one L2 set, touched in a cycle, so
// under LRU every access misses both levels and evicts, and hits the L3.
// The cycle walks across sets so the whole tag array stays in play.
func BenchmarkAccessConflict(b *testing.B) {
	d := machine.Xeon7560()
	sp := mem.NewSpace(d.Links, d.Links)
	h := New(d, sp)
	l2 := h.CacheAt(2, 0)
	stride := mem.Addr(l2.sets * 64) // same L1 and L2 set, distinct L3 sets
	const lines = 2 * defaultAssoc
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set := mem.Addr(i/lines%l2.sets) * 64
		h.Access(0, int64(i), mem.Addr(mem.PageSize)+set+mem.Addr(i%lines)*stride, false)
	}
}
