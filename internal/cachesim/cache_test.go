package cachesim

import (
	"testing"
	"testing/quick"

	"repro/internal/machine"
	"repro/internal/mem"
)

func flatHier(nCores int, cacheSize int64) (*Hierarchy, *mem.Space) {
	d := machine.Flat(nCores, cacheSize)
	s := mem.NewSpace(d.Links, d.Links)
	return New(d, s), s
}

// probe looks up the line containing a the way Access probes one level:
// a hit makes the line most recently used (dirty on a write) and counts a
// hit; a miss counts a miss and changes nothing else.
func (c *Cache) probe(a mem.Addr, write bool) bool {
	ln := c.line(a)
	way, _ := c.find(ln)
	if way < 0 {
		c.Stats.Misses++
		return false
	}
	c.touch(way)
	if write {
		c.dirty[way] = true
	}
	c.Stats.Hits++
	return true
}

// fill installs the line containing a into the victim way a missing probe
// names, as Access's inclusive fill does.
func (c *Cache) fill(a mem.Addr, write bool) (evicted mem.Addr, evictedDirty bool) {
	_, victim := c.find(c.line(a))
	return c.fillAt(a, write, victim)
}

func TestColdMissThenHit(t *testing.T) {
	h, _ := flatHier(1, 1<<16)
	a := mem.Addr(mem.PageSize)
	cost1, lvl1 := h.Access(0, 0, a, false)
	if lvl1 != 0 {
		t.Fatalf("cold access served at level %d, want 0 (DRAM)", lvl1)
	}
	if cost1 < h.Desc.MemLatency {
		t.Errorf("cold cost %d < memory latency %d", cost1, h.Desc.MemLatency)
	}
	cost2, lvl2 := h.Access(0, cost1, a, false)
	if lvl2 != 1 {
		t.Fatalf("second access served at level %d, want 1", lvl2)
	}
	if cost2 != h.Desc.Levels[1].HitCost {
		t.Errorf("hit cost %d, want %d", cost2, h.Desc.Levels[1].HitCost)
	}
	// Same line, different offset: still a hit.
	if _, lvl := h.Access(0, 0, a+63, false); lvl != 1 {
		t.Error("access within the same line missed")
	}
	if _, lvl := h.Access(0, 0, a+64, false); lvl != 0 {
		t.Error("access to the next line hit without being loaded")
	}
}

func TestScanMissCountMatchesLines(t *testing.T) {
	// Streaming over N bytes should miss exactly N/64 times per pass when
	// the array fits in cache, and every pass when it is twice the cache.
	const cache = 1 << 14 // 16KB = 256 lines
	h, _ := flatHier(1, cache)
	base := mem.Addr(mem.PageSize)

	scan := func(bytes int64) {
		for off := int64(0); off < bytes; off += 8 {
			h.Access(0, 0, base+mem.Addr(off), false)
		}
	}
	scan(cache) // fits exactly
	if got := h.MissesAt(1); got != cache/64 {
		t.Errorf("first pass misses = %d, want %d", got, cache/64)
	}
	scan(cache) // second pass: all hits
	if got := h.MissesAt(1); got != cache/64 {
		t.Errorf("after warm pass misses = %d, want %d", got, cache/64)
	}

	h.Reset()
	scan(2 * cache) // twice the cache: LRU on a cyclic scan evicts ahead
	scan(2 * cache)
	if got := h.MissesAt(1); got != 4*cache/64 {
		t.Errorf("thrashing misses = %d, want %d (every line, every pass)", got, 4*cache/64)
	}
}

func TestLRUWithinSet(t *testing.T) {
	// Direct exercise of one set: with associativity A, touching A distinct
	// lines mapping to one set keeps them all resident; the (A+1)-th evicts
	// the least recently used.
	c := newCache(1, 0, 8*64, 64) // 8 lines, 8-way → one set
	addr := func(i int) mem.Addr { return mem.Addr(i * 64) }
	for i := 0; i < 8; i++ {
		if c.probe(addr(i), false) {
			t.Fatalf("line %d hit while cold", i)
		}
		c.fill(addr(i), false)
	}
	for i := 0; i < 8; i++ {
		if !c.probe(addr(i), false) {
			t.Fatalf("line %d evicted while set not over-full", i)
		}
	}
	// Touch 0..7 again in order, then insert line 8: line 0 is LRU.
	c.fill(addr(8), false)
	if c.probe(addr(0), false) {
		t.Error("LRU line 0 survived eviction")
	}
	if !c.probe(addr(8), false) {
		t.Error("newly filled line 8 missing")
	}
	if !c.probe(addr(7), false) {
		t.Error("MRU line 7 evicted")
	}
	if c.Stats.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", c.Stats.Evictions)
	}
}

func TestSharedCacheIsShared(t *testing.T) {
	// Two cores under one cache: core 0 loads a line, core 1 hits it.
	h, _ := flatHier(2, 1<<16)
	a := mem.Addr(mem.PageSize)
	h.Access(0, 0, a, false)
	if _, lvl := h.Access(1, 0, a, false); lvl != 1 {
		t.Error("core 1 missed a line loaded by core 0 in the shared cache")
	}
}

func TestPrivateCachesArePrivate(t *testing.T) {
	// Xeon: L1/L2 are per-core, so core 1 must miss at L1/L2 on a line
	// loaded by core 0 but hit the shared per-socket L3. Cores 0 and 1 are
	// logical ids; map both through the core map onto leaves of socket 0.
	d := machine.Xeon7560()
	s := mem.NewSpace(d.Links, d.Links)
	h := New(d, s)
	leafA, leafB := 0, 1 // leaves 0 and 1 share the socket-0 L3
	a := mem.Addr(mem.PageSize)
	h.Access(leafA, 0, a, false)
	cost, lvl := h.Access(leafB, 0, a, false)
	if lvl != 1 {
		t.Fatalf("neighbor core served at level %d, want 1 (L3)", lvl)
	}
	if cost != d.Levels[1].HitCost {
		t.Errorf("L3 hit cost = %d, want %d", cost, d.Levels[1].HitCost)
	}
	// A leaf on another socket misses entirely.
	far := 31
	if _, lvl := h.Access(far, 0, a, false); lvl != 0 {
		t.Errorf("cross-socket access served at level %d, want 0", lvl)
	}
}

func TestInclusiveFill(t *testing.T) {
	d := machine.Xeon7560()
	s := mem.NewSpace(d.Links, d.Links)
	h := New(d, s)
	a := mem.Addr(mem.PageSize)
	h.Access(0, 0, a, false)
	// After one DRAM access the line must be present at L1, L2 and L3.
	if _, lvl := h.Access(0, 0, a, false); lvl != 3 {
		t.Errorf("after fill, access served at level %d, want 3 (L1)", lvl)
	}
}

func TestBandwidthQueueing(t *testing.T) {
	// All accesses at time 0 to pages on a single link must serialize: the
	// k-th access waits (k-1)*LineService cycles.
	d := machine.Flat(4, 1<<12)
	sp := mem.NewSpace(1, 1)
	h := New(d, sp)
	var costs []int64
	for i := 0; i < 4; i++ {
		// Distinct lines so each is a genuine DRAM access.
		cost, _ := h.Access(i, 0, mem.Addr(mem.PageSize+i*64), false)
		costs = append(costs, cost)
	}
	base := d.LineService + d.MemLatency
	for k, c := range costs {
		want := base + int64(k)*d.LineService
		if c != want {
			t.Errorf("access %d cost = %d, want %d", k, c, want)
		}
	}
	if h.StallCycles != 6*d.LineService {
		t.Errorf("StallCycles = %d, want %d", h.StallCycles, 6*d.LineService)
	}
	if h.DRAMAccesses != 4 {
		t.Errorf("DRAMAccesses = %d, want 4", h.DRAMAccesses)
	}
}

func TestMoreLinksMoreBandwidth(t *testing.T) {
	// Interleaved pages over 4 links: four concurrent accesses to four
	// different pages suffer no queueing.
	d := machine.Xeon7560()
	sp := mem.NewSpace(4, 4)
	h := New(d, sp)
	for i := 0; i < 4; i++ {
		// Page i lives on link i; leaf i*8 is on socket i: local access.
		cost, _ := h.Access(i*8, 0, mem.Addr(i*mem.PageSize+128), false)
		if want := d.LineService + d.MemLatency; cost != want {
			t.Errorf("access %d cost = %d, want %d (no queueing)", i, cost, want)
		}
	}
	if h.StallCycles != 0 {
		t.Errorf("StallCycles = %d, want 0", h.StallCycles)
	}
	if h.RemoteHits != 0 {
		t.Errorf("RemoteHits = %d, want 0 for local pages", h.RemoteHits)
	}
}

func TestRemoteSocketLatency(t *testing.T) {
	d := machine.Xeon7560()
	sp := mem.NewSpace(4, 4)
	h := New(d, sp)
	// Leaf 0 (socket 0) accessing a page on link 1 pays the QPI premium.
	cost, _ := h.Access(0, 0, mem.Addr(mem.PageSize+64), false)
	want := d.LineService + d.MemLatency + d.RemoteLatency
	if cost != want {
		t.Errorf("remote access cost = %d, want %d", cost, want)
	}
	if h.RemoteHits != 1 {
		t.Errorf("RemoteHits = %d, want 1", h.RemoteHits)
	}
	// Same leaf, local page: no premium.
	cost, _ = h.Access(0, 0, mem.Addr(4*mem.PageSize+64), false) // page 4 → link 0
	if want := d.LineService + d.MemLatency; cost != want {
		t.Errorf("local access cost = %d, want %d", cost, want)
	}
}

func TestWritebackConsumesBandwidth(t *testing.T) {
	// Fill a tiny cache with written lines, then stream reads through it:
	// every eviction of a dirty line must consume one line slot on its
	// link, visible as Writebacks and as extra queueing for later misses.
	d := machine.Flat(1, 8*64) // 8-line cache
	sp := mem.NewSpace(1, 1)
	h := New(d, sp)
	base := mem.Addr(mem.PageSize)
	for i := 0; i < 8; i++ {
		h.Access(0, 0, base+mem.Addr(i*64), true) // dirty the whole cache
	}
	if h.Writebacks != 0 {
		t.Fatalf("premature writebacks: %d", h.Writebacks)
	}
	for i := 8; i < 16; i++ {
		h.Access(0, 1_000_000, base+mem.Addr(i*64), false) // evict dirty lines
	}
	if h.Writebacks != 8 {
		t.Errorf("Writebacks = %d, want 8", h.Writebacks)
	}
	// Reads evicting clean lines add no writebacks.
	for i := 16; i < 24; i++ {
		h.Access(0, 2_000_000, base+mem.Addr(i*64), false)
	}
	if h.Writebacks != 8 {
		t.Errorf("clean evictions changed Writebacks to %d", h.Writebacks)
	}
}

func TestInnerWritePropagatesDirtyToOuter(t *testing.T) {
	// A write served by the L1 must still dirty the L3 copy, so its later
	// L3 eviction is written back.
	d := machine.Xeon7560()
	sp := mem.NewSpace(4, 4)
	h := New(d, sp)
	a := mem.Addr(mem.PageSize)
	h.Access(0, 0, a, false) // load clean
	h.Access(0, 0, a, true)  // write hits L1
	// Evict it from L3 by filling its set with conflicting lines. The L3
	// set index repeats every sets*64 bytes.
	l3 := h.CacheAt(1, 0)
	stride := int64(l3.sets) * 64
	for i := 1; i <= l3.assoc; i++ {
		h.Access(0, int64(i), a+mem.Addr(int64(i)*stride), false)
	}
	if h.Writebacks == 0 {
		t.Error("dirty line evicted from L3 without a writeback")
	}
}

func TestMissesAtMatchesDRAM(t *testing.T) {
	d := machine.Xeon7560()
	sp := mem.NewSpace(4, 4)
	h := New(d, sp)
	src := mem.Addr(mem.PageSize)
	for i := 0; i < 10000; i++ {
		h.Access(i%32, int64(i), src+mem.Addr(i*8), false)
	}
	if h.MissesAt(1) != h.DRAMAccesses {
		t.Errorf("outermost misses %d != DRAM accesses %d", h.MissesAt(1), h.DRAMAccesses)
	}
	if h.HitsAt(3)+h.MissesAt(3) != 10000 {
		t.Errorf("L1 hits+misses = %d, want 10000", h.HitsAt(3)+h.MissesAt(3))
	}
}

func TestResetClearsEverything(t *testing.T) {
	h, _ := flatHier(1, 1<<12)
	for i := 0; i < 100; i++ {
		h.Access(0, 0, mem.Addr(mem.PageSize+i*64), false)
	}
	h.Reset()
	if h.MissesAt(1) != 0 || h.HitsAt(1) != 0 || h.DRAMAccesses != 0 || h.StallCycles != 0 {
		t.Error("Reset left counters non-zero")
	}
	if _, lvl := h.Access(0, 0, mem.Addr(mem.PageSize), false); lvl != 0 {
		t.Error("Reset left lines resident")
	}
}

func TestCacheCapacityProperty(t *testing.T) {
	// Property: a working set of k distinct lines, k <= lines/sets-safety,
	// accessed round-robin many times, eventually stops missing entirely
	// when k lines all fit (here the cache is fully associative: one set).
	f := func(k8 uint8) bool {
		k := int(k8%8) + 1 // 1..8 lines in an 8-way single-set cache
		c := newCache(1, 0, 8*64, 64)
		for pass := 0; pass < 3; pass++ {
			for i := 0; i < k; i++ {
				if !c.probe(mem.Addr(i*64), false) {
					if pass > 0 {
						return false // must be warm after first pass
					}
					c.fill(mem.Addr(i*64), false)
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewValidations(t *testing.T) {
	d := machine.Flat(2, 1<<12)
	defer func() {
		if recover() == nil {
			t.Fatal("New with mismatched links did not panic")
		}
	}()
	New(d, mem.NewSpace(d.Links+1, 1))
}

func exclusiveMachine() *machine.Desc {
	d := machine.TwoSocket(2, 1<<14, 1<<12) // L2 16KB, L1 4KB per core
	d.NonInclusive = true
	return d
}

func TestExclusiveLineLivesInOneLevel(t *testing.T) {
	d := exclusiveMachine()
	sp := mem.NewSpace(d.Links, d.Links)
	h := New(d, sp)
	a := mem.Addr(mem.PageSize)
	h.Access(0, 0, a, false)
	// The line is in L1 only: a quiet probe of L2 must not find it.
	if h.CacheAt(1, 0).probe(a, false) {
		t.Fatal("exclusive fill left a copy in the outer cache")
	}
}

func TestExclusiveVictimMovesOutward(t *testing.T) {
	d := exclusiveMachine()
	sp := mem.NewSpace(d.Links, d.Links)
	h := New(d, sp)
	base := mem.Addr(mem.PageSize)
	// Fill L1 (4KB = 64 lines) and overflow it: the evicted lines must be
	// caught by L2 (victim cache), so re-accessing them hits L2, not DRAM.
	for i := 0; i < 128; i++ {
		h.Access(0, 0, base+mem.Addr(i*64), false)
	}
	dramBefore := h.DRAMAccesses
	if _, lvl := h.Access(0, 0, base, false); lvl != 1 {
		t.Fatalf("victim line served at level %d, want 1 (L2)", lvl)
	}
	if h.DRAMAccesses != dramBefore {
		t.Fatal("victim hit went to DRAM")
	}
}

func TestExclusiveAggregateCapacity(t *testing.T) {
	// Exclusive hierarchies cache L1+L2 worth of distinct lines; inclusive
	// ones only L2 worth. A working set of L1+L2 must be fully resident.
	d := exclusiveMachine()
	sp := mem.NewSpace(d.Links, d.Links)
	h := New(d, sp)
	base := mem.Addr(mem.PageSize)
	lines := int((d.Levels[1].Size + d.Levels[2].Size) / 64) // 320 lines
	for pass := 0; pass < 4; pass++ {
		for i := 0; i < lines; i++ {
			h.Access(0, 0, base+mem.Addr(i*64), false)
		}
	}
	// Cold misses only: every line fetched from DRAM exactly once.
	// (LRU cycling could evict marginally; allow a small margin.)
	if h.DRAMAccesses > int64(lines)*2 {
		t.Errorf("DRAM accesses %d for %d-line working set: aggregate capacity not exploited", h.DRAMAccesses, lines)
	}
}

func TestExclusiveDirtyVictimWritesBack(t *testing.T) {
	d := machine.Flat(1, 8*64)
	d.NonInclusive = true
	sp := mem.NewSpace(1, 1)
	h := New(d, sp)
	base := mem.Addr(mem.PageSize)
	for i := 0; i < 8; i++ {
		h.Access(0, 0, base+mem.Addr(i*64), true)
	}
	for i := 8; i < 16; i++ {
		h.Access(0, 0, base+mem.Addr(i*64), false)
	}
	if h.Writebacks != 8 {
		t.Errorf("Writebacks = %d, want 8", h.Writebacks)
	}
}
