// Package cachesim simulates the tree of caches of a PMH machine with exact
// hit/miss accounting — the simulator's replacement for the hardware
// performance counters (C-Box PMUs) the paper reads on the Xeon 7560.
//
// Each cache is set-associative with LRU replacement within sets. Caches at
// a shared level (e.g. the per-socket L3) are single objects touched by all
// cores below them, so constructive sharing and cache pollution between
// concurrent tasks arise naturally from the interleaving of accesses, which
// is exactly the effect the paper measures.
//
// Model notes (documented substitutions, see DESIGN.md):
//   - Fills are inclusive: a line served by level i is installed in every
//     level below i on the accessing core's path.
//   - There is no coherence protocol: the programming model forbids data
//     races and permits concurrent reads (§2 of the paper), so writes and
//     reads are equivalent for replacement state.
//   - DRAM bandwidth is modeled by per-link occupancy: each access that
//     misses the outermost cache reserves its page's DRAM link for
//     LineService cycles; the queueing delay this induces is the paper's
//     "bandwidth gap" made explicit.
package cachesim

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/mem"
)

// defaultAssoc is the associativity used when a cache has at least that
// many lines (8-way, matching the L1/L2/L3 organization of the Xeon 7560
// closely enough for the experiments).
const defaultAssoc = 1 << wayShift

// Every set occupies defaultAssoc slots of its cache's tag and dirty
// arrays, so a way index splits into set (way>>wayShift) and way within
// the set (way&wayMask) without a multiply. Only a cache of fewer than
// defaultAssoc lines — a single set — leaves slots unused.
const (
	wayShift = 3
	wayMask  = 1<<wayShift - 1
)

// Stats holds access counters for one cache.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
}

// Accesses returns the total number of accesses observed.
func (s Stats) Accesses() int64 { return s.Hits + s.Misses }

// Cache is one set-associative LRU cache.
type Cache struct {
	// Level is the machine level (1 = outermost cache, e.g. L3).
	Level int
	// ID is the index of this cache within its level.
	ID int

	sets       int
	assoc      int
	blockShift uint
	// setMask is sets-1 when sets is a power of two (setPow2), letting the
	// set index be a mask instead of a modulo on the access fast path.
	setMask uint64
	setPow2 bool
	// tags holds line+1 per way (0 = invalid), indexed
	// set<<wayShift | way.
	tags []uint64
	// recency holds one exact-LRU word per set: byte k is the way (within
	// the set) of recency rank k, byte 0 the most recently used. Invalid
	// ways always occupy the least-recent ranks, so the fill victim is the
	// byte at lruShift; bytes at ranks >= assoc hold 0xff and never match
	// a way.
	recency []uint64
	// fresh is the recency word of an empty set: ways in descending order,
	// so cold fills take ways 0, 1, 2, ... in turn.
	fresh    uint64
	rankMask uint64 // the bytes of ranks 0..assoc-1
	lruShift uint   // 8*(assoc-1)
	// dirty marks written lines (write-back accounting at the outermost
	// level).
	dirty []bool

	// Stats accumulates hit/miss counters; read via the Hierarchy helpers
	// or directly in tests.
	Stats Stats
}

func log2u(x int64) uint {
	var s uint
	for x > 1 {
		x >>= 1
		s++
	}
	return s
}

// cacheGeom returns the set/associativity geometry for a size/block pair.
// The associativity never exceeds defaultAssoc, which the one-byte-per-rank
// recency word relies on.
func cacheGeom(size, block int64) (sets, assoc int) {
	lines := int(size / block)
	assoc = defaultAssoc
	if lines < assoc {
		assoc = lines
	}
	sets = lines / assoc
	if sets < 1 {
		sets = 1
	}
	return sets, assoc
}

// init fills in a zero Cache. The tags/recency/dirty slices are carved out
// of shared backing arrays by the Hierarchy constructor (one allocation
// per array for the whole tree instead of three per cache); standalone
// construction via newCache allocates them directly.
func (c *Cache) init(level, id int, size, block int64, tags, recency []uint64, dirty []bool) {
	sets, assoc := cacheGeom(size, block)
	fresh := ^uint64(0)
	for k := 0; k < assoc; k++ {
		fresh = fresh&^(0xff<<(8*k)) | uint64(assoc-1-k)<<(8*k)
	}
	*c = Cache{
		Level:      level,
		ID:         id,
		sets:       sets,
		assoc:      assoc,
		blockShift: log2u(block),
		setMask:    uint64(sets - 1),
		setPow2:    sets&(sets-1) == 0,
		tags:       tags,
		recency:    recency,
		fresh:      fresh,
		rankMask:   1<<(8*assoc) - 1,
		lruShift:   uint(8 * (assoc - 1)),
		dirty:      dirty,
	}
	for s := range recency {
		recency[s] = fresh
	}
}

func newCache(level, id int, size, block int64) *Cache {
	sets, _ := cacheGeom(size, block)
	c := new(Cache)
	c.init(level, id, size, block, make([]uint64, sets<<wayShift), make([]uint64, sets), make([]bool, sets<<wayShift))
	return c
}

// Lines returns the capacity of the cache in lines.
func (c *Cache) Lines() int { return c.sets * c.assoc }

func (c *Cache) line(a mem.Addr) uint64 { return uint64(a) >> c.blockShift }

// setOf returns the index of the set holding line ln.
func (c *Cache) setOf(ln uint64) int {
	if c.setPow2 {
		return int(ln & c.setMask)
	}
	return int(ln % uint64(c.sets))
}

// find is the probe of every access: it returns the way holding ln
// (victim -1), or way -1 plus the way a fill of this set would evict —
// the least-recently-used way, or an invalid one if the set has any. The
// set's two most recent ways, read from its recency word, are compared
// before the scan, so two streams interleaved in one set (an RRM strand's
// page-aligned a[i] and b[i]) hit on the first or second compare. A
// single-way set's rank-1 byte is 0xff; masked to way 7 it names a slot
// that is never filled, whose tag 0 matches no line. The victim stays
// valid as long as the set is not modified in between, which
// Hierarchy.Access guarantees (each cache appears once on a path and
// nothing touches a missed cache between its probe and its fill).
//
//schedlint:hotpath
func (c *Cache) find(ln uint64) (way, victim int) {
	tag := ln + 1
	s := c.setOf(ln)
	base := s << wayShift
	r := c.recency[s]
	if w := base | int(r&wayMask); c.tags[w] == tag {
		return w, -1
	}
	if w := base | int(r>>8&wayMask); c.tags[w] == tag {
		return w, -1
	}
	// The set-sized slice lets the compiler drop bounds checks.
	for i, t := range c.tags[base : base+c.assoc] {
		if t == tag {
			return base + i, -1
		}
	}
	return -1, base + int(r>>c.lruShift&0xff)
}

// findWay returns the way holding ln, or -1, without touching any state.
func (c *Cache) findWay(ln uint64) int {
	way, _ := c.find(ln)
	return way
}

// touch makes way (as find returns it) the most recently used of its set.
// Re-touching the MRU way — the common case — costs one load and one
// compare; any other way takes the out-of-line promote.
//
//schedlint:hotpath
func (c *Cache) touch(way int) {
	if c.recency[way>>wayShift]&0xff != uint64(way&wayMask) {
		c.promote(way)
	}
}

// bytesOnes has 0x01 in every byte, the SWAR broadcast/borrow constant.
const bytesOnes = 0x0101010101010101

// rankBit returns 1<<(8*rank) for the rank of way w in recency word r.
// The lowest byte of r equal to w is the lowest zero byte of r^w·ones,
// which the classic has-zero-byte expression flags exactly (borrows only
// ever create false flags above a true zero byte); z&-z isolates its flag.
func rankBit(r, w uint64) uint64 {
	x := r ^ w*bytesOnes
	z := (x - bytesOnes) &^ x & (bytesOnes << 7)
	return (z & -z) >> 7
}

// promote moves way to rank 0 of its set: ranks above its old one keep
// their bytes, the ranks below move up one byte over it. It is kept out
// of line so that touch stays small enough to inline into the access
// paths.
//
//schedlint:hotpath
//go:noinline
func (c *Cache) promote(way int) {
	r, w := &c.recency[way>>wayShift], uint64(way&wayMask)
	b := rankBit(*r, w)
	// At rank 7, b<<8 wraps to 0 and the mask keeps nothing, as it should.
	*r = *r&^(b<<8-1) | (*r&(b-1))<<8 | w
}

// demote moves way to the least-recent rank of its set, shifting the ways
// that were less recent up one rank: an invalidated way joins the invalid
// ways at the LRU end.
func (c *Cache) demote(way int) {
	s, w := way>>wayShift, uint64(way&wayMask)
	r := c.recency[s]
	b := rankBit(r, w)
	field := r & c.rankMask
	below := field & (b - 1)
	above := field >> 8 &^ (b - 1)
	c.recency[s] = r&^field | below | above | w<<c.lruShift
}

// fillAt installs the line containing a into the given victim way, which
// must be the one find returned for a missing probe of this line with the
// set unchanged since, and makes it the set's most recently used way.
//
//schedlint:hotpath
func (c *Cache) fillAt(a mem.Addr, write bool, victim int) (evicted mem.Addr, evictedDirty bool) {
	if c.tags[victim] != 0 {
		c.Stats.Evictions++
		if c.dirty[victim] {
			evicted = mem.Addr(c.tags[victim]-1) << c.blockShift
			evictedDirty = true
		}
	}
	c.tags[victim] = c.line(a) + 1
	c.dirty[victim] = write
	// The victim holds the LRU rank, so making it the MRU way rotates the
	// ranks by one byte.
	s := victim >> wayShift
	r := c.recency[s]
	c.recency[s] = r&^c.rankMask | r<<8&c.rankMask | uint64(victim&wayMask)
	return evicted, evictedDirty
}

// invalidate removes a's line if resident (exclusive hierarchies move
// lines rather than copy them), returning whether it was dirty.
func (c *Cache) invalidate(a mem.Addr) (wasDirty bool) {
	ln := c.line(a)
	way := c.findWay(ln)
	if way < 0 {
		return false
	}
	wasDirty = c.dirty[way]
	c.tags[way] = 0
	c.dirty[way] = false
	c.demote(way)
	return wasDirty
}

// insert installs a line with a given dirty state, returning any evicted
// line (victim-cache insertion for exclusive hierarchies). A line already
// resident — a copy another core's private cache evicted into this shared
// one earlier — is merged rather than stored twice: it becomes the most
// recently used, keeps any dirt and evicts nothing.
func (c *Cache) insert(a mem.Addr, dirty bool) (evicted mem.Addr, evictedValid, evictedDirty bool) {
	ln := c.line(a)
	way, victim := c.find(ln)
	if way >= 0 {
		c.dirty[way] = c.dirty[way] || dirty
		c.touch(way)
		return 0, false, false
	}
	if c.tags[victim] != 0 {
		evicted = mem.Addr(c.tags[victim]-1) << c.blockShift
		evictedValid = true
		evictedDirty = c.dirty[victim]
	}
	c.fillAt(a, dirty, victim)
	return evicted, evictedValid, evictedDirty
}

// Reset invalidates all lines and zeroes the counters.
func (c *Cache) Reset() {
	c.Invalidate()
	c.Stats = Stats{}
}

// Invalidate drops every resident line — tags, recency order and dirty
// bits — while preserving the hit/miss counters. It models an
// interference event (fault.Flush) wiping cache contents mid-run: the
// lost dirty lines are not written back, matching a co-tenant evicting
// them through its own traffic whose bandwidth we do not account.
func (c *Cache) Invalidate() {
	for i := range c.tags {
		c.tags[i] = 0
		c.dirty[i] = false
	}
	for s := range c.recency {
		c.recency[s] = c.fresh
	}
}

// Hierarchy is the full tree of caches plus the DRAM links of one machine.
type Hierarchy struct {
	Desc  *machine.Desc
	space *mem.Space
	// levels[i] holds the caches of machine level i; levels[0] is nil
	// (memory has no cache object).
	levels [][]*Cache

	// paths[leaf][lvl] is the cache at lvl on leaf's root-to-leaf path
	// (index 0 nil), precomputed so Access performs no tree-index
	// arithmetic (Desc.NodeOf divisions) per probe.
	paths [][]*Cache
	// victims[lvl] is per-Access scratch carrying the victim way found by
	// the probe to the fill pass. Safe to share across workers:
	// the engine serializes all Access calls.
	victims []int
	// hitCost[lvl] caches Desc.Levels[lvl].HitCost.
	hitCost []int64
	nl      int   // Desc.NumLevels()
	numa    bool  // remote-link latency applies (links map 1:1 to sockets)
	socket  []int // leaf -> level-1 node, for the NUMA check

	linkFree []int64 // next free cycle per DRAM link
	// lineService is the current per-line DRAM service slot in cycles.
	// Nominally Desc.LineService; fault injection widens it to model
	// reduced bandwidth (see SetLineService).
	lineService int64

	// DRAM accounting.
	DRAMAccesses int64
	StallCycles  int64 // total cycles cores waited on busy links
	Writebacks   int64 // dirty lines written back to memory
	RemoteHits   int64 // DRAM accesses served by a remote socket's link
}

// New builds the cache tree for desc, with pages placed by space.
func New(desc *machine.Desc, space *mem.Space) *Hierarchy {
	if err := desc.Validate(); err != nil {
		panic(fmt.Sprintf("cachesim: %v", err))
	}
	if space.Links() != desc.Links {
		panic(fmt.Sprintf("cachesim: space has %d links, machine has %d", space.Links(), desc.Links))
	}
	h := &Hierarchy{
		Desc:        desc,
		space:       space,
		levels:      make([][]*Cache, desc.NumLevels()),
		linkFree:    make([]int64, desc.Links),
		lineService: desc.LineService,
	}
	// Count caches and ways first, then carve every cache struct and its
	// tag/recency/dirty arrays out of four shared backings: the whole tree
	// costs a constant number of allocations, not three per cache. Each
	// carve is staggered by a growing multiple of stagger entries: sibling
	// tag arrays are power-of-two sized (a 32KB/64B L1 is exactly 4KB of
	// tags), and packing them back to back makes the same probe set of
	// every sibling alias to the same host cache set — a measured ~9%
	// slowdown on random-access probes before the stagger.
	const stagger = 8 // u64 entries = one 64B host line
	nl := desc.NumLevels()
	totalCaches, totalWays, totalSets := 0, 0, 0
	for lvl := 1; lvl < nl; lvl++ {
		sets, _ := cacheGeom(desc.Levels[lvl].Size, desc.Levels[lvl].BlockSize)
		totalCaches += desc.NodesAt(lvl)
		totalWays += desc.NodesAt(lvl) * sets << wayShift
		totalSets += desc.NodesAt(lvl) * sets
	}
	structs := make([]Cache, totalCaches)
	tags := make([]uint64, totalWays+stagger*totalCaches)
	recency := make([]uint64, totalSets+stagger*totalCaches)
	dirty := make([]bool, totalWays+stagger*totalCaches)
	ci, wi, si := 0, 0, 0
	for lvl := 1; lvl < nl; lvl++ {
		n := desc.NodesAt(lvl)
		h.levels[lvl] = make([]*Cache, n)
		for id := 0; id < n; id++ {
			c := &structs[ci]
			ci++
			sets, _ := cacheGeom(desc.Levels[lvl].Size, desc.Levels[lvl].BlockSize)
			ways := sets << wayShift
			c.init(lvl, id, desc.Levels[lvl].Size, desc.Levels[lvl].BlockSize,
				tags[wi:wi+ways:wi+ways], recency[si:si+sets:si+sets], dirty[wi:wi+ways:wi+ways])
			wi += ways + stagger
			si += sets + stagger
			h.levels[lvl][id] = c
		}
	}
	cores := desc.NumCores()
	h.nl = nl
	h.paths = make([][]*Cache, cores)
	h.socket = make([]int, cores)
	pathBacking := make([]*Cache, cores*nl)
	for leaf := 0; leaf < cores; leaf++ {
		path := pathBacking[leaf*nl : (leaf+1)*nl : (leaf+1)*nl]
		for lvl := 1; lvl < nl; lvl++ {
			path[lvl] = h.levels[lvl][desc.NodeOf(lvl, leaf)]
		}
		h.paths[leaf] = path
		h.socket[leaf] = desc.NodeOf(1, leaf)
	}
	h.victims = make([]int, nl)
	h.hitCost = make([]int64, nl)
	for lvl := 1; lvl < nl; lvl++ {
		h.hitCost[lvl] = desc.Levels[lvl].HitCost
	}
	h.numa = desc.RemoteLatency > 0 && desc.Links == desc.NodesAt(1)
	return h
}

// CacheAt returns the cache at the given level above the given leaf.
func (h *Hierarchy) CacheAt(level, leaf int) *Cache {
	return h.paths[leaf][level]
}

// Caches returns all caches at a level.
func (h *Hierarchy) Caches(level int) []*Cache { return h.levels[level] }

// Access simulates a memory access from leaf at simulated time now and
// returns the number of cycles the access costs the core. servedLevel is
// the machine level that supplied the line (0 = DRAM).
//
// The walk probes innermost (highest index) to outermost (level 1), one
// find per level that yields either the hit way or the fill victim, so a
// miss hands each level's victim to its fill without a second scan. The
// common case, an innermost hit, costs one find and fills nothing: the
// same transition RunScript's in-loop probe applies.
//
//schedlint:hotpath
func (h *Hierarchy) Access(leaf int, now int64, a mem.Addr, write bool) (cost int64, servedLevel int) {
	nl := h.nl
	path := h.paths[leaf]
	served := 0
	for lvl := nl - 1; lvl >= 1; lvl-- {
		c := path[lvl]
		way, victim := c.find(c.line(a))
		if way >= 0 {
			c.touch(way)
			if write {
				c.dirty[way] = true
			}
			c.Stats.Hits++
			served = lvl
			break
		}
		c.Stats.Misses++
		h.victims[lvl] = victim
	}
	if served == 0 {
		// DRAM access: queue on the page's link.
		link := h.space.LinkOf(a)
		start := now
		if h.linkFree[link] > start {
			start = h.linkFree[link]
		}
		wait := start - now
		h.linkFree[link] = start + h.lineService
		h.DRAMAccesses++
		h.StallCycles += wait
		cost = wait + h.lineService + h.Desc.MemLatency
		// NUMA: crossing to another socket's DRAM link pays the QPI +
		// remote-link latency (§5.2), when links map 1:1 to sockets.
		if h.numa && link != h.socket[leaf] {
			cost += h.Desc.RemoteLatency
			h.RemoteHits++
		}
	} else {
		cost = h.hitCost[served]
		if write && served > 1 {
			h.markDirtyOuter(leaf, a)
		}
	}
	if h.Desc.NonInclusive {
		h.exclusiveFill(leaf, now, a, write, served)
	} else {
		// Inclusive fill of every level that missed, into the victim way
		// the probe scan already found.
		for lvl := served + 1; lvl < nl; lvl++ {
			c := path[lvl]
			ev, dirtyEv := c.fillAt(a, write, h.victims[lvl])
			if lvl == 1 && dirtyEv {
				h.writeback(now, ev)
			}
		}
	}
	return cost, served
}

// markDirtyOuter sets the dirty bit of a's line in leaf's outermost cache
// if resident, without touching LRU state or counters.
//
//schedlint:hotpath
func (h *Hierarchy) markDirtyOuter(leaf int, a mem.Addr) {
	c := h.paths[leaf][1]
	if way := c.findWay(c.line(a)); way >= 0 {
		c.dirty[way] = true
	}
}

// writeback reserves the evicted dirty line's DRAM link for one transfer
// slot; write buffers hide the latency from the core, but the bandwidth is
// consumed.
func (h *Hierarchy) writeback(now int64, ev mem.Addr) {
	wbLink := h.space.LinkOf(ev)
	wbStart := now
	if h.linkFree[wbLink] > wbStart {
		wbStart = h.linkFree[wbLink]
	}
	h.linkFree[wbLink] = wbStart + h.lineService
	h.Writebacks++
}

// exclusiveFill implements the victim-cache (non-inclusive) policy: the
// accessed line moves into the innermost cache only; if it was served by
// an outer cache it is removed there; victims cascade outward level by
// level, and a dirty victim of the outermost cache is written back.
func (h *Hierarchy) exclusiveFill(leaf int, now int64, a mem.Addr, write bool, served int) {
	nl := h.Desc.NumLevels()
	if served == nl-1 {
		return // already innermost; probe updated LRU and dirty state
	}
	dirty := write
	if served > 0 {
		if h.CacheAt(served, leaf).invalidate(a) {
			dirty = true
		}
	}
	lineAddr, lineDirty := a, dirty
	for lvl := nl - 1; lvl >= 1; lvl-- {
		ev, evValid, evDirty := h.CacheAt(lvl, leaf).insert(lineAddr, lineDirty)
		if !evValid {
			return
		}
		if lvl == 1 {
			if evDirty {
				h.writeback(now, ev)
			}
			return
		}
		lineAddr, lineDirty = ev, evDirty
	}
}

// SetLineService overrides the per-line DRAM service slot, the
// bandwidth-jitter hook of fault injection: serving a line at pct% of
// nominal bandwidth takes LineService*100/pct cycles. Passing
// Desc.LineService restores nominal bandwidth.
func (h *Hierarchy) SetLineService(cycles int64) {
	if cycles < 0 {
		panic("cachesim: negative line-service time")
	}
	h.lineService = cycles
}

// LineService returns the current per-line DRAM service slot in cycles.
func (h *Hierarchy) LineService() int64 { return h.lineService }

// MissesAt returns the total misses across all caches of a level. For the
// outermost level this equals the DRAM access count — the paper's L3 miss
// metric on the Xeon.
func (h *Hierarchy) MissesAt(level int) int64 {
	var total int64
	for _, c := range h.levels[level] {
		total += c.Stats.Misses
	}
	return total
}

// HitsAt returns the total hits across all caches of a level.
func (h *Hierarchy) HitsAt(level int) int64 {
	var total int64
	for _, c := range h.levels[level] {
		total += c.Stats.Hits
	}
	return total
}

// Reset clears all caches, link occupancy and DRAM counters.
func (h *Hierarchy) Reset() {
	for _, lvl := range h.levels {
		for _, c := range lvl {
			c.Reset()
		}
	}
	for i := range h.linkFree {
		h.linkFree[i] = 0
	}
	h.DRAMAccesses = 0
	h.StallCycles = 0
	h.Writebacks = 0
	h.RemoteHits = 0
	h.lineService = h.Desc.LineService
}
