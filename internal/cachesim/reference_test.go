package cachesim

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/opcode"
	"repro/internal/xrand"
)

// The reference model below restates the cache policy as naively as
// possible — every set a slice of lines in recency order, most recent
// first — so the optimized Hierarchy (recency words, most-recent-first
// probes, the RunScript interpreter) is checked against something that
// shares none of its machinery.

type refLine struct {
	line  uint64
	dirty bool
}

type refCache struct {
	sets  [][]refLine
	assoc int
	shift uint
	stats Stats
}

func newRefCache(lv machine.Level) *refCache {
	lines := int(lv.Size / lv.BlockSize)
	assoc := min(8, lines)
	return &refCache{sets: make([][]refLine, max(1, lines/assoc)), assoc: assoc, shift: log2u(lv.BlockSize)}
}

// lookup returns a's set and the recency rank of its line there, or -1.
func (c *refCache) lookup(a mem.Addr) (set, rank int) {
	ln := uint64(a) >> c.shift
	set = int(ln % uint64(len(c.sets)))
	for i, l := range c.sets[set] {
		if l.line == ln {
			return set, i
		}
	}
	return set, -1
}

// toFront moves the line at rank i to rank 0 and returns it.
func (c *refCache) toFront(set, i int) *refLine {
	s := c.sets[set]
	l := s[i]
	copy(s[1:i+1], s[:i])
	s[0] = l
	return &s[0]
}

// add installs a's line as most recent, returning the least recent line
// if the set overflowed.
func (c *refCache) add(a mem.Addr, dirty bool) (ev refLine, evicted bool) {
	set, _ := c.lookup(a)
	s := append([]refLine{{line: uint64(a) >> c.shift, dirty: dirty}}, c.sets[set]...)
	if len(s) > c.assoc {
		ev, evicted = s[len(s)-1], true
		s = s[:len(s)-1]
		c.stats.Evictions++
	}
	c.sets[set] = s
	return ev, evicted
}

type refHier struct {
	d      *machine.Desc
	sp     *mem.Space
	caches [][]*refCache // [level][node]
	link   []int64
	// DRAMAccesses, StallCycles, Writebacks and RemoteHits mirror the
	// Hierarchy fields of the same names.
	DRAMAccesses, StallCycles, Writebacks, RemoteHits int64
}

func newRefHier(d *machine.Desc, sp *mem.Space) *refHier {
	r := &refHier{d: d, sp: sp, caches: make([][]*refCache, d.NumLevels()), link: make([]int64, d.Links)}
	for lvl := 1; lvl < d.NumLevels(); lvl++ {
		for n := 0; n < d.NodesAt(lvl); n++ {
			r.caches[lvl] = append(r.caches[lvl], newRefCache(d.Levels[lvl]))
		}
	}
	return r
}

func (r *refHier) at(lvl, leaf int) *refCache { return r.caches[lvl][r.d.NodeOf(lvl, leaf)] }

// reserve books one line transfer on a's DRAM link and returns the wait.
func (r *refHier) reserve(now int64, a mem.Addr) int64 {
	l := r.sp.LinkOf(a)
	start := max(now, r.link[l])
	r.link[l] = start + r.d.LineService
	return start - now
}

func (r *refHier) access(leaf int, now int64, a mem.Addr, write bool) (cost int64, served int) {
	nl := r.d.NumLevels()
	for lvl := nl - 1; lvl >= 1; lvl-- {
		c := r.at(lvl, leaf)
		if set, i := c.lookup(a); i >= 0 {
			l := c.toFront(set, i)
			l.dirty = l.dirty || write
			c.stats.Hits++
			served = lvl
			break
		}
		c.stats.Misses++
	}
	if served == 0 {
		wait := r.reserve(now, a)
		r.DRAMAccesses++
		r.StallCycles += wait
		cost = wait + r.d.LineService + r.d.MemLatency
		if link := r.sp.LinkOf(a); r.d.RemoteLatency > 0 && r.d.Links == r.d.NodesAt(1) && link != r.d.NodeOf(1, leaf) {
			cost += r.d.RemoteLatency
			r.RemoteHits++
		}
	} else {
		cost = r.d.Levels[served].HitCost
		if write && served > 1 {
			// The outermost copy, if any, is dirtied without reordering.
			if set, i := r.at(1, leaf).lookup(a); i >= 0 {
				r.at(1, leaf).sets[set][i].dirty = true
			}
		}
	}
	if !r.d.NonInclusive {
		for lvl := served + 1; lvl < nl; lvl++ {
			ev, evicted := r.at(lvl, leaf).add(a, write)
			if lvl == 1 && evicted && ev.dirty {
				r.reserve(now, mem.Addr(ev.line<<r.at(1, leaf).shift))
				r.Writebacks++
			}
		}
		return cost, served
	}
	// Exclusive: the line moves to the innermost level; victims cascade
	// outward, a line already resident one level out merges with it.
	if served == nl-1 {
		return cost, served
	}
	dirty := write
	if served > 0 {
		c := r.at(served, leaf)
		set, i := c.lookup(a)
		dirty = dirty || c.sets[set][i].dirty
		c.sets[set] = append(c.sets[set][:i], c.sets[set][i+1:]...)
	}
	for lvl := nl - 1; lvl >= 1; lvl-- {
		c := r.at(lvl, leaf)
		if set, i := c.lookup(a); i >= 0 {
			l := c.toFront(set, i)
			l.dirty = l.dirty || dirty
			return cost, served
		}
		ev, evicted := c.add(a, dirty)
		if !evicted {
			return cost, served
		}
		a, dirty = mem.Addr(ev.line<<c.shift), ev.dirty
		if lvl == 1 && dirty {
			r.reserve(now, a)
			r.Writebacks++
		}
	}
	return cost, served
}

// shapeReader draws bounded choices from a fuzzed machine-shape word.
type shapeReader uint64

func (s *shapeReader) take(n uint64) int {
	v := uint64(*s) % n
	*s = shapeReader(uint64(*s) / n)
	return int(v)
}

// fuzzMachine decodes a small random machine: one to three cache levels
// of 1..64 lines with 32..128-byte blocks (including set counts that are
// not powers of two), one or two children per node, inclusive or
// exclusive, with or without NUMA latency and DRAM queueing.
func fuzzMachine(shape uint64) *machine.Desc {
	s := shapeReader(shape)
	d := &machine.Desc{Name: "fuzz", MemLatency: 100, ClockGHz: 1}
	d.Levels = []machine.Level{{Name: "RAM", BlockSize: 64, Fanout: 1 + s.take(2)}}
	prev := int64(1) << 20
	for lvl, n := 1, 1+s.take(3); lvl <= n; lvl++ {
		block := int64(32) << s.take(3)
		size := block * int64([]int{1, 2, 3, 5, 8, 12, 16, 24, 40, 64}[s.take(10)])
		if size > prev {
			block, size = 32, prev
		}
		prev = size
		d.Levels = append(d.Levels, machine.Level{Name: "L", Size: size, BlockSize: block, HitCost: int64(1 + s.take(40)), Fanout: 1 + s.take(2)})
	}
	d.Links = 1 + s.take(2)
	d.LineService = int64(10 * s.take(3))
	d.RemoteLatency = int64(30 * s.take(2))
	d.NonInclusive = s.take(2) == 1
	return d
}

// FuzzCacheVsReference drives one op stream — accesses, single-cache
// invalidations and whole-hierarchy resets — through the reference
// model, through Hierarchy.Access, and through RunScript with Access on
// innermost misses (the engine's replay path), requiring identical costs,
// served levels and counters after every op.
func FuzzCacheVsReference(f *testing.F) {
	rng := xrand.New(5)
	for i := 0; i < 24; i++ {
		ops := make([]byte, 3*2000)
		for j := range ops {
			ops[j] = byte(rng.Uint64())
		}
		f.Add(rng.Uint64(), ops)
	}
	f.Fuzz(func(t *testing.T, shape uint64, ops []byte) {
		d := fuzzMachine(shape)
		if err := d.Validate(); err != nil {
			t.Fatalf("fuzzMachine built an invalid machine: %v", err)
		}
		sp := mem.NewSpace(d.Links, d.Links)
		ref, ha, hs := newRefHier(d, sp), New(d, sp), New(d, sp)
		inner := d.NumLevels() - 1
		var now, prev int64
		var script []byte
		for k := 0; k+3 <= len(ops); k += 3 {
			op, b1, b2 := ops[k], ops[k+1], ops[k+2]
			now += int64(b2 & 15)
			switch op % 32 {
			case 0: // flush one cache mid-stream
				lvl := 1 + int(b1)%inner
				node := int(b2) % d.NodesAt(lvl)
				clear(ref.caches[lvl][node].sets)
				ha.Caches(lvl)[node].Invalidate()
				hs.Caches(lvl)[node].Invalidate()
				continue
			case 1: // now and then, reset the whole hierarchy
				if b1 < 32 {
					ref = newRefHier(d, sp)
					ha.Reset()
					hs.Reset()
				}
				continue
			}
			leaf := int(op>>5) % d.NumCores()
			write := op&16 != 0
			// 256 lines of 128 bytes on each of four pages (so every link
			// sees traffic), at one of four offsets within the line.
			a := int64(b2>>6)*mem.PageSize | int64(b1)<<7 | int64(b2>>4&3)<<3
			costR, servedR := ref.access(leaf, now, mem.Addr(a), write)
			costA, servedA := ha.Access(leaf, now, mem.Addr(a), write)

			tag := uint64(opcode.Read)
			if write {
				tag = opcode.Write
			}
			script = opcode.AppendUvarint(script[:0], opcode.Zigzag(a-prev)<<opcode.TagBits|tag)
			_, _, costS, miss := hs.RunScript(leaf, script, 0, int64(len(script)), prev, 1<<62)
			servedS := inner
			if miss {
				costS, servedS = hs.Access(leaf, now, mem.Addr(a), write)
			}
			prev = a
			if costA != costR || servedA != servedR || costS != costR || servedS != servedR {
				t.Fatalf("op %d (leaf %d addr %#x write %v): cost/level reference %d/%d, Access %d/%d, RunScript %d/%d",
					k/3, leaf, a, write, costR, servedR, costA, servedA, costS, servedS)
			}
			for lvl := 1; lvl <= inner; lvl++ {
				for n, rc := range ref.caches[lvl] {
					if sa, ss := ha.Caches(lvl)[n].Stats, hs.Caches(lvl)[n].Stats; sa != rc.stats || ss != rc.stats {
						t.Fatalf("op %d: L%d[%d] stats reference %+v, Access %+v, RunScript %+v", k/3, lvl, n, rc.stats, sa, ss)
					}
				}
			}
			for _, h := range []*Hierarchy{ha, hs} {
				if h.DRAMAccesses != ref.DRAMAccesses || h.Writebacks != ref.Writebacks ||
					h.StallCycles != ref.StallCycles || h.RemoteHits != ref.RemoteHits {
					t.Fatalf("op %d: DRAM/writebacks/stall/remote %d/%d/%d/%d, reference %d/%d/%d/%d", k/3,
						h.DRAMAccesses, h.Writebacks, h.StallCycles, h.RemoteHits,
						ref.DRAMAccesses, ref.Writebacks, ref.StallCycles, ref.RemoteHits)
				}
			}
		}
	})
}

// refOpAt is one decoded op of a fuzzed script, a work charge or an
// access, with the byte offset where the op ends.
type refOpAt struct {
	access bool
	work   int64
	addr   int64
	write  bool
	end    int64
}

// fuzzScript is one strand's script: its leaf, its op bytes, the same ops
// decoded, and an optional single-cache flush applied after it.
type fuzzScript struct {
	leaf    int
	ops     []byte
	ref     []refOpAt
	flush   [2]byte // level and node operands of the flush
	flushes bool
}

// fuzzScripts splits a fuzzed byte stream into scripts, three bytes per
// op. Kind op%32: 0 ends the script with a flush of one cache, 1 ends it
// and switches to leaf b1, 2..5 is a work charge of b1 cycles, anything
// else an access (write if op&16) to the same four-page address space as
// FuzzCacheVsReference.
func fuzzScripts(d *machine.Desc, in []byte) []fuzzScript {
	var out []fuzzScript
	cur := fuzzScript{}
	prev := int64(0)
	cut := func() {
		out = append(out, cur)
		cur = fuzzScript{leaf: cur.leaf}
		prev = 0
	}
	for k := 0; k+3 <= len(in); k += 3 {
		op, b1, b2 := in[k], in[k+1], in[k+2]
		switch kind := op % 32; {
		case kind == 0:
			cur.flush, cur.flushes = [2]byte{b1, b2}, true
			cut()
		case kind == 1:
			cut()
			cur.leaf = int(b1) % d.NumCores()
		case kind <= 5:
			cur.ops = opcode.AppendUvarint(cur.ops, uint64(b1)<<opcode.TagBits|opcode.Work)
			cur.ref = append(cur.ref, refOpAt{work: int64(b1), end: int64(len(cur.ops))})
		default:
			a := int64(b2>>6)*mem.PageSize | int64(b1)<<7 | int64(b2>>4&3)<<3
			tag := uint64(opcode.Read)
			if op&16 != 0 {
				tag = opcode.Write
			}
			cur.ops = opcode.AppendUvarint(cur.ops, opcode.Zigzag(a-prev)<<opcode.TagBits|tag)
			cur.ref = append(cur.ref, refOpAt{access: true, addr: a, write: op&16 != 0, end: int64(len(cur.ops))})
			prev = a
		}
	}
	return append(out, cur)
}

// FuzzScriptVsReference runs multi-op scripts through RunScript with a
// finite chunk budget, in the shape of the engine's inline interpreter
// (sim.runInline): each call runs until a budget stop or an innermost
// miss, a miss takes Access, and an exhausted budget is re-armed. At every
// return it replays the ops the call consumed through the reference model
// and requires the same costs, served levels, cache counters and DRAM
// counters. Work charges of 0 cycles and budgets as small as one cycle
// put the stops in the middle of runs of hits.
func FuzzScriptVsReference(f *testing.F) {
	rng := xrand.New(7)
	for i := 0; i < 12; i++ {
		ops := make([]byte, 3*2000)
		for j := range ops {
			ops[j] = byte(rng.Uint64())
		}
		f.Add(rng.Uint64(), uint8(rng.Uint64()), ops)
	}
	// Interleaved page-aligned streams, as RRM's strands issue them: read
	// line i of page 0 and write line i of page 1, pass after pass over a
	// few lines, so both streams become resident in the innermost cache
	// and share its sets.
	for _, lines := range []int{2, 4, 8, 16} {
		var ops []byte
		for pass := 0; pass < 4; pass++ {
			for i := 0; i < lines; i++ {
				ops = append(ops, 6, byte(i), 0, 6|16, byte(i), 1<<6, 2, 1, 0)
			}
		}
		for _, budget := range []uint8{0, 3, 40, 255} {
			f.Add(rng.Uint64(), budget, ops)
		}
	}
	f.Fuzz(func(t *testing.T, shape uint64, budget uint8, in []byte) {
		d := fuzzMachine(shape)
		if err := d.Validate(); err != nil {
			t.Fatalf("fuzzMachine built an invalid machine: %v", err)
		}
		sp := mem.NewSpace(d.Links, d.Links)
		ref, h := newRefHier(d, sp), New(d, sp)
		inner := d.NumLevels() - 1
		chunk := 1 + int64(budget)
		check := func(where string) {
			t.Helper()
			for lvl := 1; lvl <= inner; lvl++ {
				for n, rc := range ref.caches[lvl] {
					if s := h.Caches(lvl)[n].Stats; s != rc.stats {
						t.Fatalf("%s: L%d[%d] stats %+v, reference %+v", where, lvl, n, s, rc.stats)
					}
				}
			}
			if h.DRAMAccesses != ref.DRAMAccesses || h.Writebacks != ref.Writebacks ||
				h.StallCycles != ref.StallCycles || h.RemoteHits != ref.RemoteHits {
				t.Fatalf("%s: DRAM/writebacks/stall/remote %d/%d/%d/%d, reference %d/%d/%d/%d", where,
					h.DRAMAccesses, h.Writebacks, h.StallCycles, h.RemoteHits,
					ref.DRAMAccesses, ref.Writebacks, ref.StallCycles, ref.RemoteHits)
			}
		}
		var clock int64
		for si, s := range fuzzScripts(d, in) {
			ops, end := s.ops, int64(len(s.ops))
			ip, prev, next := int64(0), int64(0), 0
			left := chunk
			for ip < end {
				nip, nprev, spent, miss := h.RunScript(s.leaf, ops, ip, end, prev, left)
				// The reference consumes the same ops: each work charge
				// spends its cycles, each access must be an innermost hit.
				var want, last int64
				for ; next < len(s.ref) && s.ref[next].end <= nip; next++ {
					op := s.ref[next]
					last = op.work
					if op.access {
						c, served := ref.access(s.leaf, clock+want, mem.Addr(op.addr), op.write)
						if served != inner {
							t.Fatalf("script %d op %d: RunScript consumed an access the reference served at level %d", si, next, served)
						}
						last = c
					}
					want += last
				}
				if spent != want {
					t.Fatalf("script %d: RunScript spent %d up to byte %d, reference %d", si, spent, nip, want)
				}
				ip, prev, clock, left = nip, nprev, clock+spent, left-spent
				check("after RunScript")
				if left <= 0 {
					if left+last <= 0 {
						t.Fatalf("script %d: budget ran out before the last op of the call", si)
					}
					left = chunk
					continue
				}
				if !miss {
					if ip != end {
						t.Fatalf("script %d: RunScript stopped at byte %d of %d with budget left and no miss", si, ip, end)
					}
					continue
				}
				op := s.ref[next]
				next++
				costR, servedR := ref.access(s.leaf, clock, mem.Addr(op.addr), op.write)
				if servedR == inner {
					t.Fatalf("script %d op %d: RunScript handed back an innermost hit", si, next-1)
				}
				costA, servedA := h.Access(s.leaf, clock, mem.Addr(op.addr), op.write)
				if costA != costR || servedA != servedR {
					t.Fatalf("script %d op %d: Access cost/level %d/%d, reference %d/%d", si, next-1, costA, servedA, costR, servedR)
				}
				ip, prev, clock, left = op.end, op.addr, clock+costA, left-costA
				check("after Access")
				if left <= 0 {
					left = chunk
				}
			}
			if s.flushes {
				lvl := 1 + int(s.flush[0])%inner
				node := int(s.flush[1]) % d.NodesAt(lvl)
				clear(ref.caches[lvl][node].sets)
				h.Caches(lvl)[node].Invalidate()
			}
		}
	})
}
