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
// first — so the optimized Hierarchy (line memos, recency words, the
// RunScript interpreter) is checked against something that shares none of
// its machinery.

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
// memo misses (the engine's replay path), requiring identical costs,
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
