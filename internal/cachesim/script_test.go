package cachesim

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/opcode"
	"repro/internal/xrand"
)

// buildScript encodes a random mix of work charges and delta-encoded
// accesses the way dagtrace's recorder does, and returns the raw ops plus
// the decoded (addr, write, work) sequence for the reference walk.
type refOp struct {
	work  int64 // > 0: work charge; else access
	addr  mem.Addr
	write bool
}

func buildScript(rng *xrand.Source, n int, span int64) ([]byte, []refOp) {
	var ops []byte
	ref := make([]refOp, 0, n)
	prev := int64(0)
	for i := 0; i < n; i++ {
		switch rng.Intn(4) {
		case 0:
			w := int64(rng.Intn(30) + 1)
			ops = opcode.AppendUvarint(ops, uint64(w)<<opcode.TagBits|opcode.Work)
			ref = append(ref, refOp{work: w})
		default:
			// Mix short strides (same-line runs) with far jumps.
			var a int64
			if rng.Intn(3) == 0 {
				a = int64(rng.Intn(int(span)))
			} else {
				a = prev + int64(rng.Intn(16))
				if a >= span {
					a = 0
				}
			}
			write := rng.Intn(3) == 0
			tag := uint64(opcode.Read)
			if write {
				tag = opcode.Write
			}
			ops = opcode.AppendUvarint(ops, opcode.Zigzag(a-prev)<<opcode.TagBits|tag)
			prev = a
			ref = append(ref, refOp{work: 0, addr: mem.Addr(a), write: write})
		}
	}
	return ops, ref
}

// TestRunScriptMatchesAccess drives the same op stream through (a) the
// plain per-op walk — Access for accesses, nothing for work — and (b) the
// RunScript fast path with Access fallback, on two identical hierarchies,
// and requires identical costs, counters and LRU state (tags, dirty bits
// and per-set recency words), across several chunk budgets including ones
// that split runs mid-stream.
func TestRunScriptMatchesAccess(t *testing.T) {
	for _, budget := range []int64{1, 7, 64, 1 << 20} {
		for seed := uint64(1); seed <= 5; seed++ {
			m := machine.TwoSocket(4, 1<<14, 1<<10)
			spA := mem.NewSpace(m.Links, m.Links)
			spB := mem.NewSpace(m.Links, m.Links)
			ha := New(m, spA)
			hb := New(m, spB)
			rng := xrand.New(seed)
			ops, ref := buildScript(rng, 4000, 1<<13)
			leaf := int(seed) % m.NumCores()

			// Reference: every access through the general walk.
			var costA int64
			now := int64(0)
			for _, op := range ref {
				if op.work > 0 {
					now += op.work
					continue
				}
				c, _ := ha.Access(leaf, now, op.addr, op.write)
				costA += c
				now += c
			}

			// Fast path: RunScript runs, Access on innermost misses, re-entering
			// with a fresh budget at each exhaustion like the engine does.
			var costB int64
			ip, end, prev := int64(0), int64(len(ops)), int64(0)
			now = 0
			left := budget
			for ip < end {
				nip, nprev, spent, miss := hb.RunScript(leaf, ops, ip, end, prev, left)
				ip, prev = nip, nprev
				costB += spent
				now += spent
				left -= spent
				if left <= 0 {
					left = budget
					continue
				}
				if !miss {
					continue
				}
				var v uint64
				var sh uint
				for {
					b := ops[ip]
					ip++
					v |= uint64(b&0x7f) << sh
					if b < 0x80 {
						break
					}
					sh += 7
				}
				u := v >> opcode.TagBits
				prev += int64(u>>1) ^ -int64(u&1)
				c, _ := hb.Access(leaf, now, mem.Addr(prev), v&opcode.TagMask == opcode.Write)
				costB += c
				now += c
				left -= c
				if left <= 0 {
					left = budget
				}
			}

			// Work charges contribute no Access cost in the reference, but
			// RunScript spends them; subtract for comparison.
			var workTotal int64
			for _, op := range ref {
				workTotal += op.work
			}
			if costB-workTotal != costA {
				t.Fatalf("budget %d seed %d: cost %d (fast, minus work) != %d (reference)", budget, seed, costB-workTotal, costA)
			}
			for lvl := 1; lvl < m.NumLevels(); lvl++ {
				for id, ca := range ha.Caches(lvl) {
					cb := hb.Caches(lvl)[id]
					if ca.Stats != cb.Stats {
						t.Fatalf("budget %d seed %d: L%d[%d] stats %+v != %+v", budget, seed, lvl, id, cb.Stats, ca.Stats)
					}
					for i := range ca.tags {
						if ca.tags[i] != cb.tags[i] || ca.dirty[i] != cb.dirty[i] {
							t.Fatalf("budget %d seed %d: L%d[%d] way %d state diverged", budget, seed, lvl, id, i)
						}
					}
					for s := range ca.recency {
						if ca.recency[s] != cb.recency[s] {
							t.Fatalf("budget %d seed %d: L%d[%d] set %d recency %#x != %#x", budget, seed, lvl, id, s, cb.recency[s], ca.recency[s])
						}
					}
				}
			}
		}
	}
}

// rrmScript encodes one pass of RRM's map strand, b[i] = a[i] + 1 for i
// in [0, n): a read of a[i], then a write of b[i], delta-encoded from
// address 0 the way dagtrace records it.
func rrmScript(a, b mem.Addr, n int) []byte {
	var ops []byte
	prev := int64(0)
	for i := 0; i < n; i++ {
		for _, op := range []struct {
			addr int64
			tag  uint64
		}{{int64(a) + 8*int64(i), opcode.Read}, {int64(b) + 8*int64(i), opcode.Write}} {
			ops = opcode.AppendUvarint(ops, opcode.Zigzag(op.addr-prev)<<opcode.TagBits|op.tag)
			prev = op.addr
		}
	}
	return ops
}

// TestRunScriptTwoPageAlignedStreams pins RRM's access pattern to the
// fast path: a[i] and b[i] live on page-aligned arrays, so they share
// their low line bits and, in every cache, their set. Once a pass's lines
// are resident in L1, a second pass must run inside RunScript from the
// first op to the last — every access an innermost hit, none handed back
// as a miss. It runs the 64-hyperthread Xeon at the page size and cache
// scale of each profile (quick ÷256, ×16, ×4, ×1), with arrays of half
// the L1 each, which fill every L1 set exactly.
func TestRunScriptTwoPageAlignedStreams(t *testing.T) {
	for _, scale := range []int64{256, 16, 4, 1} {
		d := machine.Scaled(machine.Xeon7560HT(), scale)
		sp := mem.NewSpacePaged(d.Links, d.Links, max(int64(2<<20)/scale, 4096))
		h := New(d, sp)
		n := int(d.Levels[d.NumLevels()-1].Size / 16)
		a, b := sp.NewF64("a", n), sp.NewF64("b", n)
		ops := rrmScript(a.Base, b.Base, n)
		end := int64(len(ops))

		// First pass: the engine's replay loop, with the cold misses
		// taking the general walk.
		ip, prev, now := int64(0), int64(0), int64(0)
		for ip < end {
			nip, nprev, spent, miss := h.RunScript(0, ops, ip, end, prev, 1<<62)
			ip, prev, now = nip, nprev, now+spent
			if !miss {
				continue
			}
			v, k := opcode.Uvarint(ops[ip:])
			ip += int64(k)
			prev += opcode.Unzigzag(v >> opcode.TagBits)
			c, _ := h.Access(0, now, mem.Addr(prev), v&opcode.TagMask == opcode.Write)
			now += c
		}

		l1 := h.CacheAt(d.NumLevels()-1, 0)
		hits := l1.Stats.Hits
		nip, _, spent, miss := h.RunScript(0, ops, 0, end, 0, 1<<62)
		if miss || nip != end {
			t.Fatalf("scale %d: second pass stopped at op byte %d of %d (miss=%v); every access is an L1 hit", scale, nip, end, miss)
		}
		if got := l1.Stats.Hits - hits; got != int64(2*n) || spent != int64(2*n)*d.Levels[d.NumLevels()-1].HitCost {
			t.Errorf("scale %d: second pass counted %d L1 hits costing %d, want %d hits", scale, got, spent, 2*n)
		}
	}
}
