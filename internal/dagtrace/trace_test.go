package dagtrace

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// writeFramed records the standard test program to a file with the given
// frame size and opens it through a window of the given size, which must
// be smaller than the op stream: the trace it returns is windowed.
func writeFramed(t *testing.T, n int, frameSize, window int64) (*Trace, string) {
	t.Helper()
	m := machine.TwoSocket(4, 1<<16, 1<<12)
	data, _ := recordBytes(t, m, "ws", 7, n, frameSize)
	path := filepath.Join(t.TempDir(), "trace.dgts")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := OpenTrace(path, window, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if st.ops != nil {
		t.Fatalf("window %d covers the %d-byte op stream; the test needs a windowed trace", window, st.OpBytes())
	}
	return st, path
}

// openResident opens a trace file resident.
func openResident(t *testing.T, path string) *Trace {
	t.Helper()
	tr, err := OpenTrace(path, math.MaxInt64, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr.ops == nil {
		t.Fatal("whole-trace window did not open resident")
	}
	return tr
}

// replayStream runs a streamed replay and checks it against the trace.
func replayStream(t *testing.T, st *Trace, m *machine.Desc, schedName string, seed uint64) *sim.Result {
	t.Helper()
	sp := mem.NewSpace(m.Links, m.Links)
	res, err := sim.Run(sim.Config{
		Machine: m, Space: sp, Scheduler: sched.New(schedName), Seed: seed,
	}, st.Root())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.CheckResult(res); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestStreamRoundTrip pins the two ways of opening a trace file: with a
// frame size small enough to force many frames, the resident trace and
// windowed ones — eight frames, and a single frame — must agree on counts
// and canonical fingerprint, and replay to identical simulation results
// under every scheduler of the paper: where a script comes from never
// reaches the simulator.
func TestStreamRoundTrip(t *testing.T) {
	m := machine.TwoSocket(4, 1<<16, 1<<12)
	const frameSize = 512
	_, path := writeFramed(t, 512, frameSize, frameSize)
	tr := openResident(t, path)
	for _, window := range []int64{frameSize, 8 * frameSize} {
		st, _ := writeFramed(t, 512, frameSize, window)
		if st.TaskCount != tr.TaskCount || st.StrandCount != tr.StrandCount ||
			st.AccessOps != tr.AccessOps || st.WorkOps != tr.WorkOps {
			t.Fatalf("window %d: counts %d/%d/%d/%d differ from resident %d/%d/%d/%d", window,
				st.TaskCount, st.StrandCount, st.AccessOps, st.WorkOps,
				tr.TaskCount, tr.StrandCount, tr.AccessOps, tr.WorkOps)
		}
		if sfp, rfp := fingerprint(t, st), fingerprint(t, tr); sfp != rfp {
			t.Fatalf("window %d: fingerprint differs:\nresident: %s\nwindowed: %s", window, rfp, sfp)
		}
		for _, sn := range []string{"ws", "pws", "sb", "sbd"} {
			a := replay(t, tr, m, sn, 7, nil)
			b := replayStream(t, st, m, sn, 7)
			if a.Fingerprint() != b.Fingerprint() {
				t.Errorf("window %d, %s: windowed replay fingerprint differs from resident replay", window, sn)
			}
		}
	}
}

// TestStreamBoundedWindow is the bounded-memory contract: replaying
// through a window far smaller than the op stream must stay within a
// fixed resident budget AND still produce a bit-identical result. The
// budget below covers the window itself plus the scripts leased by the
// (at most NumCores) in-flight strands; the point is that it does not
// scale with OpBytes.
func TestStreamBoundedWindow(t *testing.T) {
	m := machine.TwoSocket(4, 1<<16, 1<<12)
	const frameSize, window = 256, 1024
	st, path := writeFramed(t, 2048, frameSize, window)
	if st.OpBytes() < 8*window {
		t.Fatalf("trace op stream too small (%d bytes) to exercise a %d-byte window", st.OpBytes(), window)
	}
	a := replay(t, openResident(t, path), m, "ws", 7, nil)
	b := replayStream(t, st, m, "ws", 7)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("windowed replay fingerprint differs from resident replay")
	}
	// Budget: the window itself + one lease per core, each rounded up to
	// the 1KiB lease quantum (strand scripts here are far smaller).
	budget := int64(window) + int64(m.NumCores())*1024
	if peak := st.PeakResidentBytes(); peak > budget {
		t.Fatalf("peak decoder-resident bytes %d exceed budget %d (op stream %d bytes)",
			peak, budget, st.OpBytes())
	}
	if st.PeakResidentBytes() >= st.OpBytes() {
		t.Fatalf("peak resident %d not below op stream size %d; window is not bounding memory",
			st.PeakResidentBytes(), st.OpBytes())
	}
}

// TestStreamWindowReuse replays the same windowed Trace twice (grid cells
// share one trace) and requires identical results both times — the
// window's eviction state must not leak into simulation results.
func TestStreamWindowReuse(t *testing.T) {
	m := machine.TwoSocket(4, 1<<16, 1<<12)
	st, _ := writeFramed(t, 512, 256, 1024)
	a := replayStream(t, st, m, "sb", 7)
	b := replayStream(t, st, m, "sb", 7)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("second replay through the same window differs from the first")
	}
}

// TestStreamDetectsFrameCorruption flips a byte inside the frame region;
// a windowed open succeeds (metadata is intact) but the replay must fail
// CheckResult with the frame checksum error rather than silently
// replaying garbage. A resident open reports the same error at once.
func TestStreamDetectsFrameCorruption(t *testing.T) {
	m := machine.TwoSocket(4, 1<<16, 1<<12)
	st, path := writeFramed(t, 512, 256, 1024)
	opBytes := st.OpBytes()
	st.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[headerLen+opBytes-5] ^= 0x5a // inside the last frame
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenTrace(path, math.MaxInt64, nil); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("resident open of a corrupt frame: err = %v, want a checksum error", err)
	}
	st2, err := OpenTrace(path, 1024, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	sp := mem.NewSpace(m.Links, m.Links)
	res, err := sim.Run(sim.Config{
		Machine: m, Space: sp, Scheduler: sched.New("ws"), Seed: 7,
	}, st2.Root())
	if err != nil {
		t.Fatal(err)
	}
	cerr := st2.CheckResult(res)
	if cerr == nil {
		t.Fatal("replay of corrupt frames passed CheckResult")
	}
	if !strings.Contains(cerr.Error(), "checksum") {
		t.Fatalf("corrupt frame reported as %q, want a checksum error", cerr)
	}
}

// TestFrameSumKnownAnswer pins the on-disk checksum to the published
// check values of its two halves (CRC-32C 0xE3069283, CRC-32/IEEE
// 0xCBF43926 over "123456789"), so the format cannot drift silently.
func TestFrameSumKnownAnswer(t *testing.T) {
	if got, want := frameSum([]byte("123456789")), uint64(0xE3069283_CBF43926); got != want {
		t.Fatalf("frameSum(\"123456789\") = %#x, want %#x", got, want)
	}
}

// TestStreamDetectsEveryBitFlip is the detection property of the frame
// checksums: every single-bit flip anywhere in a small trace's frame
// region, and a sample of two-bit flips, must be reported as a checksum
// error — at open by a resident trace, and by CheckResult once a
// windowed replay loads the damaged frame.
func TestStreamDetectsEveryBitFlip(t *testing.T) {
	m := machine.TwoSocket(4, 1<<16, 1<<12)
	const frameSize = 64
	data, _ := recordBytes(t, m, "ws", 7, 32, frameSize)
	st := openBytes(t, data, frameSize)
	frameBits := 8 * st.OpBytes()
	if frameBits < 8*3*frameSize {
		t.Fatalf("frame region of %d bits spans too few frames", frameBits)
	}
	// check flips the given bits of the frame region, then opens the file
	// resident, and through a one-frame window leases and releases every
	// strand's script, which loads each frame exactly as a replay does.
	check := func(flips ...int64) {
		t.Helper()
		mut := append([]byte(nil), data...)
		for _, bit := range flips {
			mut[headerLen+bit/8] ^= 1 << (bit % 8)
		}
		if _, err := NewTrace(bytes.NewReader(mut), int64(len(mut)), math.MaxInt64, nil); err == nil || !strings.Contains(err.Error(), "checksum") {
			t.Fatalf("flips %v: resident open = %v, want a checksum error", flips, err)
		}
		st, err := NewTrace(bytes.NewReader(mut), int64(len(mut)), frameSize, nil)
		if err != nil {
			t.Fatalf("flips %v: frame damage rejected at windowed open: %v", flips, err)
		}
		for i := range st.jobs {
			ops, _, _ := st.jobs[i].Script()
			st.jobs[i].ReleaseScript(ops)
		}
		if err := st.CheckResult(&sim.Result{}); err == nil || !strings.Contains(err.Error(), "checksum") {
			t.Fatalf("flips %v: CheckResult = %v, want a checksum error", flips, err)
		}
	}
	for bit := int64(0); bit < frameBits; bit++ {
		check(bit)
	}
	rng := xrand.New(11)
	for i := 0; i < 2000; i++ {
		a, b := int64(rng.Intn(int(frameBits))), int64(rng.Intn(int(frameBits)))
		if a != b {
			check(a, b)
		}
	}
}

// TestStreamRejectsMetaCorruption flips bytes across the header and the
// metadata trailer and requires NewTrace to reject each mutation (and
// never panic).
func TestStreamRejectsMetaCorruption(t *testing.T) {
	st, path := writeFramed(t, 512, 256, 1024)
	metaOff := int(headerLen + st.OpBytes())
	st.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewTrace(bytes.NewReader(data[:len(data)/2]), int64(len(data)/2), 0, nil); err == nil {
		t.Error("truncated framed trace opened without error")
	}
	for i := 0; i < len(data); i += 13 {
		if i >= headerLen && i < metaOff {
			continue // frames: verified when loaded, see above
		}
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x5a
		if _, err := NewTrace(bytes.NewReader(mut), int64(len(mut)), 1024, nil); err == nil {
			t.Fatalf("metadata corruption at byte %d went undetected", i)
		}
	}
}

// FuzzFramedDecode hammers NewTrace with mutated trace files, seeded with
// files the recorder wrote at three frame sizes: truncations, corrupt
// varints and forged footers must all surface as errors (or decode to a
// consistent trace), never as panics or out-of-bounds allocations. When
// the mutant decodes, its fingerprint must be computable — exercising the
// frame checksum path too.
func FuzzFramedDecode(f *testing.F) {
	m := machine.TwoSocket(2, 1<<14, 1<<12)
	for i, frameSize := range []int64{64, 1024, DefaultFrameSize} {
		data, _ := recordBytes(f, m, "ws", 3, 96, frameSize)
		f.Add(data)
		if i == 0 {
			f.Add(data[:len(data)/2])
			f.Add(data[:headerLen+footerLen])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// A one-frame window at the smallest seed frame size keeps the
		// windowed decoder in play; the whole-trace window is resident.
		for _, window := range []int64{64, math.MaxInt64} {
			st, err := NewTrace(bytes.NewReader(data), int64(len(data)), window, nil)
			if err != nil {
				continue
			}
			if _, err := st.Fingerprint(); err != nil {
				continue // frame corruption detected — fine
			}
		}
	})
}

// BenchmarkReadFrame measures loading one default-size frame into the
// window: the ReadAt copy plus its checksum verification, which the
// window repeats every time an evicted frame is read again.
func BenchmarkReadFrame(b *testing.B) {
	const size = DefaultFrameSize
	file := make([]byte, headerLen+size)
	data := file[headerLen:]
	rng := xrand.New(1)
	for i := range data {
		data[i] = byte(rng.Uint64())
	}
	st := &Trace{
		r: bytes.NewReader(file), frameSize: size, opBytes: size,
		frameSums: []uint64{frameSum(data)},
	}
	buf := make([]byte, size)
	b.SetBytes(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.readFrame(0, buf); err != nil {
			b.Fatal(err)
		}
	}
}
