package dagtrace

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"

	"repro/internal/job"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/sim"
)

// testProgram is a deterministic fork/join program with mixed reads,
// writes, compute and continuations: a two-pass parallel stencil.
func testProgram(sp *mem.Space, n int) job.Job {
	a := sp.NewF64("a", n)
	b := sp.NewF64("b", n)
	size := func(lo, hi int) int64 { return int64(hi-lo) * 8 }
	pass1 := job.For(0, n, 16, size, func(ctx job.Ctx, i int) {
		a.Write(ctx, i, float64(i%7))
		ctx.Work(3)
	})
	pass2 := job.For(1, n-1, 16, size, func(ctx job.Ctx, i int) {
		b.Write(ctx, i, a.Read(ctx, i-1)+a.Read(ctx, i+1))
	})
	return job.FuncJob(func(ctx job.Ctx) {
		ctx.Fork(job.FuncJob(func(c2 job.Ctx) {
			c2.Fork(nil, pass2)
		}), pass1)
	})
}

// recordBytes records testProgram(n) under schedName into an in-memory
// trace file with the given frame size (0 = default).
func recordBytes(t testing.TB, m *machine.Desc, schedName string, seed uint64, n int, frameSize int64) ([]byte, *sim.Result) {
	t.Helper()
	sp := mem.NewSpace(m.Links, m.Links)
	var file bytes.Buffer
	rec := NewRecorder(&file, frameSize)
	res, err := sim.Run(sim.Config{
		Machine: m, Space: sp, Scheduler: sched.New(schedName), Seed: seed, Listener: rec,
	}, testProgram(sp, n))
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Finish(); err != nil {
		t.Fatal(err)
	}
	return file.Bytes(), res
}

// openBytes opens an in-memory trace file through a window of the given
// size (math.MaxInt64 = resident).
func openBytes(t testing.TB, data []byte, window int64) *Trace {
	t.Helper()
	tr, err := NewTrace(bytes.NewReader(data), int64(len(data)), window, nil)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// record records the standard test program and opens it resident.
func record(t *testing.T, m *machine.Desc, schedName string, seed uint64) (*Trace, *sim.Result) {
	t.Helper()
	data, res := recordBytes(t, m, schedName, seed, 512, 0)
	return openBytes(t, data, math.MaxInt64), res
}

// fingerprint is Trace.Fingerprint with the error failing the test.
func fingerprint(t testing.TB, tr *Trace) string {
	t.Helper()
	fp, err := tr.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

func replay(t *testing.T, tr *Trace, m *machine.Desc, schedName string, seed uint64, l sim.Listener) *sim.Result {
	t.Helper()
	sp := mem.NewSpace(m.Links, m.Links)
	res, err := sim.Run(sim.Config{
		Machine: m, Space: sp, Scheduler: sched.New(schedName), Seed: seed, Listener: l,
	}, tr.Root())
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckResult(res); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestReplayMatchesLiveAcrossSchedulers is the core soundness property:
// record once (under ws), replay under every scheduler, and require the
// replay Result fingerprint to be bit-identical to a live run under that
// scheduler.
func TestReplayMatchesLiveAcrossSchedulers(t *testing.T) {
	m := machine.TwoSocket(4, 1<<16, 1<<12)
	const seed = 7
	tr, recRes := record(t, m, "ws", seed)
	if tr.TaskCount != recRes.Tasks || tr.StrandCount != recRes.Strands {
		t.Fatalf("trace counts %d/%d, result %d/%d", tr.TaskCount, tr.StrandCount, recRes.Tasks, recRes.Strands)
	}
	for _, sn := range []string{"ws", "pws", "cilk", "sb", "sbd", "pdf"} {
		sp := mem.NewSpace(m.Links, m.Links)
		live, err := sim.Run(sim.Config{
			Machine: m, Space: sp, Scheduler: sched.New(sn), Seed: seed,
		}, testProgram(sp, 512))
		if err != nil {
			t.Fatalf("%s live: %v", sn, err)
		}
		rep := replay(t, tr, m, sn, seed, nil)
		if live.Fingerprint() != rep.Fingerprint() {
			t.Errorf("%s: live fingerprint != replay fingerprint\nlive:   %s\nreplay: %s",
				sn, live.Fingerprint(), rep.Fingerprint())
		}
	}
}

// TestTraceOfReplayIsIdentical re-records a replay run and requires the
// captured trace to reproduce the original's canonical fingerprint: replay
// is a fixed point of record.
func TestTraceOfReplayIsIdentical(t *testing.T) {
	m := machine.TwoSocket(4, 1<<16, 1<<12)
	tr, _ := record(t, m, "ws", 7)
	var file bytes.Buffer
	rec2 := NewRecorder(&file, 0)
	replay(t, tr, m, "ws", 7, rec2)
	if err := rec2.Finish(); err != nil {
		t.Fatal(err)
	}
	tr2 := openBytes(t, file.Bytes(), math.MaxInt64)
	if fingerprint(t, tr) != fingerprint(t, tr2) {
		t.Fatal("trace of replay differs from original trace")
	}
}

// TestEncodeDecodeRoundTrip pins the file format: the same run recorded
// at different frame sizes — so its scripts straddle different frame
// boundaries — must open, resident or through a one-frame window, to the
// same canonical fingerprint and replay identically.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := machine.TwoSocket(4, 1<<16, 1<<12)
	ref, _ := record(t, m, "ws", 7)
	want := fingerprint(t, ref)
	wantRes := replay(t, ref, m, "sb", 7, nil).Fingerprint()
	for _, frameSize := range []int64{64, 512} {
		data, _ := recordBytes(t, m, "ws", 7, 512, frameSize)
		for _, window := range []int64{frameSize, math.MaxInt64} {
			tr := openBytes(t, data, window)
			if (tr.ops == nil) != (window == frameSize) {
				t.Fatalf("frame %d window %d: resident=%v", frameSize, window, tr.ops != nil)
			}
			if got := fingerprint(t, tr); got != want {
				t.Errorf("frame %d window %d: fingerprint differs", frameSize, window)
			}
			if replay(t, tr, m, "sb", 7, nil).Fingerprint() != wantRes {
				t.Errorf("frame %d window %d: replays differently", frameSize, window)
			}
		}
	}
}

// TestDecodeRejectsCorruption flips bytes across a whole trace file —
// header, frames, metadata and footer — and requires a resident open to
// fail on every mutation (and never panic): resident opening verifies
// every frame, so corruption is reported at open.
func TestDecodeRejectsCorruption(t *testing.T) {
	m := machine.TwoSocket(2, 1<<14, 1<<12)
	data, _ := recordBytes(t, m, "ws", 3, 512, 256)
	if _, err := NewTrace(bytes.NewReader(data[:len(data)-3]), int64(len(data)-3), math.MaxInt64, nil); err == nil {
		t.Error("truncated trace opened without error")
	}
	for i := 0; i < len(data); i += 17 {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x5a
		if _, err := NewTrace(bytes.NewReader(mut), int64(len(mut)), math.MaxInt64, nil); err == nil {
			t.Fatalf("corruption at byte %d went undetected", i)
		}
	}
}

// TestFutureProgramsAreRejected: a ForkFuture program must abort recording
// with ErrUnsupported (callers fall back to live execution).
func TestFutureProgramsAreRejected(t *testing.T) {
	m := machine.Flat(2, 1<<14)
	sp := mem.NewSpace(1, 1)
	f := job.NewFuture()
	root := job.FuncJob(func(ctx job.Ctx) {
		ctx.ForkFuture(job.FuncJob(func(c2 job.Ctx) {
			c2.ForkAwait(job.FuncJob(func(job.Ctx) {}), []*job.Future{f})
		}), f, job.FuncJob(func(c3 job.Ctx) { c3.Work(5) }))
	})
	rec := NewRecorder(io.Discard, 0)
	if _, err := sim.Run(sim.Config{
		Machine: m, Space: sp, Scheduler: sched.NewWS(), Seed: 1, Listener: rec,
	}, root); err != nil {
		t.Fatal(err)
	}
	if err := rec.Finish(); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("Finish = %v, want ErrUnsupported", err)
	}
}
