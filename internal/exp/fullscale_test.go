package exp

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/dagtrace"
	"repro/internal/sim"
)

// TestFullScaleProfiles pins the scale arithmetic: x64 is Paper, and x1
// restores the paper's real input sizes (RRM 16n ≈ 164MB of §5.3, sort at
// 38.4M elements, matmul at N=4096 with the 128-wide MKL base).
func TestFullScaleProfiles(t *testing.T) {
	x64 := FullScale(64)
	paper := Paper()
	paper.Name, paper.Reps = x64.Name, x64.Reps
	if x64 != paper {
		t.Errorf("FullScale(64) differs from Paper(): %+v vs %+v", x64, paper)
	}
	x1 := FullScale(1)
	if x1.MachineScale != 1 || x1.RRMN != 10_240_000 || x1.SortN != 38_400_000 ||
		x1.MatmulN != 4096 || x1.MatmulBase != 128 {
		t.Errorf("FullScale(1) = %+v", x1)
	}
	if got := 16 * x1.RRMN; got < 160_000_000 || got > 170_000_000 {
		t.Errorf("x1 RRM touches %d bytes, want ~164MB", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("FullScale(3) did not panic")
		}
	}()
	FullScale(3)
}

// TestFullCellShardInvariance runs one cell of the pipeline at quick
// scale twice — 1 shard and 2 — and requires identical fingerprints and
// simulated clocks: the process-local version of the fullscale-smoke CI
// check. It also pins the bounded-memory contract end to end: the
// decoder's high-water mark must stay under the window budget plus leases
// even though replays run concurrently on shards.
func TestFullCellShardInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline cell")
	}
	base := NewRunner(Quick(), io.Discard)
	base.ReplayWindow = 1 << 16
	var prev *FullCellReport
	for _, shards := range []int{1, 2} {
		r := NewRunner(Quick(), io.Discard)
		r.ReplayWindow = 1 << 16
		r.Shards = shards
		rep, err := r.FullCell("Quicksort", "sb")
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if rep.Fingerprint == "" || rep.ReplayWall <= 0 || rep.ShardedWall <= 0 {
			t.Fatalf("shards=%d: incomplete report %+v", shards, rep)
		}
		if rep.PeakWindowB >= rep.OpBytes {
			t.Errorf("shards=%d: peak window bytes %d not below op stream %d",
				shards, rep.PeakWindowB, rep.OpBytes)
		}
		if prev != nil {
			if rep.Fingerprint != prev.Fingerprint {
				t.Errorf("sharded fingerprint changed between shards=1 and shards=%d", shards)
			}
			if rep.ShardedWall != prev.ShardedWall || rep.L3Misses != prev.L3Misses || rep.StallCycles != prev.StallCycles {
				t.Errorf("sharded results changed with shard count: %+v vs %+v", rep, prev)
			}
			// The unsharded replay runs concurrently with the sharded one,
			// on its own stream; neither may reach the other's result.
			if rep.ReplayWall != prev.ReplayWall {
				t.Errorf("unsharded replay wall changed between shards=1 (%d) and shards=%d (%d)",
					prev.ReplayWall, shards, rep.ReplayWall)
			}
		}
		prev = rep
	}
	_ = base
}

// damageFrame flips one byte in the middle of the frames of dir's one
// cached recording.
func damageFrame(t *testing.T, dir string) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.dgts"))
	if err != nil || len(paths) != 1 {
		t.Fatalf("want one cached recording, got %v (%v)", paths, err)
	}
	tr, err := dagtrace.OpenTrace(paths[0], 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	off := 8 + tr.OpBytes()/2 // frames follow the 8-byte header
	tr.Close()
	f, err := os.OpenFile(paths[0], os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

// TestRunRepReRecordsCorruptFrame: a figure cell adopting a recording
// whose frame is damaged (metadata intact, so adoption accepts it) must
// reject it, re-record, and return the same result as the original run,
// counting the file corrupt; the next process then replays the fresh file.
func TestRunRepReRecordsCorruptFrame(t *testing.T) {
	p := Quick()
	m := p.MachineHT()
	c := Cell{Label: "Quicksort", Scheduler: "sb", Machine: m, LinksUsed: m.Links,
		MakeK: p.QuicksortFactory(), MakeS: SchedulerFactories("sb")[0]}
	dir := t.TempDir()
	run := func() (*sim.Result, dagtrace.Stats) {
		t.Helper()
		cache, err := dagtrace.NewCache(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		r := NewRunner(p, io.Discard)
		r.Traces = cache
		res, err := r.runRep(c, p.Seed)
		if err != nil {
			t.Fatal(err)
		}
		return res, cache.Stats()
	}
	want, _ := run()
	damageFrame(t, dir)
	got, s := run()
	if s.Corrupt != 1 || s.Misses != 1 || s.Hits != 0 {
		t.Fatalf("stats over a damaged frame = %+v, want Corrupt=1 Misses=1 Hits=0 (a fresh recording)", s)
	}
	if got.WallCycles != want.WallCycles || got.Strands != want.Strands || got.L3Misses() != want.L3Misses() {
		t.Fatal("re-recorded cell result differs from the original run")
	}
	if _, s := run(); s.DiskHits != 1 || s.Corrupt != 0 {
		t.Fatalf("stats after re-recording = %+v, want the fresh file adopted", s)
	}
}

// TestFullCellCorruptFrame flips one byte inside a frame of a cached
// recording. The overlapped cell must return the checksum error only
// once both replays have returned: no replay goroutine may outlive the
// call, and both streams must be closed (the shared budget drains to
// zero). A grid-style cell, which runs only the sharded replay, must
// report the corruption too. The cell experiment's path (FullCell, no
// grid supervisor) also evicts the damaged file, so its next run
// re-records instead of failing the same way.
func TestFullCellCorruptFrame(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline cell")
	}
	cache, err := dagtrace.NewCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(Quick(), io.Discard)
	r.Traces = cache
	clean, err := r.FullCell("Quicksort", "sb")
	if err != nil {
		t.Fatal(err)
	}
	if clean.Window >= clean.OpBytes {
		t.Fatalf("window %d covers the %d-byte op stream; the test needs windowed replays", clean.Window, clean.OpBytes)
	}
	damageFrame(t, cache.Dir())

	for _, unsharded := range []bool{true, false} {
		base := runtime.NumGoroutine()
		budget := dagtrace.NewBudget(0)
		_, err := r.fullCell("Quicksort", "sb", fullCellOpts{cache: cache, budget: budget, unsharded: unsharded})
		if err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
			t.Fatalf("unsharded=%v: corrupt frame gave err=%v, want a checksum mismatch", unsharded, err)
		}
		// The call joined its replay before returning; allow the exiting
		// goroutine a moment to be unscheduled, far less than a replay.
		for i := 0; runtime.NumGoroutine() > base && i < 20; i++ {
			time.Sleep(5 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Errorf("unsharded=%v: %d goroutines after the failed cell, %d before", unsharded, n, base)
		}
		if used := budget.Used(); used != 0 {
			t.Errorf("unsharded=%v: %d budget bytes still charged after the failed cell (stream left open)", unsharded, used)
		}
	}

	if _, err := r.FullCell("Quicksort", "sb"); !errors.Is(err, dagtrace.ErrCorrupt) {
		t.Fatalf("cell over a damaged frame: err = %v, want ErrCorrupt", err)
	}
	if s := cache.Stats(); s.Corrupt != 1 {
		t.Fatalf("stats = %+v, want the damaged file counted corrupt", s)
	}
	got, err := r.FullCell("Quicksort", "sb")
	if err != nil {
		t.Fatal(err)
	}
	if got.RecordShared || got.Fingerprint != clean.Fingerprint {
		t.Fatalf("after eviction: shared=%v fingerprint %s, want a fresh recording replaying to %s",
			got.RecordShared, got.Fingerprint, clean.Fingerprint)
	}
}

// TestFullCellRejectsUnknownNames covers the argument validation
// schedbench relies on for its exit-2 usage errors.
func TestFullCellRejectsUnknownNames(t *testing.T) {
	r := NewRunner(Quick(), io.Discard)
	if _, err := r.FullCell("NoSuchKernel", "sb"); err == nil {
		t.Error("unknown kernel accepted")
	}
	if _, err := r.FullCell("Quicksort", "nosuchsched"); err == nil {
		t.Error("unknown scheduler accepted")
	}
}
