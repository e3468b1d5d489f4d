package dagtrace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/sim"
)

// recordTestTrace records the standard test program for cache tests.
func recordTestTrace(t *testing.T, n int) *Trace {
	t.Helper()
	m := machine.TwoSocket(4, 1<<16, 1<<12)
	sp := mem.NewSpace(m.Links, m.Links)
	rec := NewRecorder()
	if _, err := sim.Run(sim.Config{
		Machine: m, Space: sp, Scheduler: sched.NewWS(), Seed: 7, Listener: rec,
	}, testProgram(sp, n)); err != nil {
		t.Fatal(err)
	}
	tr, err := rec.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestStreamCacheSingleFlight pins the grid sharing discipline: of N
// concurrent callers for one key, exactly one records; every other
// caller blocks until the file lands and replays the same path.
func TestStreamCacheSingleFlight(t *testing.T) {
	c, err := NewStreamCache(t.TempDir(), 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	tr := recordTestTrace(t, 1<<10)
	const callers = 8
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		records int
		paths   = map[string]bool{}
	)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, shared, record, err := c.GetOrReserve("k")
			if err != nil {
				t.Error(err)
				return
			}
			if record {
				if shared {
					t.Error("record=true with shared=true")
				}
				if p, err = c.Fill("k", tr); err != nil {
					t.Error(err)
					return
				}
			} else if !shared {
				t.Error("non-recording caller saw shared=false")
			}
			mu.Lock()
			if record {
				records++
			}
			paths[p] = true
			mu.Unlock()
			st, err := OpenStream(p, 0)
			if err != nil {
				t.Error(err)
				return
			}
			defer st.Close()
			if st.TaskCount != tr.TaskCount {
				t.Errorf("cached file has %d tasks, recording %d", st.TaskCount, tr.TaskCount)
			}
		}()
	}
	wg.Wait()
	if records != 1 {
		t.Fatalf("got %d recordings, want exactly 1", records)
	}
	if len(paths) != 1 {
		t.Fatalf("callers saw %d distinct paths, want 1", len(paths))
	}
	s := c.Stats()
	if s.Misses != 1 || s.Hits != callers-1 {
		t.Fatalf("stats = %+v, want 1 miss and %d hits", s, callers-1)
	}
}

// TestStreamCacheAdoptsDisk checks that a fresh cache over an existing
// directory adopts (and revalidates) a previous process's file instead
// of re-recording.
func TestStreamCacheAdoptsDisk(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewStreamCache(dir, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	tr := recordTestTrace(t, 1<<10)
	if _, _, record, _ := c1.GetOrReserve("k"); !record {
		t.Fatal("cold cache did not ask for a recording")
	}
	p1, err := c1.Fill("k", tr)
	if err != nil {
		t.Fatal(err)
	}

	c2, err := NewStreamCache(dir, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	p2, shared, record, err := c2.GetOrReserve("k")
	if err != nil {
		t.Fatal(err)
	}
	if record || !shared || p2 != p1 {
		t.Fatalf("adoption: path=%q shared=%v record=%v, want %q true false", p2, shared, record, p1)
	}
	if s := c2.Stats(); s.DiskHits != 1 {
		t.Fatalf("stats = %+v, want 1 disk hit", s)
	}
}

// TestStreamCacheEvictsCorrupt checks the spill discipline on a damaged
// file: it is removed, counted, and the key falls back to re-recording.
func TestStreamCacheEvictsCorrupt(t *testing.T) {
	dir := t.TempDir()
	c, err := NewStreamCache(dir, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	p := c.path("k")
	if err := os.WriteFile(p, []byte("not a framed trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, shared, record, err := c.GetOrReserve("k")
	if err != nil {
		t.Fatal(err)
	}
	if !record || shared {
		t.Fatalf("corrupt file: shared=%v record=%v, want false true", shared, record)
	}
	if _, err := os.Stat(p); !os.IsNotExist(err) {
		t.Fatalf("corrupt file still on disk (stat err %v)", err)
	}
	if s := c.Stats(); s.Corrupt != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 corrupt and 1 miss", s)
	}
}

// TestStreamCacheEvictsStaleVersion checks that a framed file from an
// older format version is evicted and re-recorded without being counted
// as corrupt: the format bump, not bit rot, made it unreadable.
func TestStreamCacheEvictsStaleVersion(t *testing.T) {
	dir := t.TempDir()
	c, err := NewStreamCache(dir, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	// A version-2 header: magic, version, root 0, then zeroed counts.
	old := make([]byte, streamHeaderLen+8)
	copy(old, streamMagic)
	binary.LittleEndian.PutUint32(old[4:], 2)
	binary.LittleEndian.PutUint64(old[12:], uint64(len(old)))
	_, err = NewStream(bytes.NewReader(old), int64(len(old)), 0)
	var verr *VersionError
	if !errors.As(err, &verr) || verr.Got != 2 || verr.Want != streamVersion {
		t.Fatalf("v2 header: err = %v, want a *VersionError for v2", err)
	}
	if want := "stale framed-trace format v2 (want v3)"; !strings.Contains(err.Error(), want) {
		t.Fatalf("v2 header: err = %q, want it to name %q", err, want)
	}
	p := c.path("k")
	if err := os.WriteFile(p, old, 0o644); err != nil {
		t.Fatal(err)
	}
	_, shared, record, err := c.GetOrReserve("k")
	if err != nil {
		t.Fatal(err)
	}
	if !record || shared {
		t.Fatalf("stale file: shared=%v record=%v, want false true", shared, record)
	}
	if _, err := os.Stat(p); !os.IsNotExist(err) {
		t.Fatalf("stale file still on disk (stat err %v)", err)
	}
	if s := c.Stats(); s.Corrupt != 0 || s.Misses != 1 {
		t.Fatalf("stats = %+v, want 0 corrupt and 1 miss", s)
	}
	if _, err := c.Fill("k", recordTestTrace(t, 64)); err != nil {
		t.Fatal(err)
	}
	c2, err := NewStreamCache(dir, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, record, err := c2.GetOrReserve("k"); record || err != nil {
		t.Fatalf("re-recorded v3 file not adopted: record=%v err=%v", record, err)
	}
}

// TestStreamCacheFail checks that a failed recording unblocks waiters
// with the recorder's error rather than deadlocking them.
func TestStreamCacheFail(t *testing.T) {
	c, err := NewStreamCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, record, _ := c.GetOrReserve("k"); !record {
		t.Fatal("cold cache did not ask for a recording")
	}
	boom := errors.New("kernel exploded")
	done := make(chan error, 1)
	registered := make(chan struct{})
	go func() {
		close(registered)
		_, _, _, err := c.GetOrReserve("k")
		done <- err
	}()
	// Let the waiter block on the reservation before it fails: a waiter
	// arriving after the failure would (correctly) re-record instead.
	<-registered
	time.Sleep(50 * time.Millisecond)
	c.Fail("k", boom)
	if err := <-done; err == nil || !strings.Contains(err.Error(), "kernel exploded") {
		t.Fatalf("waiter got %v, want the recording error", err)
	}
	if s := c.Stats(); s.Fallbacks != 1 {
		t.Fatalf("stats = %+v, want 1 fallback", s)
	}
	// Fail releases the reservation: the key is recordable again, not
	// wedged on the stale failure.
	if _, _, record, err := c.GetOrReserve("k"); err != nil || !record {
		t.Fatalf("post-Fail GetOrReserve: record=%v err=%v, want a fresh recording slot", record, err)
	}
	if _, err := c.Fill("k", recordTestTrace(t, 1<<10)); err != nil {
		t.Fatalf("recording after a released failure: %v", err)
	}
}

// TestStreamCacheFillWriteError injects a failing writer (the disk-full
// / I/O-error path) and pins the contract from both sides: the recorder
// and every waiter observe a typed *WriteError, no file is published,
// and the single-flight reservation is released so the key re-records —
// and succeeds — once the writer recovers.
func TestStreamCacheFillWriteError(t *testing.T) {
	c, err := NewStreamCache(t.TempDir(), 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	diskFull := errors.New("no space left on device")
	c.writeFn = func(t *Trace, path string, frameSize int64) error {
		// Simulate a torn write: bytes land, then the device fills.
		os.WriteFile(path, []byte("partial"), 0o644)
		return diskFull
	}
	tr := recordTestTrace(t, 1<<10)
	if _, _, record, _ := c.GetOrReserve("k"); !record {
		t.Fatal("cold cache did not ask for a recording")
	}
	waiter := make(chan error, 1)
	registered := make(chan struct{})
	go func() {
		close(registered)
		_, _, _, err := c.GetOrReserve("k")
		waiter <- err
	}()
	// As in TestStreamCacheFail: the waiter must be blocked on this
	// reservation before the failure publishes, or it would re-record.
	<-registered
	time.Sleep(50 * time.Millisecond)
	_, err = c.Fill("k", tr)
	var werr *WriteError
	if !errors.As(err, &werr) {
		t.Fatalf("Fill returned %T (%v), want *WriteError", err, err)
	}
	if werr.Key != "k" || !errors.Is(err, diskFull) {
		t.Fatalf("WriteError = %+v, want key %q wrapping the disk error", werr, "k")
	}
	if werr := <-waiter; !errors.As(werr, new(*WriteError)) {
		t.Fatalf("waiter got %v, want the *WriteError", werr)
	}
	if _, statErr := os.Stat(c.path("k")); !os.IsNotExist(statErr) {
		t.Fatalf("torn file survived the failed Fill (stat err %v)", statErr)
	}

	// Reservation released: with a healthy writer the key records fine.
	c.writeFn = nil
	p, _, record, err := c.GetOrReserve("k")
	if err != nil || !record {
		t.Fatalf("post-failure GetOrReserve: path=%q record=%v err=%v, want a fresh recording slot", p, record, err)
	}
	p, err = c.Fill("k", tr)
	if err != nil {
		t.Fatalf("recording after writer recovery: %v", err)
	}
	st, err := OpenStream(p, 0)
	if err != nil {
		t.Fatalf("recovered file does not open: %v", err)
	}
	st.Close()
}

// TestStreamCacheQuarantine pins the supervisor's evict-and-re-record
// path: quarantining a published recording removes entry and file, is
// counted, and the next GetOrReserve records from scratch; an in-flight
// recording and an absent key are both refused.
func TestStreamCacheQuarantine(t *testing.T) {
	c, err := NewStreamCache(t.TempDir(), 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	if c.Quarantine("nothing") {
		t.Fatal("quarantined a key that was never recorded")
	}
	tr := recordTestTrace(t, 1<<10)
	if _, _, record, _ := c.GetOrReserve("k"); !record {
		t.Fatal("cold cache did not ask for a recording")
	}
	// In flight: the reservation is live, nothing published to distrust.
	if c.Quarantine("k") {
		t.Fatal("quarantined an in-flight recording")
	}
	p, err := c.Fill("k", tr)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Quarantine("k") {
		t.Fatal("refused to quarantine a published recording")
	}
	if _, err := os.Stat(p); !os.IsNotExist(err) {
		t.Fatalf("quarantined file still on disk (stat err %v)", err)
	}
	if s := c.Stats(); s.Quarantined != 1 {
		t.Fatalf("stats = %+v, want 1 quarantined", s)
	}
	if _, _, record, err := c.GetOrReserve("k"); err != nil || !record {
		t.Fatalf("post-quarantine GetOrReserve: record=%v err=%v, want re-record", record, err)
	}
	c.Fail("k", errors.New("cleanup"))
}

// TestBudgetSharedAccounting replays two streams off one tiny shared
// budget: the bucket must force both windows down under pressure, its
// high-water mark must be visible, and after both streams close every
// token must be back (the runtime lease-leak check).
func TestBudgetSharedAccounting(t *testing.T) {
	m := machine.TwoSocket(4, 1<<16, 1<<12)
	_, _, path := writeFramed(t, 1<<10, 1<<12, 0)
	b := NewBudget(1 << 13) // 8KB across both streams: constant pressure
	var sts []*StreamTrace
	for i := 0; i < 2; i++ {
		st, err := OpenStreamBudget(path, 1<<20, b)
		if err != nil {
			t.Fatal(err)
		}
		sts = append(sts, st)
	}
	var fps []string
	for _, st := range sts {
		replayStream(t, st, m, "sb", 7)
		fp, err := st.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		fps = append(fps, fp)
	}
	if fps[0] != fps[1] {
		t.Fatalf("budget pressure changed trace fingerprints: %s vs %s", fps[0], fps[1])
	}
	if b.PeakBytes() <= 0 {
		t.Fatal("no peak recorded on the shared budget")
	}
	for _, st := range sts {
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if used := b.Used(); used != 0 {
		t.Fatalf("budget has %d bytes still charged after both streams closed", used)
	}
}
