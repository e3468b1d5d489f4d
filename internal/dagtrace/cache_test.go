package dagtrace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/sim"
)

// fill records the standard test program (n elements) into a reservation
// and commits it.
func fill(t *testing.T, rs *Reservation, n int) *Recording {
	t.Helper()
	m := machine.TwoSocket(4, 1<<16, 1<<12)
	sp := mem.NewSpace(m.Links, m.Links)
	if _, err := sim.Run(sim.Config{
		Machine: m, Space: sp, Scheduler: sched.NewWS(), Seed: 7, Listener: rs.Recorder(),
	}, testProgram(sp, n)); err != nil {
		rs.Fail(err)
		t.Fatal(err)
	}
	rc, err := rs.Commit()
	if err != nil {
		t.Fatal(err)
	}
	return rc
}

// reserve asks a cold cache for key and fails unless it hands out the
// reservation.
func reserve(t *testing.T, c *Cache, key string) *Reservation {
	t.Helper()
	_, rs, err := c.GetOrReserve(key)
	if err != nil || rs == nil {
		t.Fatalf("GetOrReserve(%q): reservation=%v err=%v, want a reservation", key, rs != nil, err)
	}
	return rs
}

func newCache(t *testing.T, dir string, frameSize int64) *Cache {
	t.Helper()
	c, err := NewCache(dir, frameSize)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCacheSingleFlight: one recorder per key, everyone else blocks for
// the recording and shares it; stats count one miss and the rest hits.
func TestCacheSingleFlight(t *testing.T) {
	c := newCache(t, "", 0)
	const waiters = 8
	got := make([]*Recording, waiters)
	var recorders int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rc, rs, err := c.GetOrReserve("k")
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			if rs != nil {
				mu.Lock()
				recorders++
				mu.Unlock()
				rc = fill(t, rs, 512)
			}
			got[i] = rc
		}(i)
	}
	wg.Wait()
	if recorders != 1 {
		t.Fatalf("%d recorders for one key, want 1", recorders)
	}
	for i, rc := range got {
		if rc != got[0] || rc == nil {
			t.Fatalf("waiter %d got %p, want the one recording %p", i, rc, got[0])
		}
	}
	if got[0].Path() != "" {
		t.Fatalf("memory-only cache wrote %s", got[0].Path())
	}
	tr, err := got[0].Resident()
	if err != nil {
		t.Fatal(err)
	}
	if tr2, _ := got[0].Resident(); tr2 != tr || tr.ops == nil {
		t.Fatal("Resident must open the recording once, resident")
	}
	s := c.Stats()
	if s.Misses != 1 || s.Hits != waiters-1 {
		t.Fatalf("stats = %+v, want 1 miss / %d hits", s, waiters-1)
	}
	if hr := s.HitRate(); hr <= 0.8 {
		t.Fatalf("hit rate %.2f, want > 0.8", hr)
	}
}

// TestCacheFallbackAndDrop: an ErrUnsupported recording stays published
// for every later caller as a live-fallback signal; Drop evicts so the
// key records again.
func TestCacheFallbackAndDrop(t *testing.T) {
	c := newCache(t, "", 0)
	reserve(t, c, "k").Fail(ErrUnsupported)
	if rc, rs, err := c.GetOrReserve("k"); rc != nil || rs != nil || !errors.Is(err, ErrUnsupported) {
		t.Fatalf("after unsupported recording: recording=%v reservation=%v err=%v", rc != nil, rs != nil, err)
	}
	c.Drop("k")
	reserve(t, c, "k").Fail(ErrUnsupported)
	if s := c.Stats(); s.Fallbacks != 1 || s.Misses != 2 {
		t.Fatalf("stats = %+v, want 1 fallback / 2 misses", s)
	}
}

// TestCacheDiskSpill: a recording in a cache with a directory is a file
// that seeds a second cache instance without re-recording. A damaged
// metadata trailer forces a fresh recording at adoption; a damaged frame
// passes the metadata-only adoption check, fails the resident open with
// ErrCorrupt, and — once the replay rejects it — forces a fresh recording
// too, counted as corrupt.
func TestCacheDiskSpill(t *testing.T) {
	dir := t.TempDir()
	c1 := newCache(t, dir, 1<<10)
	want := fingerprint(t, openRecording(t, fill(t, reserve(t, c1, "k"), 512)))
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil || len(files) != 1 || filepath.Ext(files[0]) != ".dgts" {
		t.Fatalf("cache files = %v (err %v), want exactly one .dgts", files, err)
	}
	c2 := newCache(t, dir, 1<<10)
	rc, rs, err := c2.GetOrReserve("k")
	if err != nil || rs != nil {
		t.Fatalf("disk reload: reservation=%v err=%v", rs != nil, err)
	}
	if got := fingerprint(t, openRecording(t, rc)); got != want {
		t.Fatal("reloaded trace fingerprint differs")
	}
	if s := c2.Stats(); s.DiskHits != 1 {
		t.Fatalf("stats = %+v, want 1 disk hit", s)
	}

	data, _ := os.ReadFile(files[0])
	frame := append([]byte(nil), data...)
	frame[headerLen+10] ^= 0xff
	if err := os.WriteFile(files[0], frame, 0o644); err != nil {
		t.Fatal(err)
	}
	c3 := newCache(t, dir, 1<<10)
	rc, rs, err = c3.GetOrReserve("k")
	if err != nil || rs != nil {
		t.Fatalf("frame damage must pass adoption: reservation=%v err=%v", rs != nil, err)
	}
	if _, err := rc.Resident(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("resident open of a damaged frame: err = %v, want ErrCorrupt", err)
	}
	c3.Reject("k", rc)
	if _, err := os.Stat(files[0]); !os.IsNotExist(err) {
		t.Fatalf("rejected file still on disk (stat err %v)", err)
	}
	fill(t, reserve(t, c3, "k"), 512) // a corrupt frame should force a fresh recording
	if s := c3.Stats(); s.Corrupt != 1 || s.Misses != 1 || s.Hits != 0 || s.DiskHits != 0 {
		t.Fatalf("stats = %+v, want Corrupt=1 Misses=1 and no hit", s)
	}
	if got := fingerprint(t, openRecording(t, mustGet(t, newCache(t, dir, 1<<10), "k"))); got != want {
		t.Fatal("re-recorded trace fingerprint differs")
	}

	data[len(data)-footerLen-1] ^= 0xff
	if err := os.WriteFile(files[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, rs, _ := newCache(t, dir, 1<<10).GetOrReserve("k"); rs == nil {
		t.Fatal("corrupt metadata should force a fresh recording")
	}
}

// mustGet resolves key to a published recording.
func mustGet(t *testing.T, c *Cache, key string) *Recording {
	t.Helper()
	rc, rs, err := c.GetOrReserve(key)
	if err != nil || rs != nil {
		t.Fatalf("GetOrReserve(%q): reservation=%v err=%v, want a recording", key, rs != nil, err)
	}
	return rc
}

// TestCacheRejectOnce: concurrent replays that all hold one damaged
// recording reject it and resolve the key again. Exactly one evicts it and
// re-records; the others must neither evict the fresh recording nor count
// the file twice, and every damaged hit is taken back.
func TestCacheRejectOnce(t *testing.T) {
	c := newCache(t, t.TempDir(), 1<<10)
	fill(t, reserve(t, c, "k"), 256)
	const n = 4
	bad := mustGet(t, c, "k")
	for i := 1; i < n; i++ {
		if mustGet(t, c, "k") != bad {
			t.Fatal("hits resolved to different recordings")
		}
	}
	reservations := make(chan *Reservation, n)
	got := make([]*Recording, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c.Reject("k", bad)
			rc, rs, err := c.GetOrReserve("k")
			if err != nil {
				t.Error(err)
			}
			if rs != nil {
				reservations <- rs
			}
			got[i] = rc
		}(i)
	}
	good := fill(t, <-reservations, 256)
	wg.Wait()
	if len(reservations) != 0 {
		t.Fatalf("%d more re-recordings of one rejected key", len(reservations))
	}
	for i, rc := range got {
		if rc != nil && rc != good {
			t.Fatalf("replay %d resolved to %p, want the re-recording %p", i, rc, good)
		}
	}
	if _, err := os.Stat(good.Path()); err != nil {
		t.Fatalf("re-recorded file gone: %v", err)
	}
	if s := c.Stats(); s.Corrupt != 1 || s.Hits != n-1 || s.Misses != 2 {
		t.Fatalf("stats = %+v, want Corrupt=1 Hits=%d Misses=2", s, n-1)
	}
}

// TestNewCache: a directory is created, one that cannot be (a path under
// a regular file) is an error rather than a silent memory-only cache, and
// no directory means memory-only.
func TestNewCache(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewCache(filepath.Join(file, "tc"), 0); err == nil || !strings.Contains(err.Error(), "not a directory") {
		t.Fatalf("cache under a regular file: err = %v, want a not-a-directory error", err)
	}
	dir := filepath.Join(t.TempDir(), "tc")
	if c := newCache(t, dir, 0); c.Dir() != dir {
		t.Fatalf("cache dir %q, want %q", c.Dir(), dir)
	}
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		t.Fatalf("NewCache did not create %s (%v)", dir, err)
	}
	if c := newCache(t, "", 0); c.Dir() != "" {
		t.Fatalf("no directory: want a memory-only cache, got dir %q", c.Dir())
	}
}

// TestCacheRemovesStaleTemps: opening a cache directory removes every
// temporary file last modified before this process started — left by a
// process killed mid-recording, whether or not its key is ever reserved
// again — but not one modified since (it may be a live attempt's), nor a
// finished recording.
func TestCacheRemovesStaleTemps(t *testing.T) {
	dir := t.TempDir()
	c := newCache(t, dir, 1<<10)
	p := c.path("k")
	stale, otherStale, live := p+".123.tmp", c.path("never-again")+".789.tmp", p+".456.tmp"
	fill(t, reserve(t, c, "k"), 256)
	old := processStart.Add(-time.Hour)
	for _, f := range []string{stale, otherStale, live} {
		if err := os.WriteFile(f, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
		if f != live {
			if err := os.Chtimes(f, old, old); err != nil {
				t.Fatal(err)
			}
		}
	}
	newCache(t, dir, 1<<10)
	for _, f := range []string{stale, otherStale} {
		if _, err := os.Stat(f); !os.IsNotExist(err) {
			t.Errorf("stale temp %s survived (stat err %v)", filepath.Base(f), err)
		}
	}
	for _, f := range []string{live, p} {
		if _, err := os.Stat(f); err != nil {
			t.Errorf("%s removed: %v", filepath.Base(f), err)
		}
	}
}

// openRecording opens a recording resident.
func openRecording(t *testing.T, rc *Recording) *Trace {
	t.Helper()
	tr, err := rc.Resident()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestCacheEvictsCorruptSpill: a file whose node table is cut mid-varint
// (with the metadata checksum recomputed, so only the structural varint
// guard can catch it) is detected on adoption, evicted from disk, counted
// in Stats.Corrupt, and the cell falls back to re-recording — after which
// the fresh recording is a good file again.
func TestCacheEvictsCorruptSpill(t *testing.T) {
	dir := t.TempDir()
	c1 := newCache(t, dir, 0)
	want := fingerprint(t, openRecording(t, fill(t, reserve(t, c1, "k"), 512)))
	p := c1.path("k")
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	// Replace the node table from its eighth byte on with bare
	// continuation bytes (0x80: a varint that never terminates), keeping
	// every length intact so only the varint reader can catch the damage,
	// then re-seal the metadata checksum.
	metaLen := binary.LittleEndian.Uint64(data[len(data)-16:])
	metaOff := len(data) - footerLen - int(metaLen)
	for i := metaOff + 7; i < len(data)-footerLen; i++ {
		data[i] = 0x80
	}
	binary.LittleEndian.PutUint64(data[len(data)-8:], frameSum(data[metaOff:len(data)-8]))
	if _, err := NewTrace(bytes.NewReader(data), int64(len(data)), 0, nil); err == nil || !strings.Contains(err.Error(), "mid-varint") {
		t.Fatalf("open of cut node table: err = %v, want mid-varint truncation", err)
	}
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	c2 := newCache(t, dir, 0)
	rs := reserve(t, c2, "k")
	if s := c2.Stats(); s.Corrupt != 1 || s.Misses != 1 || s.DiskHits != 0 {
		t.Fatalf("stats = %+v, want Corrupt=1 Misses=1 DiskHits=0", s)
	}
	if _, err := os.Stat(p); !os.IsNotExist(err) {
		t.Fatalf("corrupt file not evicted (stat err %v)", err)
	}
	fill(t, rs, 512)
	rc, rs, err := newCache(t, dir, 0).GetOrReserve("k")
	if rs != nil || err != nil || fingerprint(t, openRecording(t, rc)) != want {
		t.Fatalf("re-recorded file did not reload cleanly (reservation=%v err=%v)", rs != nil, err)
	}
}

// TestStreamCacheSingleFlight pins the grid sharing discipline on disk:
// of N concurrent callers for one key, exactly one records; every other
// caller blocks until the file lands and replays the same path.
func TestStreamCacheSingleFlight(t *testing.T) {
	c := newCache(t, t.TempDir(), 1<<12)
	const callers = 8
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		records int
		paths   = map[string]bool{}
		tasks   = map[uint64]bool{}
	)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rc, rs, err := c.GetOrReserve("k")
			if err != nil {
				t.Error(err)
				return
			}
			if rs != nil {
				rc = fill(t, rs, 1<<10)
			}
			st, err := rc.Open(0, nil)
			if err != nil {
				t.Error(err)
				return
			}
			defer st.Close()
			mu.Lock()
			defer mu.Unlock()
			if rs != nil {
				records++
			}
			paths[rc.Path()] = true
			tasks[st.TaskCount] = true
		}()
	}
	wg.Wait()
	if records != 1 {
		t.Fatalf("got %d recordings, want exactly 1", records)
	}
	if len(paths) != 1 || len(tasks) != 1 {
		t.Fatalf("callers saw %d distinct paths and %d task counts, want 1 and 1", len(paths), len(tasks))
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
	p1 := fill(t, reserve(t, newCache(t, dir, 1<<12), "k"), 1<<10).Path()
	c2 := newCache(t, dir, 1<<12)
	rc, rs, err := c2.GetOrReserve("k")
	if err != nil {
		t.Fatal(err)
	}
	if rs != nil || rc.Path() != p1 {
		t.Fatalf("adoption: path=%q reservation=%v, want %q and none", rc.Path(), rs != nil, p1)
	}
	if s := c2.Stats(); s.DiskHits != 1 {
		t.Fatalf("stats = %+v, want 1 disk hit", s)
	}
}

// TestStreamCacheEvictsCorrupt checks the discipline on a damaged file:
// it is removed, counted, and the key falls back to re-recording.
func TestStreamCacheEvictsCorrupt(t *testing.T) {
	c := newCache(t, t.TempDir(), 1<<12)
	p := c.path("k")
	if err := os.WriteFile(p, []byte("not a framed trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	rs := reserve(t, c, "k")
	defer rs.Fail(errors.New("cleanup"))
	if _, err := os.Stat(p); !os.IsNotExist(err) {
		t.Fatalf("corrupt file still on disk (stat err %v)", err)
	}
	if s := c.Stats(); s.Corrupt != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 corrupt and 1 miss", s)
	}
}

// TestStreamCacheEvictsStaleVersion checks that a trace file from an
// older format version — v2 and v3 headers — is evicted and re-recorded
// without being counted as corrupt: the format bump, not bit rot, made
// it unreadable.
func TestStreamCacheEvictsStaleVersion(t *testing.T) {
	for _, v := range []uint32{2, 3} {
		t.Run(fmt.Sprintf("v%d", v), func(t *testing.T) {
			dir := t.TempDir()
			c := newCache(t, dir, 1<<12)
			// An old header: magic, version, then zeroed fields.
			old := make([]byte, 128)
			copy(old, traceMagic)
			binary.LittleEndian.PutUint32(old[4:], v)
			_, err := NewTrace(bytes.NewReader(old), int64(len(old)), 0, nil)
			var verr *VersionError
			if !errors.As(err, &verr) || verr.Got != v || verr.Want != traceVersion {
				t.Fatalf("v%d header: err = %v, want a *VersionError for v%d", v, err, v)
			}
			if want := fmt.Sprintf("stale framed-trace format v%d (want v4)", v); !strings.Contains(err.Error(), want) {
				t.Fatalf("v%d header: err = %q, want it to name %q", v, err, want)
			}
			p := c.path("k")
			if err := os.WriteFile(p, old, 0o644); err != nil {
				t.Fatal(err)
			}
			rs := reserve(t, c, "k")
			if _, err := os.Stat(p); !os.IsNotExist(err) {
				t.Fatalf("stale file still on disk (stat err %v)", err)
			}
			if s := c.Stats(); s.Corrupt != 0 || s.Misses != 1 {
				t.Fatalf("stats = %+v, want 0 corrupt and 1 miss", s)
			}
			fill(t, rs, 64)
			if _, rs, err := newCache(t, dir, 1<<12).GetOrReserve("k"); rs != nil || err != nil {
				t.Fatalf("re-recorded v4 file not adopted: reservation=%v err=%v", rs != nil, err)
			}
		})
	}
}

// TestStreamCacheFail checks that a failed recording unblocks waiters
// with the recorder's error rather than deadlocking them.
func TestStreamCacheFail(t *testing.T) {
	c := newCache(t, t.TempDir(), 0)
	rs := reserve(t, c, "k")
	boom := errors.New("kernel exploded")
	done := make(chan error, 1)
	registered := make(chan struct{})
	go func() {
		close(registered)
		_, _, err := c.GetOrReserve("k")
		done <- err
	}()
	// Let the waiter block on the reservation before it fails: a waiter
	// arriving after the failure would (correctly) re-record instead.
	<-registered
	time.Sleep(50 * time.Millisecond)
	rs.Fail(boom)
	if err := <-done; err == nil || !strings.Contains(err.Error(), "kernel exploded") {
		t.Fatalf("waiter got %v, want the recording error", err)
	}
	if s := c.Stats(); s.Fallbacks != 1 {
		t.Fatalf("stats = %+v, want 1 fallback", s)
	}
	if left, _ := filepath.Glob(filepath.Join(c.Dir(), "*")); len(left) != 0 {
		t.Fatalf("failed recording left files behind: %v", left)
	}
	// Fail releases the reservation: the key is recordable again, not
	// wedged on the stale failure.
	fill(t, reserve(t, c, "k"), 1<<10)
}

// fullDisk is a trace-file writer whose device fills after limit bytes.
type fullDisk struct {
	w     io.WriteCloser
	limit int
}

var errDiskFull = errors.New("no space left on device")

func (d *fullDisk) Write(p []byte) (int, error) {
	if len(p) > d.limit {
		n, _ := d.w.Write(p[:d.limit])
		d.limit = 0
		return n, errDiskFull
	}
	d.limit -= len(p)
	return d.w.Write(p)
}

func (d *fullDisk) Close() error { return d.w.Close() }

// TestStreamCacheFillWriteError injects a writer that fills up mid-
// recording (the disk-full / I/O-error path) and pins the contract from
// both sides: the recorder and every waiter observe a typed *WriteError,
// no file is published or left behind, and the single-flight reservation
// is released so the key re-records — and succeeds — once the writer
// recovers.
func TestStreamCacheFillWriteError(t *testing.T) {
	c := newCache(t, t.TempDir(), 1<<12)
	c.create = func(path string) (io.WriteCloser, string, error) {
		f, tmp, err := createTemp(path)
		if err != nil {
			return nil, "", err
		}
		return &fullDisk{w: f, limit: 100}, tmp, nil
	}
	rs := reserve(t, c, "k")
	waiter := make(chan error, 1)
	registered := make(chan struct{})
	go func() {
		close(registered)
		_, _, err := c.GetOrReserve("k")
		waiter <- err
	}()
	// As in TestStreamCacheFail: the waiter must be blocked on this
	// reservation before the failure publishes, or it would re-record.
	<-registered
	time.Sleep(50 * time.Millisecond)
	m := machine.TwoSocket(4, 1<<16, 1<<12)
	sp := mem.NewSpace(m.Links, m.Links)
	if _, err := sim.Run(sim.Config{
		Machine: m, Space: sp, Scheduler: sched.NewWS(), Seed: 7, Listener: rs.Recorder(),
	}, testProgram(sp, 1<<10)); err != nil {
		t.Fatal(err) // a failing writer never disturbs the observed run
	}
	_, err := rs.Commit()
	var werr *WriteError
	if !errors.As(err, &werr) {
		t.Fatalf("Commit returned %T (%v), want *WriteError", err, err)
	}
	if werr.Key != "k" || !errors.Is(err, errDiskFull) {
		t.Fatalf("WriteError = %+v, want key %q wrapping the disk error", werr, "k")
	}
	if werr := <-waiter; !errors.As(werr, new(*WriteError)) {
		t.Fatalf("waiter got %v, want the *WriteError", werr)
	}
	if left, _ := filepath.Glob(filepath.Join(c.Dir(), "*")); len(left) != 0 {
		t.Fatalf("torn recording survived the failed Commit: %v", left)
	}

	// Reservation released: with a healthy writer the key records fine.
	c.create = createTemp
	st, err := fill(t, reserve(t, c, "k"), 1<<10).Open(0, nil)
	if err != nil {
		t.Fatalf("recovered file does not open: %v", err)
	}
	st.Close()
}

// TestCacheConcurrentRecordingsOfOneKey: two caches over one directory
// (a resumed process next to an abandoned attempt of the previous one)
// record the same key at once. Each must write and rename its own
// temporary file: both commits succeed and the file left is a good one.
func TestCacheConcurrentRecordingsOfOneKey(t *testing.T) {
	dir := t.TempDir()
	c1, c2 := newCache(t, dir, 1<<12), newCache(t, dir, 1<<12)
	rs1, rs2 := reserve(t, c1, "k"), reserve(t, c2, "k")
	want := fingerprint(t, openRecording(t, fill(t, rs1, 1<<10)))
	fill(t, rs2, 1<<10)
	rc, rs, err := newCache(t, dir, 1<<12).GetOrReserve("k")
	if err != nil || rs != nil || fingerprint(t, openRecording(t, rc)) != want {
		t.Fatalf("file after two recordings does not reload cleanly (reservation=%v err=%v)", rs != nil, err)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*")); len(files) != 1 {
		t.Fatalf("cache directory holds %v, want the one recording", files)
	}
}

// TestStreamCacheQuarantine pins the supervisor's evict-and-re-record
// path: quarantining a published recording removes entry and file, is
// counted, and the next GetOrReserve records from scratch; an in-flight
// recording and an absent key are both refused.
func TestStreamCacheQuarantine(t *testing.T) {
	c := newCache(t, t.TempDir(), 1<<12)
	if c.Quarantine("nothing") {
		t.Fatal("quarantined a key that was never recorded")
	}
	rs := reserve(t, c, "k")
	// In flight: the reservation is live, nothing published to distrust.
	if c.Quarantine("k") {
		t.Fatal("quarantined an in-flight recording")
	}
	p := fill(t, rs, 1<<10).Path()
	if !c.Quarantine("k") {
		t.Fatal("refused to quarantine a published recording")
	}
	if _, err := os.Stat(p); !os.IsNotExist(err) {
		t.Fatalf("quarantined file still on disk (stat err %v)", err)
	}
	if s := c.Stats(); s.Quarantined != 1 {
		t.Fatalf("stats = %+v, want 1 quarantined", s)
	}
	reserve(t, c, "k").Fail(errors.New("cleanup"))
}

// TestBudgetSharedAccounting replays two windowed traces off one tiny
// shared budget: the bucket must force both windows down under pressure,
// its high-water mark must be visible, and after both traces close every
// token must be back (the runtime lease-leak check). A resident trace
// charges its whole op stream from open to Close.
func TestBudgetSharedAccounting(t *testing.T) {
	m := machine.TwoSocket(4, 1<<16, 1<<12)
	const frameSize, window = 1 << 12, 1 << 13
	_, path := writeFramed(t, 1<<10, frameSize, window)
	b := NewBudget(1 << 13) // 8KB across both traces: constant pressure
	var sts []*Trace
	for i := 0; i < 2; i++ {
		st, err := OpenTrace(path, window, b)
		if err != nil {
			t.Fatal(err)
		}
		if st.ops != nil {
			t.Fatalf("window %d covers the %d-byte op stream", window, st.OpBytes())
		}
		sts = append(sts, st)
	}
	var fps []string
	for _, st := range sts {
		replayStream(t, st, m, "sb", 7)
		fps = append(fps, fingerprint(t, st))
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
		t.Fatalf("budget has %d bytes still charged after both traces closed", used)
	}

	res, err := OpenTrace(path, math.MaxInt64, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.ops == nil || b.Used() != res.OpBytes() || res.PeakResidentBytes() != res.OpBytes() {
		t.Fatalf("resident trace: resident=%v charged %d, peak %d, want the %d-byte op stream",
			res.ops != nil, b.Used(), res.PeakResidentBytes(), res.OpBytes())
	}
	replayStream(t, res, m, "sb", 7)
	if err := res.Close(); err != nil {
		t.Fatal(err)
	}
	if used := b.Used(); used != 0 {
		t.Fatalf("budget has %d bytes still charged after the resident trace closed", used)
	}
}
