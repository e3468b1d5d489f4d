package dagtrace

// Cache is the single-flight store of recordings shared by the cells of
// an experiment grid. One recording depends only on the computation key
// (kernel, scale, seed, machine geometry — never the scheduler or
// bandwidth under test), so an S-scheduler × B-bandwidth grid resolves K
// kernel keys into K recordings instead of K·S·B: the first cell of a key
// records straight into the key's trace file, every other cell blocks
// until the recording lands and then replays it.
//
// With a directory, recordings are content-addressed files written
// atomically (tmp + rename); a later process adopts one after checking
// its metadata, and a replay that finds a damaged frame evicts it with
// Reject so the key re-records. Without a directory, the cache is
// memory-only: recordings are trace files held in memory, for the figure
// grids of a single process.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// Stats reports cache effectiveness. A Hit is a resolution that replays a
// recording (from this process or adopted from disk) instead of executing
// kernel closures; a Miss is a resolution that had to record; a Fallback
// is a resolution whose recording failed or was rejected
// (ErrUnsupported), which runs live instead. Corrupt counts trace files
// that failed to validate (truncated or bit-rotted) and were evicted from
// disk — at adoption, or by Reject once a replay read a damaged frame
// (which takes back the Hit that handed the file out); each also counts
// as a Miss, since its cell falls back to re-recording.
type Stats struct {
	Hits      int64
	DiskHits  int64
	Misses    int64
	Fallbacks int64
	Corrupt   int64
	// Quarantined counts recordings evicted on suspicion by Quarantine (a
	// failing grid cell distrusting its shared trace before a retry), as
	// opposed to Corrupt's checksum failures.
	Quarantined int64
}

// HitRate is hits over all resolutions, in [0,1]; 0 when nothing ran.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses + s.Fallbacks
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Cache is a single-flight cache of recordings.
type Cache struct {
	dir       string // "" = memory-only
	frameSize int64  // 0 = DefaultFrameSize

	// create opens a reservation's temporary file, returning it and its
	// name; tests inject failing writers to exercise the disk-full /
	// I/O-error paths.
	create func(path string) (io.WriteCloser, string, error)

	mu      sync.Mutex
	entries map[string]*entry
	stats   Stats
}

type entry struct {
	ready chan struct{} // closed when the reservation publishes
	done  bool          // set under Cache.mu before ready closes
	rec   *Recording
	err   error
}

// WriteError is the typed failure of writing a recording to the cache's
// directory — disk full, permissions, any I/O fault. The reservation's
// waiters see it too, but the single-flight reservation itself is
// released: a later GetOrReserve re-records instead of inheriting a
// permanently wedged key.
type WriteError struct {
	Key  string // cache key of the recording
	Path string // content-addressed destination file
	Err  error  // underlying write failure
}

func (e *WriteError) Error() string {
	return fmt.Sprintf("dagtrace: trace cache fill %s (key %q): %v", e.Path, e.Key, e.Err)
}

func (e *WriteError) Unwrap() error { return e.Err }

// NewCache returns a cache storing recordings as files under dir,
// created here (an error if it cannot be), or a memory-only cache when
// dir is empty. frameSize 0 selects DefaultFrameSize.
func NewCache(dir string, frameSize int64) (*Cache, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("dagtrace: trace cache: %w", err)
		}
	}
	return &Cache{dir: dir, frameSize: frameSize, create: createTemp, entries: make(map[string]*entry)}, nil
}

// createTemp opens a temporary file of its own next to path. Names are
// unique because two recordings of one key can be in flight at once — a
// watchdog-abandoned attempt still running while a resumed process
// records the key again — and each must rename only its own bytes.
func createTemp(path string) (io.WriteCloser, string, error) {
	removeStaleTemps(path)
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return nil, "", err
	}
	return f, f.Name(), nil
}

// processStart bounds which temporary files may still be written: one
// last modified before this process started belongs to no live attempt.
//
//schedlint:ignore nondeterminism host-side file age for temp-file cleanup; never reaches simulation state
var processStart = time.Now()

// removeStaleTemps deletes path's temporary files that no attempt of this
// process can own — a recording killed mid-write (a crash before a
// resume) leaves one that is otherwise never removed. A file modified
// since this process started may belong to a live attempt and stays.
func removeStaleTemps(path string) {
	dir, base := filepath.Split(path)
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, ent := range ents {
		name := ent.Name()
		if !strings.HasPrefix(name, base+".") || !strings.HasSuffix(name, ".tmp") {
			continue
		}
		if fi, err := ent.Info(); err == nil && fi.ModTime().Before(processStart) {
			os.Remove(filepath.Join(dir, name))
		}
	}
}

// Dir returns the cache's directory; "" for a memory-only cache.
func (c *Cache) Dir() string { return c.dir }

// Recording is a finished trace file in the cache: on disk when the cache
// has a directory, in memory otherwise.
type Recording struct {
	path    string
	data    bytesFile
	adopted bool // adopted from a previous process's file

	once     sync.Once
	resident *Trace
	err      error
}

// Path returns the recording's file, or "" for an in-memory recording.
func (rc *Recording) Path() string { return rc.path }

// Open opens the recording for one replay stream; see OpenTrace.
func (rc *Recording) Open(windowBytes int64, budget *Budget) (*Trace, error) {
	if rc.path != "" {
		return OpenTrace(rc.path, windowBytes, budget)
	}
	return NewTrace(rc.data, int64(len(rc.data)), windowBytes, budget)
}

// Resident returns the recording opened once, resident, and shared by
// every caller: a resident trace has no window state, so any number of
// concurrent replays may run off it. In memory it borrows the recording.
func (rc *Recording) Resident() (*Trace, error) {
	rc.once.Do(func() { rc.resident, rc.err = rc.Open(math.MaxInt64, nil) })
	return rc.resident, rc.err
}

// Reservation is the right — and the duty — to record one key: exactly
// one caller per key receives it from GetOrReserve and must end it with
// Commit or Fail, which unblocks the key's waiters.
type Reservation struct {
	c    *Cache
	key  string
	path string         // destination file ("" when memory-only)
	tmp  string         // the temporary file renamed to path at Commit
	file io.WriteCloser // the temporary file, or the in-memory recording
	out  errWriter      // file, remembering its first write error
	rec  *Recorder
}

// errWriter remembers the first write error, so Commit can tell a failed
// write from a rejected recording.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return 0, e.err
	}
	n, err := e.w.Write(p)
	e.err = err
	return n, err
}

// memFile is the file of a memory-only reservation.
type memFile struct{ bytes.Buffer }

func (*memFile) Close() error { return nil }

// Recorder returns the recorder writing the reservation's file.
func (rs *Reservation) Recorder() *Recorder { return rs.rec }

// Commit finishes the recording and publishes it. A write failure comes
// back as a *WriteError, a recording the trace model rejects as its
// Finish error (ErrUnsupported); either way the key's waiters observe
// the same error and nothing is published.
func (rs *Reservation) Commit() (*Recording, error) {
	err := rs.rec.Finish()
	if cerr := rs.file.Close(); rs.out.err == nil {
		rs.out.err = cerr
	}
	rc := &Recording{path: rs.path}
	if m, ok := rs.file.(*memFile); ok {
		rc.data = m.Bytes()
	} else if err == nil && rs.out.err == nil {
		rs.out.err = os.Rename(rs.tmp, rs.path)
	}
	if rs.out.err != nil {
		err = &WriteError{Key: rs.key, Path: rs.path, Err: rs.out.err}
	}
	if err != nil {
		rc = nil
		if rs.tmp != "" {
			os.Remove(rs.tmp)
		}
	}
	rs.c.publish(rs.key, rc, err)
	return rc, err
}

// Fail abandons the recording — the live run itself failed — and
// publishes err to the key's waiters.
func (rs *Reservation) Fail(err error) {
	if err == nil {
		panic("dagtrace: Reservation.Fail with nil error")
	}
	rs.file.Close()
	if rs.tmp != "" {
		os.Remove(rs.tmp)
	}
	rs.c.publish(rs.key, nil, err)
}

// GetOrReserve resolves key. Exactly one caller per key receives a
// Reservation and must record; every other caller blocks until that
// recording is published and receives it — recorded by this process or
// adopted from a previous one's file — or its error: ErrUnsupported (run
// live) or the recording's failure.
func (c *Cache) GetOrReserve(key string) (*Recording, *Reservation, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.mu.Unlock()
		<-e.ready
		c.mu.Lock()
		if e.err == nil {
			c.stats.Hits++
		} else {
			c.stats.Fallbacks++
		}
		c.mu.Unlock()
		return e.rec, nil, e.err
	}
	e := &entry{ready: make(chan struct{})}
	c.entries[key] = e
	c.mu.Unlock()
	if rc, ok := c.adoptDisk(key); ok {
		c.publish(key, rc, nil)
		c.mu.Lock()
		c.stats.Hits++
		c.stats.DiskHits++
		c.mu.Unlock()
		return rc, nil, nil
	}
	c.mu.Lock()
	c.stats.Misses++
	c.mu.Unlock()
	rs := &Reservation{c: c, key: key, file: new(memFile)}
	if c.dir != "" {
		rs.path = c.path(key)
		f, tmp, err := c.create(rs.path)
		if err != nil {
			werr := &WriteError{Key: key, Path: rs.path, Err: err}
			c.publish(key, nil, werr)
			return nil, nil, werr
		}
		rs.file, rs.tmp = f, tmp
	}
	rs.out.w = rs.file
	rs.rec = NewRecorder(&rs.out, c.frameSize)
	return nil, rs, nil
}

// publish ends the reservation of key, unblocking its waiters. A
// recording the trace model rejects (ErrUnsupported) stays published —
// every later caller runs live without retrying — but any other failure
// releases the single-flight reservation: current waiters hold the entry
// and still observe the error, while the next GetOrReserve (freed disk,
// transient fault) records afresh.
func (c *Cache) publish(key string, rc *Recording, err error) {
	c.mu.Lock()
	e := c.entries[key]
	if e == nil || e.done {
		c.mu.Unlock()
		panic("dagtrace: cache publish without matching GetOrReserve reservation")
	}
	e.rec, e.err, e.done = rc, err, true
	if err != nil && !errors.Is(err, ErrUnsupported) {
		delete(c.entries, key)
	}
	c.mu.Unlock()
	close(e.ready)
}

// Drop forgets the published recording of key once it is filled,
// bounding grid memory to the recordings still in use; its file (if any)
// survives and re-seeds a later GetOrReserve. Dropping an unfilled or
// absent key is a no-op.
func (c *Cache) Drop(key string) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok && e.done {
		delete(c.entries, key)
	}
	c.mu.Unlock()
}

// Quarantine evicts a key's published recording — cache entry and file
// both — so the next GetOrReserve re-records from scratch. The grid
// supervisor calls it between attempts of a failing cell: a replay error
// may mean the shared recording itself is suspect, and retrying against
// the same bytes would fail the same way. A key whose recording is still
// in flight is left alone (there is nothing cached to distrust yet) and
// Quarantine reports false; evictions are counted in Stats.Quarantined.
func (c *Cache) Quarantine(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.evict(key, nil) {
		return false
	}
	c.stats.Quarantined++
	return true
}

// Reject evicts rc, the recording key resolved to, after a replay found
// it corrupt (ErrCorrupt): adoption checks only a file's metadata, so a
// damaged frame surfaces when a replay reads it. The cache entry and the
// file go, the file counts in Stats.Corrupt, and the next GetOrReserve
// re-records. rc must be a GetOrReserve hit, which no longer counts.
// When key already resolves to another recording — a concurrent replay
// rejected rc first and the key re-recorded — Reject leaves it alone.
func (c *Cache) Reject(key string, rc *Recording) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Hits--
	if c.evict(key, rc) {
		if rc.adopted {
			c.stats.DiskHits--
		}
		fmt.Fprintf(os.Stderr, "dagtrace: evicted corrupt trace (key %q) for re-recording\n", key)
		c.stats.Corrupt++
	}
}

// evict deletes key's published entry, provided it holds rc when rc is
// non-nil, and the key's file; it reports whether either existed.
// Callers hold mu.
func (c *Cache) evict(key string, rc *Recording) bool {
	e := c.entries[key]
	if e != nil && (!e.done || rc != nil && e.rec != rc) {
		return false
	}
	delete(c.entries, key)
	removed := c.dir != "" && os.Remove(c.path(key)) == nil
	return e != nil || removed
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// path maps a key to its file; keys embed machine geometry and profile
// scales and are not filename-safe, so hash them.
func (c *Cache) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(c.dir, hex.EncodeToString(sum[:16])+".dgts")
}

// adoptDisk checks for a trace file left by a previous process and
// validates its metadata — a window of one frame reads no frame at open —
// before adopting it. A file that fails (truncated write, bit rot) is
// evicted and counted in Stats.Corrupt, and the key re-records; a file in
// an older format version likewise, without counting as corrupt. Frame
// corruption is caught when a replay verifies the frame.
func (c *Cache) adoptDisk(key string) (*Recording, bool) {
	if c.dir == "" {
		return nil, false
	}
	p := c.path(key)
	t, err := OpenTrace(p, 1, nil)
	if os.IsNotExist(err) {
		return nil, false
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "dagtrace: evicting framed trace %s (key %q) for re-recording: %v\n", p, key, err)
		os.Remove(p)
		if !errors.As(err, new(*VersionError)) {
			c.mu.Lock()
			c.stats.Corrupt++
			c.mu.Unlock()
		}
		return nil, false
	}
	t.Close()
	return &Recording{path: p, adopted: true}, true
}
