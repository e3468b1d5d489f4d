package dagtrace

// StreamCache is the framed-trace sibling of Cache: a single-flight
// store of on-disk DGTS recordings shared by the cells of a full-scale
// grid. One recording depends only on the computation key (kernel,
// scale, seed, machine geometry — never the scheduler or bandwidth
// under test), so an S-scheduler × B-bandwidth grid resolves K kernel
// keys into K recordings instead of K·S·B: the first cell of a key
// records and frames the trace, every other cell blocks until the file
// lands and then replays it through its own bounded window.
//
// Unlike Cache (whole-arena traces, memory-first with optional spill),
// a StreamCache entry IS its file: nothing op-sized is ever resident
// here, and the published value is a path for OpenStream. Files are
// content-addressed by key hash, written atomically by WriteFramed, and
// revalidated (metadata checksum) when an existing file is adopted from
// a previous process — a corrupt or truncated file is evicted and
// counted, and its key falls back to re-recording, exactly like Cache's
// spill discipline.

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// StreamCache is a single-flight cache of framed trace files.
type StreamCache struct {
	dir       string
	frameSize int64 // 0 = DefaultFrameSize

	// writeFn frames a trace to disk; tests inject failing writers to
	// exercise the disk-full / I/O-error paths. nil means WriteFramed.
	writeFn func(t *Trace, path string, frameSize int64) error

	mu      sync.Mutex
	entries map[string]*streamEntry
	stats   Stats
}

// WriteError is the typed failure of framing a recording to the cache's
// directory — disk full, permissions, any I/O fault. Fill returns it and
// publishes it to the key's waiters, but the single-flight reservation
// itself is released: a later GetOrReserve re-records instead of
// inheriting a permanently wedged key.
type WriteError struct {
	Key  string // cache key of the recording
	Path string // content-addressed destination file
	Err  error  // underlying write failure
}

func (e *WriteError) Error() string {
	return fmt.Sprintf("dagtrace: stream cache fill %s (key %q): %v", e.Path, e.Key, e.Err)
}

func (e *WriteError) Unwrap() error { return e.Err }

type streamEntry struct {
	ready chan struct{} // closed by Fill/Fail
	done  bool          // set under StreamCache.mu before ready closes
	path  string
	err   error
}

// NewStreamCache returns a cache storing framed traces under dir,
// creating it as needed. frameSize 0 selects DefaultFrameSize for the
// recordings it writes.
func NewStreamCache(dir string, frameSize int64) (*StreamCache, error) {
	if dir == "" {
		return nil, fmt.Errorf("dagtrace: stream cache needs a directory (framed traces live on disk)")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dagtrace: stream cache: %w", err)
	}
	return &StreamCache{dir: dir, frameSize: frameSize, entries: make(map[string]*streamEntry)}, nil
}

// Dir returns the cache's spill directory.
func (c *StreamCache) Dir() string { return c.dir }

// GetOrReserve resolves key. Exactly one caller per key observes
// record=true and MUST follow up with Fill (on a successful recording)
// or Fail; every other caller blocks until then and receives the
// published path. shared reports that the recording was reused — from
// another cell this process or adopted from disk — rather than produced
// by this call; the grid's timing tables use it to avoid double-counting
// the amortized record stage.
func (c *StreamCache) GetOrReserve(key string) (path string, shared, record bool, err error) {
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
		return e.path, true, false, e.err
	}
	e := &streamEntry{ready: make(chan struct{})}
	c.entries[key] = e
	c.mu.Unlock()
	if p, ok := c.adoptDisk(key); ok {
		c.publish(key, p, nil)
		c.mu.Lock()
		c.stats.Hits++
		c.stats.DiskHits++
		c.mu.Unlock()
		return p, true, false, nil
	}
	c.mu.Lock()
	c.stats.Misses++
	c.mu.Unlock()
	return "", false, true, nil
}

// Fill frames the recorded trace to the key's content-addressed file and
// publishes the path, unblocking the key's waiters. A write failure
// (disk full, I/O error) comes back as a *WriteError: the error is
// published as this reservation's outcome (waiters see the same failure
// the recorder does — there is no file to fall back to), a half-written
// file is removed, and the reservation is released so the key stays
// recordable once the disk recovers.
func (c *StreamCache) Fill(key string, t *Trace) (string, error) {
	p := c.path(key)
	write := c.writeFn
	if write == nil {
		write = WriteFramed
	}
	if err := write(t, p, c.frameSize); err != nil {
		werr := &WriteError{Key: key, Path: p, Err: err}
		os.Remove(p) // WriteFramed is tmp+rename, but an injected writer may tear
		c.publish(key, "", werr)
		return "", werr
	}
	c.publish(key, p, nil)
	return p, nil
}

// Fail publishes a recording failure for a reservation made by
// GetOrReserve, unblocking its waiters with the error. Like a failed
// Fill, the reservation is released: the failure poisons exactly the
// callers who were already waiting on this attempt, and the next
// GetOrReserve starts a fresh recording.
func (c *StreamCache) Fail(key string, err error) {
	if err == nil {
		panic("dagtrace: StreamCache.Fail with nil error")
	}
	c.publish(key, "", err)
}

func (c *StreamCache) publish(key, path string, err error) {
	c.mu.Lock()
	e := c.entries[key]
	if e == nil || e.done {
		c.mu.Unlock()
		panic("dagtrace: stream-cache publish without matching GetOrReserve reservation")
	}
	e.path, e.err, e.done = path, err, true
	if err != nil {
		// Release the single-flight reservation on failure: current waiters
		// hold e and still observe the error, but the key must not stay
		// wedged — a retry (freed disk, transient fault) re-records.
		delete(c.entries, key)
	}
	c.mu.Unlock()
	close(e.ready)
}

// Quarantine evicts a key's published recording — cache entry and
// content-addressed file both — so the next GetOrReserve re-records from
// scratch. The grid supervisor calls it between attempts of a failing
// cell: a replay error may mean the shared recording itself is suspect,
// and retrying against the same bytes would fail the same way. A key
// whose recording is still in flight is left alone (there is nothing
// cached to distrust yet) and Quarantine reports false; evictions are
// counted in Stats.Quarantined.
func (c *StreamCache) Quarantine(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[key]
	if e != nil && !e.done {
		return false
	}
	delete(c.entries, key)
	removed := os.Remove(c.path(key)) == nil
	if e != nil || removed {
		c.stats.Quarantined++
		return true
	}
	return false
}

// Stats returns a snapshot of the cache counters.
func (c *StreamCache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// path maps a key to its file; keys embed machine geometry and profile
// scales and are not filename-safe, so hash them.
func (c *StreamCache) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(c.dir, hex.EncodeToString(sum[:16])+".dgts")
}

// adoptDisk checks for a framed file left by a previous process and
// validates its metadata before adopting it. A file that fails to parse
// (truncated write, bit rot) is evicted so it cannot fail again,
// counted in Stats.Corrupt, and the key falls back to re-recording. A
// file in an older format version is evicted and re-recorded the same
// way but is not counted as corrupt. Frame-body corruption deeper than
// the metadata checksum is caught at replay time by the window's
// per-frame checksums.
func (c *StreamCache) adoptDisk(key string) (string, bool) {
	p := c.path(key)
	st, err := OpenStream(p, 0)
	var verr *VersionError
	if errors.As(err, &verr) {
		fmt.Fprintf(os.Stderr, "dagtrace: evicting framed trace %s (key %q) for re-recording: %v\n", p, key, err)
		os.Remove(p)
		return "", false
	}
	if err != nil {
		if !os.IsNotExist(err) {
			fmt.Fprintf(os.Stderr, "dagtrace: evicting corrupt framed trace %s (key %q): %v\n", p, key, err)
			os.Remove(p)
			c.mu.Lock()
			c.stats.Corrupt++
			c.mu.Unlock()
		}
		return "", false
	}
	st.Close()
	return p, true
}
