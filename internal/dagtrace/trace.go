package dagtrace

// The trace file format (v4, "DGTS") and the Trace that replays it.
//
// The Recorder writes a trace in one pass while the live run executes:
// each strand's op script is appended to fixed-size frames as the strand
// finishes, every frame independently checksummed, and the metadata —
// node table, child lists, frame checksums, counts — follows as a trailer
// once the run is over. The recorder holds one partial frame and the
// scripts of strands still running, never the op stream.
//
// Layout (all integers little-endian; varints as in internal/opcode):
//
//	header:  magic "DGTS" | version u32
//	frames:  opBytes raw op bytes; frame f holds op bytes
//	         [f*frameSize, min((f+1)*frameSize, opBytes))
//	meta:    nodes: per node taskSize/strandSize (zigzag uvarint), cont+1,
//	         child count, op offset, op length (uvarint)
//	         childIdx: uvarint each
//	         frame table: frameSum u64 per frame
//	footer:  root u32 | taskCount u64 | strandCount u64 | accessOps u64
//	         workOps u64 | nodeCount u64 | childCount u64 | opBytes u64
//	         frameSize u64 | frameCount u64 | metaLen u64
//	         frameSum u64 over meta and the footer fields before it
//
// Nodes are numbered in spawn order (the partitioner breaks ties on node
// index, so the numbering is part of every sharded result), but their
// scripts are placed in strand-completion order: each node carries an
// explicit op offset. The canonical Fingerprint hashes scripts in node
// order, so it does not depend on placement.
//
// frameSum(b) is CRC-32C(b)<<32 | CRC-32/IEEE(b). Files of other format
// versions are rejected by version, and caches re-record them. Every
// frame is verified before any of its bytes reach the simulator (see
// NewTrace).

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"repro/internal/job"
	"repro/internal/mem"
	"repro/internal/opcode"
	"repro/internal/sim"
)

const (
	traceMagic   = "DGTS"
	traceVersion = 4

	// DefaultFrameSize is the frame granularity a Recorder uses when the
	// caller passes 0: large enough to amortize ReadAt and checksum cost,
	// small enough that a 16-frame window stays well under typical L3.
	DefaultFrameSize = 1 << 20

	// DefaultWindowBytes is the replay window NewTrace applies when the
	// caller passes 0.
	DefaultWindowBytes = 16 << 20

	// headerLen is the magic and version; footerLen the fixed-size footer:
	// root(4) + 10 u64 fields + the metadata checksum.
	headerLen = 4 + 4
	footerLen = 4 + 10*8 + 8
)

// castagnoli returns the CRC-32C table; hash/crc32 serves both it and the
// IEEE polynomial with the CPU's CRC instructions where available. It is
// built on first use rather than at package init: setting up the
// instruction-based CRC-32C costs a fraction of a millisecond, which every
// process would otherwise pay at start-up whether it reads traces or not.
var castagnoli = sync.OnceValue(func() *crc32.Table { return crc32.MakeTable(crc32.Castagnoli) })

// frameSum is the checksum of every frame and of the metadata block: the
// CRC-32C and CRC-32/IEEE of b side by side. The two generator
// polynomials are coprime, so the pair detects exactly the errors one
// 64-bit CRC with their product as generator detects: every burst of up
// to 64 bits, every odd number of flipped bits (the CRC-32C generator has
// the factor x+1), and all but 2^-64 of random corruptions — at hardware
// speed rather than a byte at a time.
func frameSum(b []byte) uint64 {
	return uint64(crc32.Checksum(b, castagnoli()))<<32 | uint64(crc32.ChecksumIEEE(b))
}

// VersionError reports a trace file written in a format version this
// package does not read. Caches treat it as stale rather than corrupt:
// the file is intact, just older, and re-recording replaces it.
type VersionError struct {
	Got, Want uint32
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("dagtrace: stale framed-trace format v%d (want v%d)", e.Got, e.Want)
}

// Trace is a recorded execution opened for replay. It is safe for
// concurrent replays: a resident trace is immutable after opening, and a
// windowed one guards its frame window with a mutex.
type Trace struct {
	// TaskCount and StrandCount are the live run's totals; a replay must
	// reproduce them exactly (see CheckResult).
	TaskCount   uint64
	StrandCount uint64
	// AccessOps and WorkOps count the recorded memory accesses and compute
	// charges across all strands.
	AccessOps int64
	WorkOps   int64

	nodes    []node
	childIdx []int32
	root     int32
	jobs     []replayJob
	kids     []job.Job // prebuilt child jobs, parallel to childIdx

	// ops is the whole op stream of a resident trace, from which Script
	// hands out subslices with no lease and no lock; nil when windowed.
	ops []byte

	r         io.ReaderAt // the trace file
	closer    io.Closer   // non-nil when OpenTrace owns the file handle
	frameSize int64
	frameSums []uint64
	opBytes   int64

	win window
}

// OpenTrace opens a trace file; see NewTrace. A resident trace reads the
// file completely and closes it before returning; a windowed one holds it
// until Close.
func OpenTrace(path string, windowBytes int64, budget *Budget) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	t, err := NewTrace(f, fi.Size(), windowBytes, budget)
	if err != nil || t.ops != nil {
		f.Close() // a resident trace holds every byte it needs
		return t, err
	}
	t.closer = f
	return t, nil
}

// NewTrace opens a trace file of the given size held by r, reading and
// verifying its header, footer and metadata. When windowBytes (0 selects
// DefaultWindowBytes) is at least the op stream's size the trace is
// resident: every frame is read and verified now, into one buffer, and
// the op bytes are charged to budget until Close. Otherwise frames are
// read and verified on demand through a window of windowBytes (clamped up
// to one frame), whose cached and leased bytes are charged to budget. A
// nil budget charges nothing.
func NewTrace(r io.ReaderAt, size, windowBytes int64, budget *Budget) (*Trace, error) {
	if size < headerLen+footerLen {
		return nil, fmt.Errorf("dagtrace: framed trace truncated (%d bytes)", size)
	}
	var hdr [headerLen]byte
	if _, err := r.ReadAt(hdr[:], 0); err != nil {
		return nil, fmt.Errorf("dagtrace: framed trace header: %w", err)
	}
	if string(hdr[:4]) != traceMagic {
		return nil, fmt.Errorf("dagtrace: bad framed-trace magic")
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != traceVersion {
		return nil, &VersionError{Got: v, Want: traceVersion}
	}
	var foot [footerLen]byte
	if _, err := r.ReadAt(foot[:], size-footerLen); err != nil {
		return nil, fmt.Errorf("dagtrace: framed trace footer: %w", err)
	}
	metaLen := binary.LittleEndian.Uint64(foot[footerLen-16:])
	if metaLen > uint64(size-headerLen-footerLen) || metaLen > 1<<31 {
		return nil, fmt.Errorf("dagtrace: implausible framed-trace metadata length %d", metaLen)
	}
	tail := make([]byte, metaLen+footerLen)
	if _, err := r.ReadAt(tail, size-int64(len(tail))); err != nil {
		return nil, fmt.Errorf("dagtrace: framed trace metadata: %w", err)
	}
	body, sum := tail[:len(tail)-8], binary.LittleEndian.Uint64(tail[len(tail)-8:])
	if frameSum(body) != sum {
		return nil, fmt.Errorf("dagtrace: framed-trace metadata checksum mismatch: %w", ErrCorrupt)
	}
	ft := body[metaLen:]
	u64 := func(i int) uint64 { return binary.LittleEndian.Uint64(ft[4+8*i:]) }
	t := &Trace{
		root:        int32(binary.LittleEndian.Uint32(ft)),
		TaskCount:   u64(0),
		StrandCount: u64(1),
		AccessOps:   int64(u64(2)),
		WorkOps:     int64(u64(3)),
		r:           r,
	}
	nodeN, childN, opN := u64(4), u64(5), u64(6)
	frameSize, frameN := int64(u64(7)), u64(8)
	const maxCount = 1 << 31
	if nodeN > maxCount || childN > maxCount || opN > uint64(size) {
		return nil, fmt.Errorf("dagtrace: implausible framed-trace header (%d nodes, %d children, %d op bytes)", nodeN, childN, opN)
	}
	if frameSize <= 0 || frameN != uint64((int64(opN)+frameSize-1)/frameSize) {
		return nil, fmt.Errorf("dagtrace: frame count %d disagrees with %d op bytes at frame size %d", frameN, opN, frameSize)
	}
	if want := headerLen + int64(opN) + int64(metaLen) + footerLen; want != size {
		return nil, fmt.Errorf("dagtrace: framed trace is %d bytes, its footer describes %d", size, want)
	}
	// Every node costs at least six varint bytes, every child index at
	// least one, every frame checksum exactly eight — so the claimed counts
	// must fit inside the metadata block. This bounds every allocation
	// below by the actual input size, whatever the footer claims.
	if 6*nodeN+childN+8*frameN > metaLen {
		return nil, fmt.Errorf("dagtrace: framed-trace counts exceed metadata block")
	}
	if t.root < 0 || uint64(t.root) >= nodeN {
		return nil, fmt.Errorf("dagtrace: root %d out of range", t.root)
	}
	t.frameSize = frameSize
	t.opBytes = int64(opN)

	rest := body[:metaLen]
	next := func() (uint64, error) {
		v, k := binary.Uvarint(rest)
		if k <= 0 {
			return 0, fmt.Errorf("dagtrace: framed trace truncated mid-varint")
		}
		rest = rest[k:]
		return v, nil
	}
	t.nodes = make([]node, nodeN)
	var childOff int32
	var opTotal uint64
	for i := range t.nodes {
		n := &t.nodes[i]
		var vals [6]uint64
		for j := range vals {
			v, err := next()
			if err != nil {
				return nil, err
			}
			vals[j] = v
		}
		n.taskSize = opcode.Unzigzag(vals[0])
		n.strandSize = opcode.Unzigzag(vals[1])
		if vals[2] > nodeN {
			return nil, fmt.Errorf("dagtrace: node %d continuation %d out of range", i, vals[2]-1)
		}
		n.cont = int32(vals[2]) - 1
		off, span := vals[4], vals[5]
		opTotal += span // cannot wrap unless span > opN, rejected below
		if vals[3] > childN || uint64(childOff)+vals[3] > childN || span > opN || off > opN-span || opTotal > opN {
			return nil, fmt.Errorf("dagtrace: node %d spans exceed trace totals", i)
		}
		n.childOff = childOff
		childOff += int32(vals[3])
		n.childEnd = childOff
		n.opOff, n.opEnd = int64(off), int64(off+span)
	}
	if uint64(childOff) != childN || opTotal != opN {
		return nil, fmt.Errorf("dagtrace: node totals disagree with framed footer (%d/%d children, %d/%d op bytes)",
			childOff, childN, opTotal, opN)
	}
	t.childIdx = make([]int32, childN)
	for i := range t.childIdx {
		v, err := next()
		if err != nil {
			return nil, err
		}
		if v >= nodeN {
			return nil, fmt.Errorf("dagtrace: child index %d out of range", v)
		}
		t.childIdx[i] = int32(v)
	}
	if uint64(len(rest)) != frameN*8 {
		return nil, fmt.Errorf("dagtrace: frame table holds %d bytes, want %d", len(rest), frameN*8)
	}
	t.frameSums = make([]uint64, frameN)
	for i := range t.frameSums {
		t.frameSums[i] = binary.LittleEndian.Uint64(rest[i*8:])
	}

	t.jobs = make([]replayJob, len(t.nodes))
	for i := range t.jobs {
		t.jobs[i] = replayJob{t: t, n: int32(i)}
	}
	t.kids = make([]job.Job, len(t.childIdx))
	for i, ci := range t.childIdx {
		t.kids[i] = &t.jobs[ci]
	}
	if windowBytes <= 0 {
		windowBytes = DefaultWindowBytes
	}
	if windowBytes < t.opBytes {
		// No frame holds more than opBytes, however large the nominal
		// frame size; the window sizes its frame buffers at that bound.
		t.win.init(windowBytes, min(frameSize, t.opBytes), int64(frameN), budget)
		return t, nil
	}
	// Resident: read and verify every frame once, into one buffer — for
	// an in-memory file, the file's own bytes (each frame reads onto
	// itself).
	if b, ok := r.(bytesFile); ok {
		t.ops = b[headerLen : headerLen+t.opBytes : headerLen+t.opBytes]
	} else {
		t.ops = make([]byte, t.opBytes)
	}
	for f := range t.frameSums {
		if _, err := t.readFrame(int64(f), t.ops[int64(f)*t.frameSize:]); err != nil {
			return nil, err
		}
	}
	t.win.shared = budget
	t.win.residentBytes, t.win.peak = t.opBytes, t.opBytes
	budget.charge(t.opBytes)
	return t, nil
}

// bytesFile is a trace file held in memory. A resident trace opened from
// one uses its op region in place.
type bytesFile []byte

func (b bytesFile) ReadAt(p []byte, off int64) (int, error) { return bytes.NewReader(b).ReadAt(p, off) }

// Close settles the trace's memory accounting — crediting a shared Budget
// with the resident op stream or the window's cached frames, so the
// tokens of a finished grid cell immediately fund its neighbours — and
// releases the file handle held by a windowed OpenTrace.
func (t *Trace) Close() error {
	t.win.drop()
	if t.closer != nil {
		return t.closer.Close()
	}
	return nil
}

// Root returns the job that replays the trace: running it under sim.Run
// re-executes the recorded computation — identical spawn tree, identical
// per-strand address streams — under whatever machine, scheduler, cost
// model and seed the new configuration supplies.
func (t *Trace) Root() job.Job { return &t.jobs[t.root] }

// OpBytes returns the total size of the op stream.
func (t *Trace) OpBytes() int64 { return t.opBytes }

// PeakResidentBytes reports the high-water mark of decoder-resident op
// bytes: the whole op stream of a resident trace; for a windowed one,
// cached frames plus buffers leased to in-flight strands. The
// bounded-memory contract of windowed replay is exactly that this stays
// O(window + concurrent strands × strand script size), independent of
// OpBytes.
func (t *Trace) PeakResidentBytes() int64 {
	t.win.mu.Lock()
	defer t.win.mu.Unlock()
	return t.win.peak
}

// CheckResult verifies that a replay run executed the full recorded
// computation: task and strand counts must match the live run's, and the
// number of simulated accesses (every access hits or misses the innermost
// cache level exactly once) must equal the recorded op count. Replayed
// cells assert this instead of Kernel.Verify — the trace carries no data
// values to verify, only the access structure, and this pins exactly that.
// It also surfaces any frame I/O or corruption error the window hit while
// the replay ran (a failed fetch replays an empty script, which the op
// count then rejects — the error here names the root cause), and any
// script lease the replay failed to return.
func (t *Trace) CheckResult(res *sim.Result) error {
	if err := t.Err(); err != nil {
		return err
	}
	if leaked := t.win.outstanding(); leaked != 0 {
		return fmt.Errorf("dagtrace: replay finished with %d op bytes still leased from the window (script lease leak)", leaked)
	}
	if res.Tasks != t.TaskCount || res.Strands != t.StrandCount {
		return fmt.Errorf("dagtrace: replay executed %d tasks / %d strands, trace recorded %d / %d",
			res.Tasks, res.Strands, t.TaskCount, t.StrandCount)
	}
	if res.Hier != nil {
		inner := res.Machine.NumLevels() - 1
		if got := res.Hier.HitsAt(inner) + res.Hier.MissesAt(inner); got != t.AccessOps {
			return fmt.Errorf("dagtrace: replay performed %d accesses, trace recorded %d", got, t.AccessOps)
		}
	}
	return nil
}

// Err returns the first frame I/O or corruption error any replay through
// the window hit, or nil. CheckResult reports it too; Err serves replays
// that end in something other than one sim.Result, like the sharded one.
func (t *Trace) Err() error {
	t.win.mu.Lock()
	defer t.win.mu.Unlock()
	return t.win.err
}

// Fingerprint returns a hex SHA-256 over the trace's canonical content —
// counts, node table, child lists and every node's script in node order,
// excluding the cache key and where the scripts sit in the file.
// Recording a replay run must reproduce the fingerprint of the original
// recording bit for bit; the golden equivalence suite asserts this.
func (t *Trace) Fingerprint() (string, error) {
	h := sha256.New()
	var buf [8 * 4]byte
	binary.LittleEndian.PutUint64(buf[0:], t.TaskCount)
	binary.LittleEndian.PutUint64(buf[8:], t.StrandCount)
	binary.LittleEndian.PutUint64(buf[16:], uint64(t.AccessOps))
	binary.LittleEndian.PutUint64(buf[24:], uint64(t.root))
	h.Write(buf[:])
	for i := range t.nodes {
		n := &t.nodes[i]
		binary.LittleEndian.PutUint64(buf[0:], uint64(n.taskSize))
		binary.LittleEndian.PutUint64(buf[8:], uint64(n.strandSize))
		binary.LittleEndian.PutUint64(buf[16:], uint64(n.cont))
		binary.LittleEndian.PutUint64(buf[24:], uint64(int64(n.childEnd)-int64(n.childOff)))
		h.Write(buf[:])
	}
	for _, ci := range t.childIdx {
		binary.LittleEndian.PutUint32(buf[:4], uint32(ci))
		h.Write(buf[:4])
	}
	for i := range t.nodes {
		ops, lo, hi := t.script(&t.nodes[i])
		h.Write(ops[lo:hi])
		t.release(ops)
	}
	if err := t.Err(); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// readFrame reads and verifies frame f into buf (which must hold
// min(frameSize, opBytes) bytes), returning the valid prefix.
func (t *Trace) readFrame(f int64, buf []byte) ([]byte, error) {
	lo := f * t.frameSize
	hi := min(lo+t.frameSize, t.opBytes)
	data := buf[:hi-lo]
	if _, err := t.r.ReadAt(data, headerLen+lo); err != nil {
		return nil, fmt.Errorf("dagtrace: frame %d read: %w", f, err)
	}
	if frameSum(data) != t.frameSums[f] {
		return nil, fmt.Errorf("dagtrace: frame %d checksum mismatch: %w", f, ErrCorrupt)
	}
	return data, nil
}

// --- the frame window ------------------------------------------------------

// window is the bounded decode cache of a windowed Trace: at most budget
// bytes of verified frames stay resident, evicted least-recently-used;
// strand scripts are copied out into leased buffers recycled through a
// free list. All state is guarded by mu — replays from concurrent
// simulations (grid cells, shards) share one window.
type window struct {
	mu        sync.Mutex
	budget    int64
	frameSize int64
	// shared, when non-nil, is the grid-wide token bucket this window
	// charges every resident or leased byte against; an overdrawn bucket
	// forces eviction down to the one-frame minimum (see Budget).
	shared *Budget

	// frames[f] is the cached content of frame f (nil when absent);
	// lastUse[f] its LRU stamp; resident lists the cached frame indices
	// (kept sorted by insertion; eviction scans it — the window holds a
	// handful of frames, so a scan beats heap bookkeeping).
	frames   [][]byte
	lastUse  []uint64
	resident []int64
	clock    uint64

	residentBytes int64
	leasedBytes   int64
	peak          int64

	// free recycles lease buffers; spare recycles evicted frame buffers.
	free  [][]byte
	spare [][]byte

	err error // first fetch failure, surfaced by CheckResult
}

func (w *window) init(budget, frameSize, frameN int64, shared *Budget) {
	if budget <= 0 {
		budget = DefaultWindowBytes
	}
	if budget < frameSize {
		budget = frameSize
	}
	w.budget = budget
	w.frameSize = frameSize
	w.shared = shared
	w.frames = make([][]byte, frameN)
	w.lastUse = make([]uint64, frameN)
}

// drop evicts every cached frame and credits the shared bucket with the
// window's whole residue; called by Trace.Close so a finished
// replay's tokens return to the grid. Recycled lease and frame buffers
// are dropped too — a closed stream leases nothing again.
//
//schedlint:lease release
func (w *window) drop() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.shared.credit(w.residentBytes)
	w.residentBytes = 0
	for _, f := range w.resident {
		w.frames[f] = nil
	}
	w.resident = w.resident[:0]
	w.free, w.spare = nil, nil
}

// outstanding returns the bytes currently leased to in-flight strands.
// After a replay completes it must be zero — every Script lease must
// have reached ReleaseScript — and CheckResult enforces exactly that,
// the runtime counterpart of the static leaseleak analysis.
func (w *window) outstanding() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.leasedBytes
}

// emptyScript is the non-nil zero-length script of op-less strands: it
// keeps the engine's inline path armed (which keys on a non-nil script)
// without a lease.
var emptyScript = []byte{}

// script returns node n's op bytes as ops[lo:hi]: a subslice of a
// resident trace's op stream (nothing to return later), or a buffer
// leased from the window, which must go back through release.
//
//schedlint:lease acquire
func (t *Trace) script(n *node) (ops []byte, lo, hi int64) {
	if t.ops != nil {
		return t.ops, n.opOff, n.opEnd
	}
	buf := t.fetch(n.opOff, n.opEnd)
	return buf, 0, int64(len(buf))
}

// fetch copies op bytes [off, end) into a leased buffer. On I/O failure or
// frame corruption it records the error and returns an empty script — the
// replay then under-executes and CheckResult reports the recorded error.
//
//schedlint:lease acquire
func (t *Trace) fetch(off, end int64) []byte {
	if end <= off {
		return emptyScript
	}
	w := &t.win
	w.mu.Lock()
	defer w.mu.Unlock()
	span := end - off
	buf := w.lease(span)
	out := buf[:0]
	for off < end {
		f := off / t.frameSize
		data, err := w.frame(t, f)
		if err != nil {
			if w.err == nil {
				w.err = err
			}
			w.unlease(buf)
			return emptyScript
		}
		lo := off - f*t.frameSize
		hi := int64(len(data))
		if rem := end - f*t.frameSize; rem < hi {
			hi = rem
		}
		out = append(out, data[lo:hi]...)
		off += hi - lo
	}
	if int64(w.residentBytes+w.leasedBytes) > w.peak {
		w.peak = w.residentBytes + w.leasedBytes
	}
	return out[:span]
}

// release returns a script obtained from script or fetch: leased buffers
// go back to the lease pool; resident subslices and emptyScript were
// never leased.
//
//schedlint:lease release
func (t *Trace) release(buf []byte) {
	if t.ops != nil || cap(buf) == 0 {
		return
	}
	w := &t.win
	w.mu.Lock()
	w.unlease(buf)
	w.mu.Unlock()
}

// lease returns a buffer with at least span capacity, recycling the free
// list (callers hold mu).
func (w *window) lease(span int64) []byte {
	for i := len(w.free) - 1; i >= 0; i-- {
		if int64(cap(w.free[i])) >= span {
			buf := w.free[i]
			w.free = append(w.free[:i], w.free[i+1:]...)
			w.leasedBytes += int64(cap(buf))
			w.shared.charge(int64(cap(buf)))
			return buf[:span]
		}
	}
	// Round up so a handful of buffer sizes serves every strand.
	c := int64(1024)
	for c < span {
		c *= 2
	}
	w.leasedBytes += c
	w.shared.charge(c)
	return make([]byte, span, c)
}

func (w *window) unlease(buf []byte) {
	w.leasedBytes -= int64(cap(buf))
	w.shared.credit(int64(cap(buf)))
	w.free = append(w.free, buf[:0])
}

// frame returns the verified content of frame f, loading (and LRU-
// evicting) as needed. Callers hold mu.
func (w *window) frame(t *Trace, f int64) ([]byte, error) {
	w.clock++
	if data := w.frames[f]; data != nil {
		w.lastUse[f] = w.clock
		return data, nil
	}
	var buf []byte
	if n := len(w.spare); n > 0 {
		buf = w.spare[n-1][:w.frameSize]
		w.spare = w.spare[:n-1]
	} else {
		buf = make([]byte, w.frameSize)
	}
	data, err := t.readFrame(f, buf)
	if err != nil {
		w.spare = append(w.spare, buf)
		return nil, err
	}
	w.frames[f] = data
	w.lastUse[f] = w.clock
	w.resident = append(w.resident, f)
	w.residentBytes += int64(len(data))
	w.shared.charge(int64(len(data)))
	for (w.residentBytes > w.budget || w.shared.over()) && len(w.resident) > 1 {
		// Evict the least-recently-used frame, never the one just loaded.
		oldest, oi := int64(-1), -1
		for i, rf := range w.resident {
			if rf == f {
				continue
			}
			if oi == -1 || w.lastUse[rf] < w.lastUse[oldest] {
				oldest, oi = rf, i
			}
		}
		if oi == -1 {
			break
		}
		w.residentBytes -= int64(len(w.frames[oldest]))
		w.shared.credit(int64(len(w.frames[oldest])))
		w.spare = append(w.spare, w.frames[oldest][:0])
		w.frames[oldest] = nil
		w.resident = append(w.resident[:oi], w.resident[oi+1:]...)
	}
	if w.residentBytes+w.leasedBytes > w.peak {
		w.peak = w.residentBytes + w.leasedBytes
	}
	return data, nil
}

// --- the replay job --------------------------------------------------------

// replayJob replays one recorded strand — and, through its continuation
// chain, one recorded task. It is allocated once per trace node in the
// Trace's job table and is immutable, so the same value serves every
// concurrent replay of the trace. It implements job.SBJob by returning the
// space declarations the live run resolved: Strand.SizeBytes already holds
// the strand→task fallback the engine applies, so replay reproduces the
// exact sizes (including the unannotated −1 case) every scheduler saw.
//
// Its script is a subslice of a resident trace's op stream or a buffer
// leased from the frame window; either way it implements
// job.StreamScripted and the engine hands the script back when the strand
// completes (a no-op for a resident trace).
type replayJob struct {
	t *Trace
	n int32
}

var _ job.StreamScripted = (*replayJob)(nil)

// Run implements job.Job (the goroutine-path fallback of the engine's
// inline interpreter, used e.g. when a replay is itself being recorded).
// Child jobs are prebuilt subslices of the trace's tables, so a replayed
// fork allocates nothing.
func (j *replayJob) Run(ctx job.Ctx) { runScript(ctx, j) }

// runScript runs a scripted replay job the way the inline interpreter
// does: take the script, replay it, hand it back, fork.
func runScript(ctx job.Ctx, j job.StreamScripted) {
	ops, lo, hi := j.Script()
	replayOps(ctx, ops, lo, hi)
	j.ReleaseScript(ops)
	if cont, kids := j.ScriptFork(); cont != nil || len(kids) > 0 {
		ctx.Fork(cont, kids...)
	}
}

// Script implements job.Scripted.
func (j *replayJob) Script() (ops []byte, lo, hi int64) { return j.t.script(&j.t.nodes[j.n]) }

// ReleaseScript implements job.StreamScripted.
func (j *replayJob) ReleaseScript(ops []byte) { j.t.release(ops) }

// ScriptFork implements job.Scripted with the prebuilt fork Run would
// perform.
func (j *replayJob) ScriptFork() (cont job.Job, children []job.Job) {
	t := j.t
	n := &t.nodes[j.n]
	if n.childEnd <= n.childOff {
		return nil, nil
	}
	if n.cont >= 0 {
		cont = &t.jobs[n.cont]
	}
	return cont, t.kids[n.childOff:n.childEnd]
}

// Size implements job.SBJob with the recorded S(t;B).
func (j *replayJob) Size(int64) int64 { return j.t.nodes[j.n].taskSize }

// StrandSize implements job.SBJob with the recorded S(ℓ;B).
func (j *replayJob) StrandSize(int64) int64 { return j.t.nodes[j.n].strandSize }

// replayOps is the replay inner loop: decode the strand's op stream and
// feed it through the simulation context. The uvarint decode is hand-rolled
// (no binary.Uvarint call, no slice re-slicing) and the zigzag is inlined,
// so one op costs a few shifts on top of the ctx.Access the live kernel
// would have performed anyway.
//
//schedlint:hotpath
func replayOps(ctx job.Ctx, ops []byte, off, end int64) {
	var prev int64
	for off < end {
		var v uint64
		var shift uint
		for {
			b := ops[off]
			off++
			v |= uint64(b&0x7f) << shift
			if b < 0x80 {
				break
			}
			shift += 7
		}
		if tag := v & opcode.TagMask; tag == opcode.Work {
			ctx.Work(int64(v >> opcode.TagBits))
		} else {
			u := v >> opcode.TagBits
			prev += int64(u>>1) ^ -int64(u&1)
			ctx.Access(mem.Addr(prev), tag == opcode.Write)
		}
	}
}
