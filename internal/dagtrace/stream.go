package dagtrace

// Streamed traces: the framed on-disk form (format v3, "DGTS") and the
// windowed decoder that replays it in O(window) memory.
//
// A whole-arena Trace holds every strand's op bytes resident for the
// lifetime of the replay; at paper scale (×1 inputs, 100M-element class)
// that arena reaches gigabytes and caps the feasible input size long
// before simulated time does. The framed form splits the op arena into
// fixed-size frames, each independently checksummed, behind a small
// metadata block (node table, child lists, frame checksums) that stays
// O(strands) — a few kilobytes per thousand strands. Replay opens the
// file and leases each strand's op bytes through a bounded frame window:
// resident decode state is (window budget) + (bytes leased to in-flight
// strands), independent of the trace's total op volume.
//
// Layout (all integers little-endian; varints as in internal/opcode):
//
//	magic "DGTS" | version u32 | root u32 | metaLen u64
//	taskCount u64 | strandCount u64 | accessOps u64 | workOps u64
//	nodeCount u64 | childCount u64 | opBytes u64 | frameSize u64 | frameCount u64
//	nodes: per node taskSize/strandSize (zigzag uvarint), cont+1 (uvarint),
//	       child count (uvarint), op length (uvarint)
//	childIdx: uvarint each
//	frame table: frameSum u64 per frame
//	frameSum u64 over every metadata byte above
//	frames: raw op bytes, opBytes total, starting at offset metaLen
//
// frameSum(b) is CRC-32C(b)<<32 | CRC-32/IEEE(b). Version 2 used 64-bit
// FNV-1a in the same slots; it is rejected by version.
//
// Frame f holds op bytes [f*frameSize, min((f+1)*frameSize, opBytes)).
// Only the metadata block is read (and its checksum verified) at open
// time; each frame is verified against its table entry when it enters the
// window, so corruption anywhere in the file is detected before any of
// its bytes reach the simulator, without ever holding the file resident.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"repro/internal/job"
	"repro/internal/sim"
)

const (
	streamMagic   = "DGTS"
	streamVersion = 3

	// DefaultFrameSize is the frame granularity WriteFramed uses when the
	// caller passes 0: large enough to amortize ReadAt and checksum cost,
	// small enough that a 16-frame window stays well under typical L3.
	DefaultFrameSize = 1 << 20

	// DefaultWindowBytes is the frame-window budget NewStream applies when
	// the caller passes 0.
	DefaultWindowBytes = 16 << 20

	// streamHeaderLen is the fixed-size prefix before the varint tables:
	// magic(4) + version(4) + root(4) + metaLen + 9 more u64 fields.
	streamHeaderLen = 4 + 4 + 4 + 10*8
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
// the factor x+1), and all but 2^-64 of random corruptions — no weaker
// than the 64-bit FNV-1a of format v2, at hardware speed instead of a
// byte at a time.
func frameSum(b []byte) uint64 {
	return uint64(crc32.Checksum(b, castagnoli()))<<32 | uint64(crc32.ChecksumIEEE(b))
}

// VersionError reports a framed trace written in a format version this
// package does not read. Caches treat it as stale rather than corrupt:
// the file is intact, just older, and re-recording replaces it.
type VersionError struct {
	Got, Want uint32
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("dagtrace: stale framed-trace format v%d (want v%d)", e.Got, e.Want)
}

// WriteFramed serializes the trace in the framed v3 form to path,
// atomically (tmp + rename). frameSize 0 selects DefaultFrameSize.
func WriteFramed(t *Trace, path string, frameSize int64) error {
	if frameSize <= 0 {
		frameSize = DefaultFrameSize
	}
	meta := make([]byte, 0, streamHeaderLen+len(t.nodes)*6+len(t.childIdx)*3)
	meta = append(meta, streamMagic...)
	meta = binary.LittleEndian.AppendUint32(meta, streamVersion)
	meta = binary.LittleEndian.AppendUint32(meta, uint32(t.root))
	meta = binary.LittleEndian.AppendUint64(meta, 0) // metaLen, patched below
	meta = binary.LittleEndian.AppendUint64(meta, t.TaskCount)
	meta = binary.LittleEndian.AppendUint64(meta, t.StrandCount)
	meta = binary.LittleEndian.AppendUint64(meta, uint64(t.AccessOps))
	meta = binary.LittleEndian.AppendUint64(meta, uint64(t.WorkOps))
	meta = binary.LittleEndian.AppendUint64(meta, uint64(len(t.nodes)))
	meta = binary.LittleEndian.AppendUint64(meta, uint64(len(t.childIdx)))
	meta = binary.LittleEndian.AppendUint64(meta, uint64(len(t.ops)))
	meta = binary.LittleEndian.AppendUint64(meta, uint64(frameSize))
	frameN := (int64(len(t.ops)) + frameSize - 1) / frameSize
	meta = binary.LittleEndian.AppendUint64(meta, uint64(frameN))
	for i := range t.nodes {
		n := &t.nodes[i]
		meta = appendUvarint(meta, zigzag(n.taskSize))
		meta = appendUvarint(meta, zigzag(n.strandSize))
		meta = appendUvarint(meta, uint64(n.cont+1))
		meta = appendUvarint(meta, uint64(n.childEnd-n.childOff))
		meta = appendUvarint(meta, uint64(n.opEnd-n.opOff))
	}
	for _, ci := range t.childIdx {
		meta = appendUvarint(meta, uint64(ci))
	}
	for f := int64(0); f < frameN; f++ {
		lo := f * frameSize
		hi := lo + frameSize
		if hi > int64(len(t.ops)) {
			hi = int64(len(t.ops))
		}
		meta = binary.LittleEndian.AppendUint64(meta, frameSum(t.ops[lo:hi]))
	}
	metaLen := uint64(len(meta) + 8) // + trailing metadata checksum
	binary.LittleEndian.PutUint64(meta[12:], metaLen)
	meta = binary.LittleEndian.AppendUint64(meta, frameSum(meta))

	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	_, err = f.Write(meta)
	if err == nil {
		_, err = f.Write(t.ops)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// StreamTrace is a framed trace opened for windowed replay. Like Trace it
// is safe for concurrent replays: the frame window is mutex-guarded and
// every other field is immutable after NewStream.
type StreamTrace struct {
	// Key mirrors Trace.Key (informational).
	Key string
	// TaskCount, StrandCount, AccessOps and WorkOps are the recorded
	// totals, as on Trace.
	TaskCount   uint64
	StrandCount uint64
	AccessOps   int64
	WorkOps     int64

	nodes    []node
	childIdx []int32
	root     int32
	jobs     []streamJob
	kids     []job.Job

	r         io.ReaderAt
	closer    io.Closer // non-nil when OpenStream owns the file handle
	dataOff   int64     // file offset of frame 0
	frameSize int64
	frameBuf  int64 // min(frameSize, opBytes): the largest actual frame
	frameSums []uint64
	opBytes   int64

	win window
}

// OpenStream opens a framed trace file for windowed replay. windowBytes
// bounds the bytes of decoded frames held resident (0 selects
// DefaultWindowBytes; it is clamped up to one frame). Close releases the
// file handle when replay is done.
func OpenStream(path string, windowBytes int64) (*StreamTrace, error) {
	return OpenStreamBudget(path, windowBytes, nil)
}

// OpenStreamBudget is OpenStream with the window additionally charging
// its resident and leased bytes against a shared Budget, so the streams
// of concurrently replaying grid cells share one memory high-water mark.
// A nil budget behaves exactly like OpenStream.
func OpenStreamBudget(path string, windowBytes int64, budget *Budget) (*StreamTrace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	t, err := NewStreamBudget(f, fi.Size(), windowBytes, budget)
	if err != nil {
		f.Close()
		return nil, err
	}
	t.closer = f
	return t, nil
}

// NewStream builds a StreamTrace over an arbitrary ReaderAt holding a
// framed trace of the given total size. The metadata block is read and
// verified here; frames are read on demand.
func NewStream(r io.ReaderAt, size, windowBytes int64) (*StreamTrace, error) {
	return NewStreamBudget(r, size, windowBytes, nil)
}

// NewStreamBudget is NewStream with a shared window Budget; see
// OpenStreamBudget.
func NewStreamBudget(r io.ReaderAt, size, windowBytes int64, budget *Budget) (*StreamTrace, error) {
	var hdr [streamHeaderLen]byte
	if size < streamHeaderLen+8 {
		return nil, fmt.Errorf("dagtrace: framed trace truncated (%d bytes)", size)
	}
	if _, err := r.ReadAt(hdr[:], 0); err != nil {
		return nil, fmt.Errorf("dagtrace: framed trace header: %w", err)
	}
	if string(hdr[:4]) != streamMagic {
		return nil, fmt.Errorf("dagtrace: bad framed-trace magic")
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != streamVersion {
		return nil, &VersionError{Got: v, Want: streamVersion}
	}
	metaLen := binary.LittleEndian.Uint64(hdr[12:])
	if metaLen < streamHeaderLen+8 || metaLen > uint64(size) || metaLen > 1<<31 {
		return nil, fmt.Errorf("dagtrace: implausible framed-trace metadata length %d", metaLen)
	}
	meta := make([]byte, metaLen)
	if _, err := r.ReadAt(meta, 0); err != nil {
		return nil, fmt.Errorf("dagtrace: framed trace metadata: %w", err)
	}
	body, sum := meta[:metaLen-8], binary.LittleEndian.Uint64(meta[metaLen-8:])
	if frameSum(body) != sum {
		return nil, fmt.Errorf("dagtrace: framed-trace metadata checksum mismatch")
	}
	t := &StreamTrace{
		root:        int32(binary.LittleEndian.Uint32(hdr[8:])),
		TaskCount:   binary.LittleEndian.Uint64(hdr[20:]),
		StrandCount: binary.LittleEndian.Uint64(hdr[28:]),
		AccessOps:   int64(binary.LittleEndian.Uint64(hdr[36:])),
		WorkOps:     int64(binary.LittleEndian.Uint64(hdr[44:])),
		r:           r,
		dataOff:     int64(metaLen),
	}
	nodeN := binary.LittleEndian.Uint64(hdr[52:])
	childN := binary.LittleEndian.Uint64(hdr[60:])
	opN := binary.LittleEndian.Uint64(hdr[68:])
	frameSize := int64(binary.LittleEndian.Uint64(hdr[76:]))
	frameN := binary.LittleEndian.Uint64(hdr[84:])
	const maxCount = 1 << 31
	if nodeN > maxCount || childN > maxCount || opN > uint64(size) {
		return nil, fmt.Errorf("dagtrace: implausible framed-trace header (%d nodes, %d children, %d op bytes)", nodeN, childN, opN)
	}
	if frameSize <= 0 {
		return nil, fmt.Errorf("dagtrace: framed trace frame size %d", frameSize)
	}
	if want := (int64(opN) + frameSize - 1) / frameSize; frameN != uint64(want) {
		return nil, fmt.Errorf("dagtrace: frame count %d disagrees with %d op bytes at frame size %d", frameN, opN, frameSize)
	}
	if int64(metaLen)+int64(opN) > size {
		return nil, fmt.Errorf("dagtrace: framed trace truncated (%d metadata + %d op bytes > %d file bytes)", metaLen, opN, size)
	}
	// Every node costs at least five varint bytes, every child index at
	// least one, every frame checksum exactly eight — so the claimed counts
	// must fit inside the metadata block. This bounds every allocation
	// below by the actual input size, whatever the header claims.
	if 5*nodeN+childN+8*frameN+streamHeaderLen+8 > metaLen {
		return nil, fmt.Errorf("dagtrace: framed-trace counts exceed metadata block")
	}
	if t.root < 0 || uint64(t.root) >= nodeN {
		return nil, fmt.Errorf("dagtrace: root %d out of range", t.root)
	}
	t.frameSize = frameSize
	t.opBytes = int64(opN)
	// No frame holds more than opBytes, however large the nominal frame
	// size; allocate frame buffers at the effective bound.
	t.frameBuf = frameSize
	if t.frameBuf > t.opBytes {
		t.frameBuf = t.opBytes
	}

	rest := body[streamHeaderLen:]
	next := func() (uint64, error) {
		v, k := binary.Uvarint(rest)
		if k <= 0 {
			return 0, fmt.Errorf("dagtrace: framed trace truncated mid-varint")
		}
		rest = rest[k:]
		return v, nil
	}
	t.nodes = make([]node, nodeN)
	var opOff int64
	var childOff int32
	for i := range t.nodes {
		n := &t.nodes[i]
		vals := [5]uint64{}
		for j := range vals {
			v, err := next()
			if err != nil {
				return nil, err
			}
			vals[j] = v
		}
		n.taskSize = unzigzag(vals[0])
		n.strandSize = unzigzag(vals[1])
		if vals[2] > nodeN {
			return nil, fmt.Errorf("dagtrace: node %d continuation %d out of range", i, vals[2]-1)
		}
		n.cont = int32(vals[2]) - 1
		if vals[3] > childN || vals[4] > opN {
			return nil, fmt.Errorf("dagtrace: node %d spans exceed trace totals", i)
		}
		n.childOff = childOff
		childOff += int32(vals[3])
		n.childEnd = childOff
		n.opOff = opOff
		opOff += int64(vals[4])
		n.opEnd = opOff
		if uint64(childOff) > childN || uint64(opOff) > opN {
			return nil, fmt.Errorf("dagtrace: node %d spans exceed trace totals", i)
		}
	}
	if uint64(childOff) != childN || uint64(opOff) != opN {
		return nil, fmt.Errorf("dagtrace: node totals disagree with framed header (%d/%d children, %d/%d op bytes)",
			childOff, childN, opOff, opN)
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

	t.jobs = make([]streamJob, len(t.nodes))
	for i := range t.jobs {
		t.jobs[i] = streamJob{t: t, n: int32(i)}
	}
	t.kids = make([]job.Job, len(t.childIdx))
	for i, ci := range t.childIdx {
		t.kids[i] = &t.jobs[ci]
	}
	t.win.init(windowBytes, t.frameBuf, int64(frameN), budget)
	return t, nil
}

// Close drops the window's cached frames — crediting them back to a
// shared Budget, so the tokens of a finished grid cell immediately fund
// its neighbours — and releases the file handle held by OpenStream. A
// StreamTrace built over a caller-owned ReaderAt (NewStream) closes no
// file, but still settles its window.
func (t *StreamTrace) Close() error {
	t.win.drop()
	if t.closer != nil {
		return t.closer.Close()
	}
	return nil
}

// Root returns the job that replays the streamed trace under sim.Run; see
// Trace.Root.
func (t *StreamTrace) Root() job.Job { return &t.jobs[t.root] }

// OpBytes returns the total size of the (non-resident) op stream.
func (t *StreamTrace) OpBytes() int64 { return t.opBytes }

// PeakResidentBytes reports the high-water mark of decoder-resident op
// bytes: cached frames plus buffers leased to in-flight strands. The
// bounded-memory contract of streamed replay is exactly that this stays
// O(window + concurrent strands × strand script size), independent of
// OpBytes.
func (t *StreamTrace) PeakResidentBytes() int64 {
	t.win.mu.Lock()
	defer t.win.mu.Unlock()
	return t.win.peak
}

// CheckResult mirrors Trace.CheckResult for streamed replays, and
// additionally surfaces any frame I/O or corruption error the window hit
// while the replay ran (a failed fetch replays an empty script, which this
// check then rejects by op count — the error here names the root cause).
func (t *StreamTrace) CheckResult(res *sim.Result) error {
	if err := t.win.fetchErr(); err != nil {
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
// the stream hit, or nil. CheckResult reports it too; Err serves replays
// that end in something other than one sim.Result, like the sharded one.
func (t *StreamTrace) Err() error { return t.win.fetchErr() }

// Fingerprint returns the same canonical content hash Trace.Fingerprint
// computes, streaming the op bytes through the hash one frame at a time.
// WriteFramed followed by NewStream preserves the fingerprint bit for bit.
func (t *StreamTrace) Fingerprint() (string, error) {
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
	frame := make([]byte, t.frameBuf)
	for f := int64(0); f < int64(len(t.frameSums)); f++ {
		data, err := t.readFrame(f, frame)
		if err != nil {
			return "", err
		}
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// readFrame reads and verifies frame f into buf (which must hold
// frameSize bytes), returning the valid prefix.
func (t *StreamTrace) readFrame(f int64, buf []byte) ([]byte, error) {
	lo := f * t.frameSize
	hi := lo + t.frameSize
	if hi > t.opBytes {
		hi = t.opBytes
	}
	data := buf[:hi-lo]
	if _, err := t.r.ReadAt(data, t.dataOff+lo); err != nil {
		return nil, fmt.Errorf("dagtrace: frame %d read: %w", f, err)
	}
	if frameSum(data) != t.frameSums[f] {
		return nil, fmt.Errorf("dagtrace: frame %d checksum mismatch (corrupt trace file)", f)
	}
	return data, nil
}

// --- the frame window ------------------------------------------------------

// window is the bounded decode cache of a StreamTrace: at most budget
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
// window's whole residue; called by StreamTrace.Close so a finished
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

func (w *window) fetchErr() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
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

// fetch copies op bytes [off, end) into a leased buffer. On I/O failure or
// frame corruption it records the error and returns an empty script — the
// replay then under-executes and CheckResult reports the recorded error.
//
//schedlint:lease acquire
func (t *StreamTrace) fetch(off, end int64) []byte {
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

// release returns a buffer obtained from fetch to the lease pool.
//
//schedlint:lease release
func (t *StreamTrace) release(buf []byte) {
	if cap(buf) == 0 {
		return // emptyScript
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
func (w *window) frame(t *StreamTrace, f int64) ([]byte, error) {
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

// --- the streamed replay job -----------------------------------------------

// streamJob mirrors replayJob over a StreamTrace: immutable, one per
// node, shared by every concurrent replay. Its Script bytes are leased
// from the frame window, so it implements job.StreamScripted and the
// engine returns the lease when the strand completes.
type streamJob struct {
	t *StreamTrace
	n int32
}

var _ job.StreamScripted = (*streamJob)(nil)

// Run implements job.Job (the goroutine-path fallback): lease, replay,
// release, fork.
func (j *streamJob) Run(ctx job.Ctx) {
	t := j.t
	n := &t.nodes[j.n]
	ops := t.fetch(n.opOff, n.opEnd)
	replayOps(ctx, ops, 0, int64(len(ops)))
	t.release(ops)
	if n.childEnd > n.childOff {
		if n.cont >= 0 {
			ctx.Fork(&t.jobs[n.cont], t.kids[n.childOff:n.childEnd]...)
		} else {
			ctx.Fork(nil, t.kids[n.childOff:n.childEnd]...)
		}
	}
}

// Script implements job.Scripted with a leased copy of the strand's ops.
func (j *streamJob) Script() (ops []byte, lo, hi int64) {
	n := &j.t.nodes[j.n]
	buf := j.t.fetch(n.opOff, n.opEnd)
	return buf, 0, int64(len(buf))
}

// ReleaseScript implements job.StreamScripted.
func (j *streamJob) ReleaseScript(ops []byte) { j.t.release(ops) }

// ScriptFork implements job.Scripted; see replayJob.ScriptFork.
func (j *streamJob) ScriptFork() (cont job.Job, children []job.Job) {
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
func (j *streamJob) Size(int64) int64 { return j.t.nodes[j.n].taskSize }

// StrandSize implements job.SBJob with the recorded S(ℓ;B).
func (j *streamJob) StrandSize(int64) int64 { return j.t.nodes[j.n].strandSize }
