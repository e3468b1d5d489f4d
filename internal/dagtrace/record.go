package dagtrace

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/job"
	"repro/internal/mem"
	"repro/internal/opcode"
	"repro/internal/sim"
)

// The recorder plugs into sim.Config.Listener and must satisfy the full
// program-level event interface.
var _ sim.TraceListener = (*Recorder)(nil)

// recNode is the per-strand working state during recording. ops holds the
// script of a strand that has not finished yet; it is written out and
// recycled when the strand reports its terminal fork.
type recNode struct {
	ops      []byte
	children []int32
	prevAddr int64
	// forked mirrors the StrandForked report so Finish can cross-check the
	// spawn events against what each strand declared.
	forkSeen     bool
	forkCont     bool
	forkChildren int
}

// Recorder implements sim.TraceListener: pass it as Config.Listener on one
// live run, then call Finish to complete the trace file it writes. A
// strand's script is buffered only while the strand runs: StrandForked —
// the last event the engine reports for a strand — appends it to the
// frame writer, which checksums and writes each frame as it fills, so the
// recorder holds O(strands) metadata plus the scripts of the strands in
// flight, never the whole op stream.
//
// It keys its maps by strand and task IDs — never retaining the pointers
// an event delivers — and declares that through sim.PoolSafe, so the
// engine keeps its task/strand pooling on while recording (the dominant
// cost of a record cell is otherwise the pool-less allocation churn).
//
// A Recorder is single-use and must only observe one run.
type Recorder struct {
	nodes []node
	meta  []recNode
	root  int32

	// strandIdx maps live strand IDs to their node; lastOfTask tracks each
	// task's most recent strand so a continuation can be linked to the
	// strand whose terminal fork declared it (Strand.SpawnedBy is the
	// last-finishing dependency — a schedule artifact — so it cannot serve
	// as the structural parent). IDs stay unique across pooling (recycled
	// objects get fresh IDs), and both maps are only keyed, never iterated.
	strandIdx  map[uint64]int32
	lastOfTask map[uint64]int32

	// curID/curIdx cache the strand of the latest access: accesses arrive
	// in chunk-length runs per strand, so almost every lookup hits the
	// cache instead of the map. IDs start at 1, so 0 means empty.
	curID  uint64
	curIdx int32

	tasks     uint64
	strands   uint64
	accessOps int64
	workOps   int64

	out frameWriter
	// free recycles the script buffers of finished strands.
	free [][]byte
	// buffered counts the op bytes held in unfinished strands' buffers;
	// peakBuffered is its high-water mark plus the partial frame at that
	// moment — the recorder's op-byte footprint.
	buffered     int64
	peakBuffered int64

	err error
}

// NewRecorder returns a Recorder writing a trace file to w: the header at
// once, frames of frameSize op bytes as they fill (0 selects
// DefaultFrameSize), and the metadata trailer at Finish. The first write
// error ends recording; Finish reports it.
func NewRecorder(w io.Writer, frameSize int64) *Recorder {
	if frameSize <= 0 {
		frameSize = DefaultFrameSize
	}
	r := &Recorder{
		root:       -1,
		strandIdx:  make(map[uint64]int32),
		lastOfTask: make(map[uint64]int32),
		out:        frameWriter{w: w, size: frameSize, buf: make([]byte, 0, frameSize)},
	}
	if _, err := w.Write(binary.LittleEndian.AppendUint32([]byte(traceMagic), traceVersion)); err != nil {
		r.fail(err)
	}
	return r
}

// PoolSafeListener implements sim.PoolSafe: every event handler below
// reads the delivered *job.Strand / *job.Task fields it needs and stores
// only IDs and values, so object recycling after the event is harmless.
func (r *Recorder) PoolSafeListener() {}

// fail latches the first fatal condition; recording continues as no-ops so
// the observed run itself is never disturbed.
func (r *Recorder) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// StrandSpawned implements sim.Listener: allocate the strand's node and
// link it into the tree.
func (r *Recorder) StrandSpawned(s *job.Strand) {
	if r.err != nil {
		return
	}
	idx := int32(len(r.nodes))
	r.nodes = append(r.nodes, node{
		taskSize:   s.Task.SizeBytes,
		strandSize: s.SizeBytes,
		cont:       -1,
	})
	r.meta = append(r.meta, recNode{})
	r.strandIdx[s.ID] = idx
	r.strands++
	switch {
	case s.Kind == job.Continuation:
		// The task's previous strand is the one whose fork declared this
		// continuation; its node cannot have been linked yet (one terminal
		// fork per strand, one continuation per parallel block).
		prev, ok := r.lastOfTask[s.Task.ID]
		if !ok || r.nodes[prev].cont != -1 {
			r.fail(fmt.Errorf("dagtrace: continuation strand %d has no linkable predecessor", s.ID))
			return
		}
		r.nodes[prev].cont = idx
	case s.Task.Parent == nil:
		if r.root != -1 {
			r.fail(fmt.Errorf("%w: multiple root tasks (streamed injection)", ErrUnsupported))
			return
		}
		r.root = idx
		r.tasks++
	default:
		// First strand of a forked child task: its structural parent is the
		// strand whose terminal fork spawned it, which the engine exposes as
		// SpawnedBy for task starts (children spawn synchronously inside the
		// forking strand's completion, before the forker can be recycled).
		p, ok := r.strandIdx[s.SpawnedBy.ID]
		if !ok {
			r.fail(fmt.Errorf("dagtrace: task-start strand %d spawned by unknown strand", s.ID))
			return
		}
		r.meta[p].children = append(r.meta[p].children, idx)
		r.tasks++
	}
	r.lastOfTask[s.Task.ID] = idx
}

// StrandStarted implements sim.Listener (no-op: schedule detail).
func (r *Recorder) StrandStarted(*job.Strand) {}

// StrandEnded implements sim.Listener (no-op: the strand's map entry must
// survive until StrandForked, which the engine reports just after).
func (r *Recorder) StrandEnded(*job.Strand) {}

// TaskEnded implements sim.Listener.
func (r *Recorder) TaskEnded(t *job.Task, _ int64) {
	if r.err != nil {
		return
	}
	delete(r.lastOfTask, t.ID)
}

// node returns the node index of s, through the one-entry cache.
func (r *Recorder) node(s *job.Strand) (int32, bool) {
	if s.ID == r.curID {
		return r.curIdx, true
	}
	idx, ok := r.strandIdx[s.ID]
	if !ok {
		r.fail(fmt.Errorf("dagtrace: event for unknown strand %d", s.ID))
		return 0, false
	}
	r.curID, r.curIdx = s.ID, idx
	return idx, true
}

// strand returns the recording state of s; nil once recording failed.
func (r *Recorder) strand(s *job.Strand) *recNode {
	if r.err != nil {
		return nil
	}
	idx, ok := r.node(s)
	if !ok {
		return nil
	}
	return &r.meta[idx]
}

// appendOp appends one encoded op to a strand's script, taking a
// recycled buffer for the strand's first op.
func (r *Recorder) appendOp(m *recNode, v uint64) {
	if m.ops == nil && len(r.free) > 0 {
		m.ops, r.free = r.free[len(r.free)-1], r.free[:len(r.free)-1]
	}
	n := len(m.ops)
	m.ops = opcode.AppendUvarint(m.ops, v)
	r.buffered += int64(len(m.ops) - n)
}

// StrandAccess implements sim.TraceListener: append one delta-encoded
// access op to the strand's script.
func (r *Recorder) StrandAccess(s *job.Strand, a mem.Addr, write bool) {
	m := r.strand(s)
	if m == nil {
		return
	}
	delta := int64(a) - m.prevAddr
	m.prevAddr = int64(a)
	tag := uint64(opcode.Read)
	if write {
		tag = opcode.Write
	}
	r.appendOp(m, opcode.Zigzag(delta)<<opcode.TagBits|tag)
	r.accessOps++
}

// StrandWork implements sim.TraceListener: append one compute charge.
func (r *Recorder) StrandWork(s *job.Strand, cycles int64) {
	if m := r.strand(s); m != nil {
		r.appendOp(m, uint64(cycles)<<opcode.TagBits|opcode.Work)
		r.workOps++
	}
}

// StrandForked implements sim.TraceListener: note the strand's terminal
// fork shape for cross-checking, reject futures outright, and — this
// being the strand's last event — write its script out and recycle the
// buffer.
func (r *Recorder) StrandForked(s *job.Strand, hasCont bool, children int, futures bool) {
	if r.err != nil {
		return
	}
	if futures {
		r.fail(fmt.Errorf("%w: strand %d forked a future", ErrUnsupported, s.ID))
		return
	}
	idx, ok := r.node(s)
	if !ok {
		return
	}
	m := &r.meta[idx]
	m.forkSeen, m.forkCont, m.forkChildren = true, hasCont, children
	if peak := r.buffered + int64(len(r.out.buf)); peak > r.peakBuffered {
		r.peakBuffered = peak
	}
	n := &r.nodes[idx]
	n.opOff = r.out.n
	if err := r.out.write(m.ops); err != nil {
		r.fail(err)
		return
	}
	n.opEnd = r.out.n
	r.buffered -= int64(len(m.ops))
	if m.ops != nil {
		r.free = append(r.free, m.ops[:0])
		m.ops = nil
	}
	// The strand's map entry is NOT dropped here: its forked children
	// spawn right after this report and resolve their parent through
	// SpawnedBy. The map is O(strands) for the run, same order as the
	// node table.
}

// Finish validates the recorded structure, writes the last partial frame
// and the metadata trailer, and reports the first recording or write
// error. The Recorder must not be reused afterwards.
func (r *Recorder) Finish() error {
	if r.err != nil {
		return r.err
	}
	if r.root == -1 {
		return fmt.Errorf("dagtrace: no root strand recorded")
	}
	childN := 0
	for i := range r.nodes {
		n, m := &r.nodes[i], &r.meta[i]
		if !m.forkSeen {
			return fmt.Errorf("dagtrace: strand node %d never reported its terminal fork (run incomplete?)", i)
		}
		if len(m.ops) != 0 {
			return fmt.Errorf("dagtrace: strand node %d recorded ops after its terminal fork", i)
		}
		if m.forkChildren != len(m.children) {
			return fmt.Errorf("dagtrace: strand node %d declared %d children, spawned %d", i, m.forkChildren, len(m.children))
		}
		if m.forkCont != (n.cont != -1) {
			return fmt.Errorf("dagtrace: strand node %d continuation mismatch (declared %v)", i, m.forkCont)
		}
		n.childOff = int32(childN)
		childN += len(m.children)
		n.childEnd = int32(childN)
	}
	if err := r.out.flush(); err != nil {
		return err
	}
	frameN := len(r.out.sums)
	meta := make([]byte, 0, len(r.nodes)*8+childN*3+frameN*8+footerLen)
	for i := range r.nodes {
		n := &r.nodes[i]
		meta = opcode.AppendUvarint(meta, opcode.Zigzag(n.taskSize))
		meta = opcode.AppendUvarint(meta, opcode.Zigzag(n.strandSize))
		meta = opcode.AppendUvarint(meta, uint64(n.cont+1))
		meta = opcode.AppendUvarint(meta, uint64(n.childEnd-n.childOff))
		meta = opcode.AppendUvarint(meta, uint64(n.opOff))
		meta = opcode.AppendUvarint(meta, uint64(n.opEnd-n.opOff))
	}
	for i := range r.meta {
		for _, ci := range r.meta[i].children {
			meta = opcode.AppendUvarint(meta, uint64(ci))
		}
	}
	for _, sum := range r.out.sums {
		meta = binary.LittleEndian.AppendUint64(meta, sum)
	}
	metaLen := len(meta)
	meta = binary.LittleEndian.AppendUint32(meta, uint32(r.root))
	for _, v := range [...]uint64{
		r.tasks, r.strands, uint64(r.accessOps), uint64(r.workOps),
		uint64(len(r.nodes)), uint64(childN), uint64(r.out.n),
		uint64(r.out.size), uint64(frameN), uint64(metaLen),
	} {
		meta = binary.LittleEndian.AppendUint64(meta, v)
	}
	meta = binary.LittleEndian.AppendUint64(meta, frameSum(meta))
	r.nodes, r.meta, r.free = nil, nil, nil
	if _, err := r.out.w.Write(meta); err != nil {
		return err
	}
	return nil
}

// frameWriter cuts the op stream into frames of size bytes, writing each
// one and recording its checksum as soon as it fills.
type frameWriter struct {
	w    io.Writer
	size int64
	buf  []byte   // the partial frame
	sums []uint64 // frameSum of every written frame
	n    int64    // op bytes accepted so far
}

func (f *frameWriter) write(p []byte) error {
	f.n += int64(len(p))
	for len(p) > 0 {
		k := copy(f.buf[len(f.buf):cap(f.buf)], p)
		f.buf, p = f.buf[:len(f.buf)+k], p[k:]
		if len(f.buf) == cap(f.buf) {
			if err := f.flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

// flush writes the partial frame, if any.
func (f *frameWriter) flush() error {
	if len(f.buf) == 0 {
		return nil
	}
	f.sums = append(f.sums, frameSum(f.buf))
	_, err := f.w.Write(f.buf)
	f.buf = f.buf[:0]
	return err
}
