// Package dagtrace captures one simulated execution of a deterministic
// nested-parallel program as a compact, schedule-independent trace, and
// replays it under any scheduler, cost model or bandwidth setting.
//
// The paper's experiment grids (Figs. 5-10) sweep schedulers and DRAM-link
// counts over deterministic kernels: for a fixed (kernel, input seed) the
// fork/join DAG and every strand's memory-address stream are identical in
// every cell — only the schedule and the cache/link state differ. (Cole &
// Ramachandran's general-scheduler cache-cost bounds and Gu et al.'s
// work-stealing analyses rest on exactly this schedule-independence of the
// computation.) A trace records the spawn/sync tree — one node per strand,
// with the task and strand space declarations space-bounded schedulers
// read — plus each strand's access script (delta-encoded addresses,
// read/write bits, interleaved compute charges). Replaying the trace feeds
// the identical op stream through the cache simulator via the ordinary
// job.Job interface, so a replay run is bit-identical to a live run under
// the same (machine, scheduler, cost model, seed): the golden equivalence
// suite in internal/exp pins this.
//
// There is one trace format (DGTS, see trace.go): the Recorder writes it
// in one pass as strands finish, a Trace opens it for replay — resident
// when its window covers the op stream, through a bounded frame window
// otherwise — and a Cache shares recordings between the cells of a grid.
//
// Traces only capture pure fork/join programs: futures (ForkFuture /
// ForkAwait) introduce cross-task dependencies whose replay order the
// spawn tree alone cannot express, and multi-root streams interleave
// arrivals; both abort recording with ErrUnsupported so callers fall back
// to live execution.
package dagtrace

import "errors"

// ErrUnsupported marks a computation the trace model cannot express
// (futures, multiple roots). Recording fails softly: callers run live.
var ErrUnsupported = errors.New("dagtrace: computation not traceable")

// ErrCorrupt marks trace bytes that fail their checksum (bit rot, a torn
// write). Opening a file checks only the metadata, so a damaged frame
// surfaces when a replay reads it; a cache then evicts the file with
// Cache.Reject and the key re-records.
var ErrCorrupt = errors.New("dagtrace: corrupt trace file")

// node is one strand of the recorded computation. Offsets index the op
// stream and the child table of the owning Trace, keeping the whole DAG in
// a few flat allocations regardless of strand count.
type node struct {
	// taskSize and strandSize are the space declarations (S(t;B) and
	// S(ℓ;B)) the live run resolved for this strand's task and for the
	// strand itself; -1 when the original job was unannotated.
	taskSize   int64
	strandSize int64
	// opOff/opEnd delimit the strand's access script in the op stream.
	// Scripts are laid out in strand-completion order, so offsets are not
	// monotone in the node index.
	opOff, opEnd int64
	// cont is the node index of the task's next strand, spawned when this
	// strand's parallel block joins; -1 when this strand ends the task's
	// strand sequence.
	cont int32
	// childOff/childEnd delimit this strand's forked child tasks (their
	// first strands) in Trace.childIdx.
	childOff, childEnd int32
}
