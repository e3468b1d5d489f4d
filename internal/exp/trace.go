package exp

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/dagtrace"
	"repro/internal/mem"
	"repro/internal/sim"
)

// traceKey identifies the schedule-independent computation of one cell
// repetition: the kernel (label), its input (seed), every profile scale
// that shapes the DAG, and the machine parameters kernel construction can
// observe (cache-line size for the space annotations, level sizes for the
// cache-aware samplesort, core count, page size for address layout).
//
// Scheduler, cost model and LinksUsed are deliberately absent: none of
// them affect the fork/join tree or the address streams. The bump
// allocator places arrays independently of the link count, and the
// page→link mapping is pure arithmetic applied at replay time — so one
// recording serves every scheduler × bandwidth × cost cell of a sweep.
func (r *Runner) traceKey(c Cell, seed uint64) string {
	id := c.Label
	if c.TraceID != "" {
		id = c.TraceID
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s|seed=%d|page=%d|m=%s:c%d:b%d",
		id, seed, r.P.PageSize(), c.Machine.Name, c.Machine.NumCores(), c.Machine.Block())
	for _, lv := range c.Machine.Levels {
		fmt.Fprintf(&b, ":%d", lv.Size)
	}
	p := r.P
	fmt.Fprintf(&b, "|p=%d.%d.%d.%d.%d.%d.%d.%d.%d.%d.%d.%d",
		p.RRMN, p.RRGN, p.RRBase, p.RRGrain, p.SortN, p.SerialCutoff, p.PartCutoff,
		p.Chunk, p.QuadN, p.QuadCutoff, p.MatmulN, p.MatmulBase)
	return b.String()
}

// runRep executes one repetition of cell c: through the trace cache when
// one is configured (record once, replay everywhere), live otherwise. A
// recording adopted from disk whose frames turn out damaged is rejected
// and the key resolved once more, so the cell re-records it.
func (r *Runner) runRep(c Cell, seed uint64) (*sim.Result, error) {
	if r.Traces == nil {
		return r.liveRep(c, seed, nil)
	}
	key := r.traceKey(c, seed)
	for retried := false; ; retried = true {
		rc, rs, err := r.Traces.GetOrReserve(key)
		switch {
		case errors.As(err, new(*dagtrace.WriteError)):
			return nil, err
		case err != nil:
			// Recording was rejected (ErrUnsupported: futures) or failed —
			// run live and untraced; a real simulation error will
			// reproduce here.
			return r.liveRep(c, seed, nil)
		case rs != nil:
			return r.recordRep(c, seed, rs)
		}
		tr, err := rc.Resident()
		if errors.Is(err, dagtrace.ErrCorrupt) && !retried {
			r.Traces.Reject(key, rc)
			continue
		}
		if err != nil {
			return nil, err
		}
		return r.replayRep(c, seed, tr)
	}
}

// recordRep runs the cell live with the reservation's recorder attached
// and publishes the recording; every path ends the reservation, so cache
// waiters never block on a recording that died. Failing to write the
// trace file fails the cell; a recording rejected for any other reason
// (ErrUnsupported, a structural cross-check in Finish) publishes its
// error and the cell keeps its verified live result.
func (r *Runner) recordRep(c Cell, seed uint64, rs *dagtrace.Reservation) (*sim.Result, error) {
	res, err := r.liveRep(c, seed, rs.Recorder())
	if err != nil {
		rs.Fail(err)
		return nil, err
	}
	if _, err := rs.Commit(); errors.As(err, new(*dagtrace.WriteError)) {
		return nil, err
	}
	return res, nil
}

// liveRep constructs the kernel and executes its closures under the cell's
// scheduler, verifying the computed output afterwards.
func (r *Runner) liveRep(c Cell, seed uint64, l sim.Listener) (*sim.Result, error) {
	sp := mem.NewSpacePaged(c.Machine.Links, c.LinksUsed, r.P.PageSize())
	k := c.MakeK(sp, c.Machine, seed)
	res, err := sim.Run(sim.Config{
		Machine:   c.Machine,
		Space:     sp,
		Scheduler: c.MakeS(),
		Cost:      c.Cost,
		Seed:      seed,
		Listener:  l,
	}, k.Root())
	if err != nil {
		return nil, err
	}
	if err := k.Verify(); err != nil {
		return nil, fmt.Errorf("output verification failed: %w", err)
	}
	return res, nil
}

// replayRep re-executes a recorded computation under the cell's scheduler,
// cost model and bandwidth. Kernel.Verify is skipped — a replay moves no
// program data to verify — and the trace's structural check (task, strand
// and access counts against the live recording) takes its place.
func (r *Runner) replayRep(c Cell, seed uint64, tr *dagtrace.Trace) (*sim.Result, error) {
	sp := mem.NewSpacePaged(c.Machine.Links, c.LinksUsed, r.P.PageSize())
	res, err := sim.Run(sim.Config{
		Machine:   c.Machine,
		Space:     sp,
		Scheduler: c.MakeS(),
		Cost:      c.Cost,
		Seed:      seed,
	}, tr.Root())
	if err != nil {
		return nil, err
	}
	if err := tr.CheckResult(res); err != nil {
		return nil, err
	}
	return res, nil
}

// gridOrder returns the execution order for cells: the first cell of each
// trace group (same key → same recording) is scheduled ahead of everything
// else, so recordings start immediately and replay cells never sit behind
// unrelated record work.
func (r *Runner) gridOrder(cells []Cell) []int {
	order := make([]int, 0, len(cells))
	if r.Traces == nil {
		for i := range cells {
			order = append(order, i)
		}
		return order
	}
	seen := make(map[string]bool, len(cells))
	var rest []int
	for i := range cells {
		g := r.traceKey(cells[i], r.P.Seed)
		if seen[g] {
			rest = append(rest, i)
			continue
		}
		seen[g] = true
		order = append(order, i)
	}
	return append(order, rest...)
}

// groupCounters maps each cell to a shared countdown of its trace group's
// unfinished cells, so RunGrid can evict a group's traces the moment its
// last cell completes (bounding grid memory to the groups in flight).
// Returns nil when eviction is off (no cache, or KeepTraces).
func (r *Runner) groupCounters(cells []Cell) []*int32 {
	if r.Traces == nil || r.KeepTraces {
		return nil
	}
	byKey := make(map[string]*int32, len(cells))
	counters := make([]*int32, len(cells))
	for i := range cells {
		g := r.traceKey(cells[i], r.P.Seed)
		ctr := byKey[g]
		if ctr == nil {
			ctr = new(int32)
			byKey[g] = ctr
		}
		*ctr++
		counters[i] = ctr
	}
	return counters
}

// dropTraces evicts every repetition key of c's group from the cache
// (recording files survive).
func (r *Runner) dropTraces(c Cell) {
	reps := r.P.Reps
	if reps < 1 {
		reps = 1
	}
	for rep := 0; rep < reps; rep++ {
		r.Traces.Drop(r.traceKey(c, r.P.Seed+uint64(rep)))
	}
}
