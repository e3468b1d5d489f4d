package exp

// Full-scale grid cells: record once, frame to disk, then replay through
// the bounded window — unsharded on the full machine while sharded across
// per-socket simulations — so one Fig. 8 cell at the paper's real input
// sizes (×1: 24MB L3, 100M-element-class inputs) completes in minutes
// with decoder memory independent of the trace size.

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/dagtrace"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/shard"
	"repro/internal/sim"
)

// FullScale returns the experiment profile at cache divisor div: div=64
// is exactly Paper(), div=1 is the real Xeon 7560 (24MB L3) with the
// paper's real input sizes (RRM touches 16n ≈ 164MB, as in §5.3). Linear
// quantities (element counts, cutoffs, grains) scale by 64/div so every
// input-to-cache ratio matches Paper(); the matmul side scales by
// √(64/div) because its footprint is quadratic in N. Reps drops to 1 —
// full-scale cells are minutes each, and the streamed replay is
// deterministic anyway.
func FullScale(div int64) Profile {
	if div < 1 || div > 64 || 64%div != 0 {
		panic(fmt.Sprintf("exp: full-scale divisor %d must divide 64", div))
	}
	f := 64 / div
	sq := int64(1)
	for sq*sq < f {
		sq++
	}
	p := Paper()
	p.Name = fmt.Sprintf("x%d", div)
	p.MachineScale = div
	p.Reps = 1
	scale := func(v *int) { *v = int(int64(*v) * f) }
	scale(&p.RRMN)
	scale(&p.RRGN)
	scale(&p.RRBase)
	scale(&p.RRGrain)
	scale(&p.SortN)
	scale(&p.SerialCutoff)
	scale(&p.PartCutoff)
	scale(&p.Chunk)
	scale(&p.QuadN)
	scale(&p.QuadCutoff)
	p.MatmulN = int(int64(p.MatmulN) * sq)
	p.MatmulBase = int(int64(p.MatmulBase) * sq)
	return p
}

// FullKernelFactory resolves a kernel name (the Fig. 8 lineup plus RRM
// and RRG) to its factory at the profile's scale.
func (p Profile) FullKernelFactory(name string) (KernelFactory, error) {
	switch name {
	case "RRM":
		return p.RRMFactory(), nil
	case "RRG":
		return p.RRGFactory(), nil
	case "Quicksort":
		return p.QuicksortFactory(), nil
	case "Samplesort":
		return p.SamplesortFactory(), nil
	case "AwareSamplesort":
		return p.AwareSamplesortFactory(), nil
	case "Quad-Tree":
		return p.QuadtreeFactory(), nil
	case "MatMul":
		return p.MatMulFactory(), nil
	}
	return nil, fmt.Errorf("exp: unknown kernel %q (want RRM, RRG, Quicksort, Samplesort, AwareSamplesort, Quad-Tree or MatMul)", name)
}

// FullRecordSched is the canonical scheduler every full-scale recording
// runs under. A recording's semantics (ops, addresses, dependencies) are
// schedule-independent, but its layout is not: node numbering follows
// the recording execution order, and the partitioner breaks ties on node
// indices. Pinning one recording scheduler makes the framed file — and
// therefore every replay fingerprint derived from it — a pure function
// of (kernel, scale, seed, machine), which is what lets a grid share one
// recording across cells and still match the one-cell-at-a-time path
// bit for bit. sb is the paper's reference scheduler and the cheapest to
// simulate at full scale.
const FullRecordSched = "sb"

// FullCellReport is the outcome of one full-scale cell.
type FullCellReport struct {
	Kernel    string
	Scheduler string
	Machine   string
	LinksUsed int // DRAM links in use (the Fig. 9 bandwidth knob)
	Shards    int
	Window    int64 // decoder window of each replay stream

	// Trace shape.
	Tasks, Strands uint64
	OpBytes        int64 // op-stream bytes (the part the window bounds)
	TraceBytes     int64 // framed file size on disk

	// RecordShared reports the recording was reused — produced by another
	// grid cell or adopted from a previous process — rather than by this
	// cell; RecordSec and WriteSec are then zero, so summing stage columns
	// over a grid never double-counts the amortized record stage.
	RecordShared bool

	// Attempts is the attempt number that produced this report (1 = first
	// try), counted across resumes of a journaled run.
	Attempts int
	// Resumed marks a report restored from a run journal rather than
	// executed by this process; host timings are the original attempt's.
	Resumed bool

	// Host wall-clock of each pipeline stage, in seconds.
	RecordSec   float64 // live run + recording (0 when RecordShared)
	WriteSec    float64 // framing to disk (0 when RecordShared)
	ReplaySec   float64 // unsharded streamed replay, full machine, overlapping ShardedSec
	ShardedSec  float64 // sharded streamed replay (Shards goroutines)
	PeakSysMB   float64 // runtime.MemStats.Sys after the replays
	PeakWindowB int64   // decoder-resident high-water marks (window + leases), summed over streams

	// Simulated results.
	ReplayWall  int64  // unsharded makespan, cycles (0 in grid cells)
	ShardedWall int64  // sharded makespan (max over sockets), cycles
	L3Misses    int64  // sharded L3 misses, summed over sockets
	StallCycles int64  // sharded DRAM-stall cycles, summed over sockets
	Fingerprint string // sharded merge fingerprint (shard-count invariant)
}

// fullCellOpts selects the stages and sharing discipline of one
// full-scale cell run.
type fullCellOpts struct {
	linksUsed int                   // 0 = all machine links
	cache     *dagtrace.StreamCache // nil = private temp recording
	budget    *dagtrace.Budget      // shared window budget (nil = per-stream only)
	unsharded bool                  // also replay unsharded on the full machine
	window    int64                 // decoder window override (0 = r.ReplayWindow)
}

// framedKey is the grid cache identity of a kernel's framed recording:
// the schedule-independent computation key (same discipline as traceKey
// — scheduler, bandwidth and cost are absent) plus the canonical
// recording scheduler, which fixes the file's layout.
func (r *Runner) framedKey(kernel string, m *machine.Desc) string {
	return r.traceKey(Cell{Label: kernel, Machine: m}, r.P.Seed) + "|framed:rec=" + FullRecordSched
}

// fullRecord runs the kernel live under the canonical recording
// scheduler with a recorder attached and returns the finished trace.
func (r *Runner) fullRecord(mk KernelFactory, m *machine.Desc, seed uint64) (*dagtrace.Trace, error) {
	sp := mem.NewSpacePaged(m.Links, m.Links, r.P.PageSize())
	k := mk(sp, m, seed)
	rec := dagtrace.NewRecorder()
	if _, err := sim.Run(sim.Config{
		Machine: m, Space: sp, Scheduler: sched.New(FullRecordSched), Seed: seed, Listener: rec,
	}, k.Root()); err != nil {
		return nil, fmt.Errorf("exp: full-scale record: %w", err)
	}
	if err := k.Verify(); err != nil {
		return nil, fmt.Errorf("exp: full-scale record: output verification failed: %w", err)
	}
	tr, err := rec.Finish()
	if err != nil {
		return nil, fmt.Errorf("exp: full-scale record: %w", err)
	}
	return tr, nil
}

// FullCell runs one full-scale grid cell end to end: record the kernel
// live on the profile's machine (under FullRecordSched), frame the trace
// to disk, then replay it twice at once — unsharded on the full machine,
// and partitioned and sharded over the machine's sockets on r.Shards
// host goroutines — each replay through its own stream with half of
// r.ReplayWindow. The sharded
// fingerprint it reports is invariant under r.Shards; the driver's
// fullscale-smoke CI job pins that by diffing two runs. When
// r.FramedTraces is set the recording resolves through the shared grid
// cache instead of a private temp file.
func (r *Runner) FullCell(kernel, schedName string) (*FullCellReport, error) {
	return r.fullCell(kernel, schedName, fullCellOpts{cache: r.FramedTraces, unsharded: true})
}

// FullCellAt is FullCell at a bandwidth setting: linksUsed of the
// machine's DRAM links in use (0 = all). It is the sequential reference
// the grid equivalence tests compare against.
func (r *Runner) FullCellAt(kernel, schedName string, linksUsed int) (*FullCellReport, error) {
	return r.fullCell(kernel, schedName, fullCellOpts{linksUsed: linksUsed, cache: r.FramedTraces, unsharded: true})
}

func (r *Runner) fullCell(kernel, schedName string, o fullCellOpts) (*FullCellReport, error) {
	mk, err := r.P.FullKernelFactory(kernel)
	if err != nil {
		return nil, err
	}
	if sched.New(schedName) == nil {
		return nil, fmt.Errorf("exp: unknown scheduler %q (want one of %v)", schedName, sched.Names())
	}
	m := r.P.MachineHT()
	links := o.linksUsed
	if links == 0 {
		links = m.Links
	}
	if links < 1 || links > m.Links {
		return nil, fmt.Errorf("exp: LinksUsed %d out of range 1..%d", o.linksUsed, m.Links)
	}
	seed := r.P.Seed
	window := o.window
	if window == 0 {
		window = r.ReplayWindow
	}
	if window <= 0 {
		window = dagtrace.DefaultWindowBytes
	}
	if o.unsharded {
		window /= 2 // two replays at once split the window, as in splitBudget
	}
	rep := &FullCellReport{
		Kernel: kernel, Scheduler: schedName, Machine: m.Name,
		LinksUsed: links, Shards: r.Shards, Window: window,
	}

	// Stage 1: resolve the framed recording — through the shared grid
	// cache (one recording per kernel key, whoever gets there first) or a
	// private temp file.
	var path string
	if o.cache != nil {
		key := r.framedKey(kernel, m)
		p, shared, record, err := o.cache.GetOrReserve(key)
		if err != nil {
			return nil, fmt.Errorf("exp: full-scale shared record: %w", err)
		}
		if record {
			//schedlint:ignore nondeterminism host-side stage timing for the report; simulated results never read it
			t0 := time.Now()
			tr, err := r.fullRecord(mk, m, seed)
			if err != nil {
				o.cache.Fail(key, err)
				return nil, err
			}
			//schedlint:ignore nondeterminism host-side stage timing for the report
			rep.RecordSec = time.Since(t0).Seconds()
			//schedlint:ignore nondeterminism host-side stage timing for the report
			t0 = time.Now()
			if p, err = o.cache.Fill(key, tr); err != nil {
				return nil, fmt.Errorf("exp: full-scale frame: %w", err)
			}
			//schedlint:ignore nondeterminism host-side stage timing for the report
			rep.WriteSec = time.Since(t0).Seconds()
		} else {
			rep.RecordShared = shared
		}
		path = p
	} else {
		//schedlint:ignore nondeterminism host-side stage timing for the report; simulated results never read it
		t0 := time.Now()
		tr, err := r.fullRecord(mk, m, seed)
		if err != nil {
			return nil, err
		}
		//schedlint:ignore nondeterminism host-side stage timing for the report
		rep.RecordSec = time.Since(t0).Seconds()
		dir, err := os.MkdirTemp("", "fullscale-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		path = filepath.Join(dir, "cell.dgts")
		//schedlint:ignore nondeterminism host-side stage timing for the report
		t0 = time.Now()
		if err := dagtrace.WriteFramed(tr, path, 0); err != nil {
			return nil, fmt.Errorf("exp: full-scale frame: %w", err)
		}
		//schedlint:ignore nondeterminism host-side stage timing for the report
		rep.WriteSec = time.Since(t0).Seconds()
	}
	if fi, err := os.Stat(path); err == nil {
		rep.TraceBytes = fi.Size()
	}
	// Release the arena before replaying: from here on, op bytes live only
	// behind the window. (In the cache path the arena reference died with
	// Fill's scope; the collector still needs the nudge before the replay
	// allocates its address space.)
	runtime.GC()

	// Stage 2: reopen through the bounded window, charging the shared grid
	// budget when one is set. Window size bounds decoder memory only —
	// simulated results are invariant under it, which is what lets the
	// grid and the cell split their windows freely.
	st, err := dagtrace.OpenStreamBudget(path, window, o.budget)
	if err != nil {
		return nil, fmt.Errorf("exp: full-scale open: %w", err)
	}
	defer st.Close()
	rep.Tasks, rep.Strands = st.TaskCount, st.StrandCount
	rep.OpBytes = st.OpBytes()

	// Stage 3 (cell experiment only): unsharded replay on the full machine,
	// overlapping stage 4, on its own stream (CheckResult's lease-leak
	// check assumes one replay per window). The deferred Wait runs before
	// the deferred Closes: every return path joins it before streams close.
	var ust *dagtrace.StreamTrace
	var unsharded sync.WaitGroup
	var replayErr error
	if o.unsharded {
		if ust, err = dagtrace.OpenStreamBudget(path, window, o.budget); err != nil {
			return nil, fmt.Errorf("exp: full-scale open: %w", err)
		}
		defer ust.Close()
		unsharded.Add(1)
		defer unsharded.Wait()
		//schedlint:ignore nondeterminism stage overlap; each replay is a pure function of its stream and joined before its results are read
		go func() {
			defer unsharded.Done()
			//schedlint:ignore nondeterminism host-side stage timing for the report
			t0 := time.Now()
			rsp := mem.NewSpacePaged(m.Links, links, r.P.PageSize())
			res, err := sim.Run(sim.Config{
				Machine: m, Space: rsp, Scheduler: sched.New(schedName), Seed: seed,
			}, ust.Root())
			if err == nil {
				err = ust.CheckResult(res)
			}
			if err != nil {
				replayErr = fmt.Errorf("exp: full-scale replay: %w", err)
				return
			}
			//schedlint:ignore nondeterminism host-side stage timing for the report
			rep.ReplaySec = time.Since(t0).Seconds()
			rep.ReplayWall = res.WallCycles
		}()
	}

	// Stage 4: partition and replay sharded over the machine's sockets.
	sockets := m.Levels[0].Fanout
	part, err := dagtrace.PartitionStream(st, 2*sockets)
	if err != nil {
		return nil, fmt.Errorf("exp: full-scale partition: %w", err)
	}
	roots := make([]shard.Root, len(part.Pieces))
	for i, pc := range part.Pieces {
		roots[i] = shard.Root{Job: pc.Root, Weight: pc.Weight}
	}
	//schedlint:ignore nondeterminism host-side stage timing for the report
	t0 := time.Now()
	sres, err := shard.Replay(shard.Config{
		Machine:   m,
		MakeSched: func() sched.Scheduler { return sched.New(schedName) },
		Seed:      seed,
		Shards:    r.Shards,
		PageSize:  r.P.PageSize(),
		LinksUsed: links,
	}, roots)
	if err == nil {
		err = st.Err()
	}
	if err != nil {
		return nil, fmt.Errorf("exp: full-scale sharded replay: %w", err)
	}
	//schedlint:ignore nondeterminism host-side stage timing for the report
	rep.ShardedSec = time.Since(t0).Seconds()
	if sres.Tasks != rep.Tasks || sres.Strands != rep.Strands {
		return nil, fmt.Errorf("exp: sharded replay executed %d tasks / %d strands, trace recorded %d / %d",
			sres.Tasks, sres.Strands, rep.Tasks, rep.Strands)
	}
	rep.ShardedWall = sres.WallCycles
	for _, sr := range sres.Sockets {
		if sr == nil {
			continue
		}
		rep.L3Misses += sr.L3Misses()
		rep.StallCycles += sr.StallCycles
	}
	rep.Fingerprint = sres.Fingerprint()
	rep.PeakWindowB = st.PeakResidentBytes()
	if ust != nil {
		unsharded.Wait()
		if replayErr != nil {
			return nil, replayErr
		}
		rep.PeakWindowB += ust.PeakResidentBytes()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rep.PeakSysMB = float64(ms.Sys) / (1 << 20)
	return rep, nil
}

// Print renders the report as the stable key=value lines the CI smoke job
// greps (fingerprint= in particular). The trace:, sim: and fingerprint=
// lines are deterministic; host: and memory: report host-side
// observations (stage wall-clock, decoder/runtime memory high-water
// marks) that vary with machine load and goroutine interleaving.
func (rep *FullCellReport) Print(w io.Writer) {
	fmt.Fprintf(w, "fullscale cell %s/%s on %s links=%d\n", rep.Kernel, rep.Scheduler, rep.Machine, rep.LinksUsed)
	fmt.Fprintf(w, "  trace: tasks=%d strands=%d opbytes=%d filebytes=%d\n",
		rep.Tasks, rep.Strands, rep.OpBytes, rep.TraceBytes)
	shared := ""
	if rep.RecordShared {
		shared = " (shared)"
	}
	fmt.Fprintf(w, "  host: record=%.2fs%s write=%.2fs replay=%.2fs sharded=%.2fs (shards=%d)\n",
		rep.RecordSec, shared, rep.WriteSec, rep.ReplaySec, rep.ShardedSec, rep.Shards)
	fmt.Fprintf(w, "  memory: window=%d peak_window_bytes=%d runtime_sys=%.1fMB\n",
		rep.Window, rep.PeakWindowB, rep.PeakSysMB)
	fmt.Fprintf(w, "  sim: replay_wall=%d sharded_wall=%d l3_misses=%d stall=%d\n",
		rep.ReplayWall, rep.ShardedWall, rep.L3Misses, rep.StallCycles)
	fmt.Fprintf(w, "  fingerprint=%s\n", rep.Fingerprint)
}
