package exp

// The benchmark harness: programmatic perf measurements of the simulator's
// hot paths, runnable both as ordinary `go test -bench` benchmarks (see
// bench_harness_test.go) and from `cmd/schedbench -benchjson`, which
// serializes a Report to BENCH_sim.json so every PR leaves a recorded perf
// trajectory (ns/access, ns/simulated-cycle, allocs/op, end-to-end grid
// wall time).

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/cachesim"
	"repro/internal/dagtrace"
	"repro/internal/job"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/shard"
	"repro/internal/sim"
)

// BenchEntry records one measured benchmark of the harness.
type BenchEntry struct {
	Name        string `json:"name"`
	Iterations  int    `json:"iterations"`
	NsPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op"`
	// Metrics carries the benchmark's derived quantities (ns/access,
	// ns/simulated-cycle, wall seconds, ...) as reported via
	// testing.B.ReportMetric.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// BenchReport is the BENCH_sim.json payload.
type BenchReport struct {
	GeneratedUnix int64        `json:"generated_unix"`
	GoVersion     string       `json:"go_version"`
	GOMAXPROCS    int          `json:"gomaxprocs"`
	Benchmarks    []BenchEntry `json:"benchmarks"`
}

// BenchAccessHit measures the cachesim fast path, an innermost hit: the
// same L1 line re-touched every access.
func BenchAccessHit(b *testing.B) {
	d := machine.Xeon7560()
	sp := mem.NewSpace(d.Links, d.Links)
	h := cachesim.New(d, sp)
	a := mem.Addr(mem.PageSize)
	h.Access(0, 0, a, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(0, int64(i), a, false)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/access")
}

// BenchAccessTwoStreams measures RRM's access pattern on the fast path:
// read a[i], write b[i], on two page-aligned arrays resident in L1, so
// a[i] and b[i] share a set and no access re-touches the previous line.
func BenchAccessTwoStreams(b *testing.B) {
	d := machine.Xeon7560()
	sp := mem.NewSpace(d.Links, d.Links)
	h := cachesim.New(d, sp)
	const n = 1 << 10 // 8KB per array
	x, y := sp.Alloc("a", 8*n), sp.Alloc("b", 8*n)
	for i := 0; i < n; i++ {
		h.Access(0, 0, x+mem.Addr(8*i), false)
		h.Access(0, 0, y+mem.Addr(8*i), true)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := mem.Addr(8 * (i / 2 % n))
		if i&1 == 0 {
			h.Access(0, int64(i), x+off, false)
		} else {
			h.Access(0, int64(i), y+off, true)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/access")
}

// BenchAccessStream measures a streaming scan: inner-level misses with
// periodic DRAM line fetches.
func BenchAccessStream(b *testing.B) {
	d := machine.Xeon7560()
	sp := mem.NewSpace(d.Links, d.Links)
	h := cachesim.New(d, sp)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(i%32, int64(i), mem.Addr(mem.PageSize)+mem.Addr(i*8), false)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/access")
}

// BenchAccessRandom measures random gathers over a large footprint
// (DRAM-dominated, full probe walks).
func BenchAccessRandom(b *testing.B) {
	d := machine.Xeon7560()
	sp := mem.NewSpace(d.Links, d.Links)
	h := cachesim.New(d, sp)
	const span = 1 << 28
	x := uint64(0x9e3779b97f4a7c15)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		h.Access(int(x%32), int64(i), mem.Addr(mem.PageSize)+mem.Addr(x%span), false)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/access")
}

// BenchEngineParallelFor measures whole-engine throughput — scheduler
// call-backs, cache simulation, chunk handoff — and derives the harness's
// headline ns/simulated-cycle figure.
func BenchEngineParallelFor(b *testing.B) {
	m := machine.TwoSocket(4, 1<<18, 1<<13)
	var simCycles int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := mem.NewSpace(m.Links, m.Links)
		arr := sp.NewF64("xs", 1<<16)
		root := job.For(0, arr.Len(), 256,
			func(lo, hi int) int64 { return int64(hi-lo) * 8 },
			func(ctx job.Ctx, i int) { arr.Write(ctx, i, 1) })
		res, err := sim.Run(sim.Config{Machine: m, Space: sp, Scheduler: sched.NewWS(), Seed: 1}, root)
		if err != nil {
			b.Fatal(err)
		}
		simCycles += res.WallCycles
	}
	ns := float64(b.Elapsed().Nanoseconds())
	b.ReportMetric(ns/float64(simCycles), "ns/simulated-cycle")
	b.ReportMetric(float64(1<<16)*float64(b.N)/b.Elapsed().Seconds(), "accesses/s")
}

// BenchGridFig8 measures the end-to-end wall time of the quick-profile
// Fig. 8 grid with every cell executed live — the unit every experiment
// command is built from, and the baseline the replay benchmark is compared
// against. (The grid runner records and replays traces by default; that
// steady state is measured by BenchReplayFig8, and mixing a cold-cache
// record pass into this number would make it comparable to neither.)
func BenchGridFig8(b *testing.B) {
	p := Quick()
	p.Reps = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewRunner(p, nullWriter{})
		r.Traces = nil
		if _, err := r.Fig8(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(b.Elapsed().Seconds()/float64(b.N), "grid-wall-s")
}

// BenchTraceRecord measures the capture side of record-once/replay-
// everywhere: a live quicksort run with a Recorder attached, writing its
// trace file into memory, reported per recorded op (accesses + work
// segments) together with the encoded trace density.
func BenchTraceRecord(b *testing.B) {
	p := Quick()
	m := p.MachineHT()
	mk := p.QuicksortFactory()
	var ops, opBytes int64
	var file bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := mem.NewSpacePaged(m.Links, m.Links, p.PageSize())
		k := mk(sp, m, p.Seed)
		file.Reset()
		rec := dagtrace.NewRecorder(&file, 0)
		if _, err := sim.Run(sim.Config{
			Machine: m, Space: sp, Scheduler: sched.NewWS(), Seed: p.Seed, Listener: rec,
		}, k.Root()); err != nil {
			b.Fatal(err)
		}
		if err := rec.Finish(); err != nil {
			b.Fatal(err)
		}
		// A one-byte window reads the counts and tables, no frame.
		tr, err := dagtrace.NewTrace(bytes.NewReader(file.Bytes()), int64(file.Len()), 1, nil)
		if err != nil {
			b.Fatal(err)
		}
		ops += tr.AccessOps + tr.WorkOps
		opBytes += tr.OpBytes()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ops), "ns/recorded-op")
	b.ReportMetric(float64(opBytes)/float64(ops), "bytes/recorded-op")
}

// BenchReplayFig8 measures the steady-state replay grid: the quick-profile
// Fig. 8 grid against a cache warmed before the timer, so every cell of
// every iteration replays a recording instead of running kernel closures.
func BenchReplayFig8(b *testing.B) {
	p := Quick()
	p.Reps = 1
	cache, err := dagtrace.NewCache("", 0)
	if err != nil {
		b.Fatal(err)
	}
	warm := NewRunner(p, nullWriter{})
	warm.Traces = cache
	warm.KeepTraces = true
	if _, err := warm.Fig8(); err != nil {
		b.Fatal(err)
	}
	before := cache.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewRunner(p, nullWriter{})
		r.Traces = cache
		r.KeepTraces = true
		if _, err := r.Fig8(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(b.Elapsed().Seconds()/float64(b.N), "grid-wall-s")
	s := cache.Stats()
	hits := float64(s.Hits - before.Hits + s.DiskHits - before.DiskHits)
	total := hits + float64(s.Misses-before.Misses) + float64(s.Fallbacks-before.Fallbacks)
	if total > 0 {
		b.ReportMetric(hits/total, "trace-hit-rate")
	}
}

// benchStream records the quick-profile quicksort once to a temp file
// and opens it through a window of the given byte budget. The file and
// trace are cleaned up with the benchmark. Recording runs under sb — the
// scheduler the replay benchmarks use — so the op stream's frame order
// matches the replay's access order, as it does in the FullCell pipeline
// (a replay whose schedule diverges from the recording order still works,
// but re-fetches frames instead of streaming them).
func benchStream(b *testing.B, window int64) *dagtrace.Trace {
	b.Helper()
	p := Quick()
	m := p.MachineHT()
	sp := mem.NewSpacePaged(m.Links, m.Links, p.PageSize())
	k := p.QuicksortFactory()(sp, m, p.Seed)
	path := filepath.Join(b.TempDir(), "bench.dgts")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	rec := dagtrace.NewRecorder(f, 0)
	if _, err := sim.Run(sim.Config{
		Machine: m, Space: sp, Scheduler: sched.New("sb"), Seed: p.Seed, Listener: rec,
	}, k.Root()); err != nil {
		b.Fatal(err)
	}
	if err := rec.Finish(); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	st, err := dagtrace.OpenTrace(path, window, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { st.Close() })
	return st
}

// BenchWindowedDecode measures the streamed replay path: a framed
// quick-profile quicksort trace replayed on the full machine through a
// window an order of magnitude smaller than its op stream. The headline
// metric is decoded op-stream bytes per second; the decoder's resident
// high-water mark is reported so eviction-policy regressions are visible.
// It replays under the sb scheduler — same as the FullCell pipeline and
// BenchShardedReplay, so the two replay-wall figures are comparable.
func BenchWindowedDecode(b *testing.B) {
	p := Quick()
	m := p.MachineHT()
	st := benchStream(b, 1<<20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rsp := mem.NewSpacePaged(m.Links, m.Links, p.PageSize())
		res, err := sim.Run(sim.Config{
			Machine: m, Space: rsp, Scheduler: sched.New("sb"), Seed: p.Seed,
		}, st.Root())
		if err != nil {
			b.Fatal(err)
		}
		if err := st.CheckResult(res); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(st.OpBytes())*float64(b.N)/b.Elapsed().Seconds(), "opbytes/s")
	b.ReportMetric(float64(st.PeakResidentBytes()), "peak-resident-b")
}

// BenchShardedReplay measures the sharded replay engine over the same
// framed recording: the trace partitioned two pieces per socket, pieces
// leasing scripts from one shared window, per-socket sub-simulations
// fanned over GOMAXPROCS host goroutines and merged deterministically.
// Its replay-wall-s against BenchWindowedDecode's wall time is the
// sharded-vs-unsharded speedup on this host. Replays use the sb
// scheduler: work stealing's random idle polling is pathologically
// expensive to simulate on low-parallelism partition pieces, and sb is
// the scheduler the full-scale pipeline defaults to anyway.
func BenchShardedReplay(b *testing.B) {
	p := Quick()
	m := p.MachineHT()
	st := benchStream(b, 1<<20)
	part, err := st.Partition(2 * m.Levels[0].Fanout)
	if err != nil {
		b.Fatal(err)
	}
	roots := make([]shard.Root, len(part.Pieces))
	for i, pc := range part.Pieces {
		roots[i] = shard.Root{Job: pc.Root, Weight: pc.Weight}
	}
	cfg := shard.Config{
		Machine:   m,
		MakeSched: func() sched.Scheduler { return sched.New("sb") },
		Seed:      p.Seed,
		Shards:    runtime.GOMAXPROCS(0),
		PageSize:  p.PageSize(),
	}
	b.ReportAllocs()
	b.ResetTimer()
	var accesses uint64
	for i := 0; i < b.N; i++ {
		res, err := shard.Replay(cfg, roots)
		if err != nil {
			b.Fatal(err)
		}
		if res.Tasks != st.TaskCount || res.Strands != st.StrandCount {
			b.Fatalf("sharded replay executed %d tasks / %d strands, trace recorded %d / %d",
				res.Tasks, res.Strands, st.TaskCount, st.StrandCount)
		}
		accesses += uint64(res.Accesses)
	}
	b.ReportMetric(b.Elapsed().Seconds()/float64(b.N), "replay-wall-s")
	b.ReportMetric(float64(accesses)/b.Elapsed().Seconds(), "accesses/s")
}

// BenchGridFullscale measures the shared-recording grid executor: a
// quick-profile 1-kernel × 2-scheduler × 2-bandwidth grid, cells
// replayed two at a time off one recording under the shared decoder
// budget. Its grid-wall-s against 4× BenchShardedReplay-plus-record is
// the amortization win the full-scale grid exists for; the recording
// count is asserted so a cache regression (cells silently re-recording)
// fails the harness rather than just slowing it.
func BenchGridFullscale(b *testing.B) {
	p := Quick()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewRunner(p, nullWriter{})
		r.Traces = nil
		r.Workers = 2
		r.Shards = 1
		rep, err := r.FullGrid([]string{"Quicksort"}, []string{"sb", "sbd"}, []int{4, 1})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Recordings != 1 {
			b.Fatalf("grid performed %d recordings, want exactly 1", rep.Recordings)
		}
	}
	b.ReportMetric(b.Elapsed().Seconds()/float64(b.N), "grid-wall-s")
}

type nullWriter struct{}

func (nullWriter) Write(p []byte) (int, error) { return len(p), nil }

// benchSuite lists the harness benchmarks in report order.
var benchSuite = []struct {
	name string
	fn   func(*testing.B)
}{
	{"access_hit", BenchAccessHit},
	{"access_two_streams", BenchAccessTwoStreams},
	{"access_stream", BenchAccessStream},
	{"access_random", BenchAccessRandom},
	{"engine_parallel_for", BenchEngineParallelFor},
	{"grid_fig8_quick", BenchGridFig8},
	{"trace_record", BenchTraceRecord},
	{"replay_fig8", BenchReplayFig8},
	{"windowed_decode", BenchWindowedDecode},
	{"sharded_replay", BenchShardedReplay},
	{"grid_fullscale_smoke", BenchGridFullscale},
}

// RunBenchSuite executes the harness and collects a BenchReport.
func RunBenchSuite() BenchReport {
	rep := BenchReport{
		//schedlint:ignore nondeterminism report metadata timestamp; compared fields exclude it
		GeneratedUnix: time.Now().Unix(),
		GoVersion:     runtime.Version(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
	}
	for _, bm := range benchSuite {
		r := testing.Benchmark(bm.fn)
		e := BenchEntry{
			Name:        bm.name,
			Iterations:  r.N,
			NsPerOp:     r.NsPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		if len(r.Extra) > 0 {
			e.Metrics = make(map[string]float64, len(r.Extra))
			//schedlint:ignore nondeterminism copying into a map; order-insensitive, and the JSON encoder sorts keys
			for k, v := range r.Extra {
				e.Metrics[k] = v
			}
		}
		rep.Benchmarks = append(rep.Benchmarks, e)
	}
	return rep
}

// WriteBenchJSON runs the harness and writes the report to path.
func WriteBenchJSON(path string) error {
	rep := RunBenchSuite()
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
