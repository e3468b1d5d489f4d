package exp

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dagtrace"
	"repro/internal/mem"
	"repro/internal/serve"
	"repro/internal/sim"
)

// Golden fingerprint hashes for the quick profile, one per (kernel,
// scheduler) cell plus one serving stream. They pin the exact observable
// behaviour of the simulator — wall clock, per-worker time buckets, every
// cache's hit/miss/eviction counters, DRAM accounting — so that hot-path
// optimisations (cache-access fast path, chunk batching, strand pooling)
// are provably semantics-preserving: any drift, however small, fails here.
//
// Regenerate with GOLDEN_UPDATE=1 go test ./internal/exp -run Golden -v
// and paste the printed values — but only after convincing yourself the
// change is *supposed* to alter simulated behaviour.
var goldenFingerprints = map[string]string{
	"rrm/ws":        "5ae0d0b253741f4a0882973fd2326d1baefdb0db32164815e4b0ca950ab90d4b",
	"rrm/pws":       "f4936277a6daee14edb6dc3ca3952bfd79857db3b4423d4392884eb7c1d7581f",
	"rrm/sb":        "819a71fa7d028cf9031846678d601696ecb64b45aa1a59875417470ad7699dc2",
	"rrm/sbd":       "ef34bf8add65a4a2cf75dcf327c32c9bada45e9ab2e4c956b478ff135eabf25d",
	"quicksort/ws":  "187bc6a79e8efa27c85f2497967a899dfd0138d2adfe50e493c2b175682ddce7",
	"quicksort/pws": "26023c98f91a9c1acce61e292c152110cb3fe03ec9b3916f052c95c1b6eb189f",
	"quicksort/sb":  "6894c20ab5059c734276dc95cf6cfeba79bdda7d967a6ba92ad6052bd52dc67e",
	"quicksort/sbd": "6b5311363816ebe236c872f872668135ceecf846d8580c920c2148f40550ff0d",
	"serving/sb":    "4f2afe90be7e0eab7cf9cca297654d18155494acfd1d19398395568eadd9eab7",
	"cluster/sweep": "ecaf6f256e496b0425551a8c0206b9fe385c94146bacdec79ef91bbb4a4b8462",
}

func hashFingerprint(fp string) string {
	sum := sha256.Sum256([]byte(fp))
	return hex.EncodeToString(sum[:])
}

// checkGolden compares a fingerprint against its pinned hash, dumping the
// full fingerprint to a temp file on mismatch so divergences can be
// diffed line by line.
func checkGolden(t *testing.T, key, fp string) {
	t.Helper()
	got := hashFingerprint(fp)
	if os.Getenv("GOLDEN_UPDATE") != "" {
		t.Logf("golden %q: %q", key, got)
		return
	}
	want, ok := goldenFingerprints[key]
	if !ok {
		t.Fatalf("no golden fingerprint recorded for %q (got %s)", key, got)
	}
	if got != want {
		path := filepath.Join(t.TempDir(), "fingerprint.txt")
		_ = os.WriteFile(path, []byte(fp), 0o644)
		t.Errorf("%s: fingerprint hash %s != golden %s — simulated behaviour changed; full fingerprint dumped to %s", key, got, want, path)
	}
}

// TestGoldenDeterminism runs the quick profile's RRM and quicksort cells
// under all four paper schedulers and requires byte-identical Result
// fingerprints across code changes.
func TestGoldenDeterminism(t *testing.T) {
	p := Quick()
	m := p.MachineHT()
	kernels := []struct {
		name string
		mk   KernelFactory
	}{
		{"rrm", p.RRMFactory()},
		{"quicksort", p.QuicksortFactory()},
	}
	for _, k := range kernels {
		for _, sc := range []string{"ws", "pws", "sb", "sbd"} {
			t.Run(k.name+"/"+sc, func(t *testing.T) {
				sp := mem.NewSpacePaged(m.Links, m.Links, p.PageSize())
				kern := k.mk(sp, m, p.Seed)
				res, err := sim.Run(sim.Config{
					Machine:   m,
					Space:     sp,
					Scheduler: SchedulerFactories(sc)[0](),
					Seed:      p.Seed,
				}, kern.Root())
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				if err := kern.Verify(); err != nil {
					t.Fatalf("verify: %v", err)
				}
				checkGolden(t, k.name+"/"+sc, res.Fingerprint())
			})
		}
	}
}

// TestLiveReplayEquivalence is the soundness gate for record-once/
// replay-everywhere: for every kernel in the quick profile, record one
// execution (under ws), then require that replaying the capture under
// EVERY scheduler produces a Result fingerprint bit-identical to a live
// run of the kernel's closures under that scheduler. It also pins the two
// auxiliary identities the design rests on: the recording run itself
// matches the live run (attaching the recorder perturbs nothing), and
// re-recording a replay reproduces the original trace (replay is a fixed
// point of record).
func TestLiveReplayEquivalence(t *testing.T) {
	p := Quick()
	m := p.MachineHT()
	kernels := []struct {
		name string
		mk   KernelFactory
	}{
		{"rrm", p.RRMFactory()},
		{"rrg", p.RRGFactory()},
		{"quicksort", p.QuicksortFactory()},
		{"samplesort", p.SamplesortFactory()},
		{"awaresamplesort", p.AwareSamplesortFactory()},
		{"quadtree", p.QuadtreeFactory()},
		{"matmul", p.MatMulFactory()},
	}
	schedulers := []string{"ws", "pws", "cilk", "sb", "sbd", "pdf"}
	if raceDetectorEnabled {
		// The full matrix is ~100 simulated runs and exceeds the package
		// test timeout under the race detector's slowdown. Keep one
		// data-parallel and one fork-heavy kernel and one scheduler per
		// family; the full matrix runs in the regular suite and in
		// `make bench-replay`.
		trimmed := kernels[:0:0]
		for _, k := range kernels {
			if k.name == "rrm" || k.name == "quicksort" {
				trimmed = append(trimmed, k)
			}
		}
		kernels = trimmed
		schedulers = []string{"ws", "sb"}
	}
	live := func(k KernelFactory, sc string, l sim.Listener) *sim.Result {
		t.Helper()
		sp := mem.NewSpacePaged(m.Links, m.Links, p.PageSize())
		kern := k(sp, m, p.Seed)
		res, err := sim.Run(sim.Config{
			Machine: m, Space: sp, Scheduler: SchedulerFactories(sc)[0](), Seed: p.Seed, Listener: l,
		}, kern.Root())
		if err != nil {
			t.Fatalf("live %s: %v", sc, err)
		}
		if err := kern.Verify(); err != nil {
			t.Fatalf("live %s: verify: %v", sc, err)
		}
		return res
	}
	replay := func(tr *dagtrace.Trace, sc string, l sim.Listener) *sim.Result {
		t.Helper()
		sp := mem.NewSpacePaged(m.Links, m.Links, p.PageSize())
		res, err := sim.Run(sim.Config{
			Machine: m, Space: sp, Scheduler: SchedulerFactories(sc)[0](), Seed: p.Seed, Listener: l,
		}, tr.Root())
		if err != nil {
			t.Fatalf("replay %s: %v", sc, err)
		}
		if err := tr.CheckResult(res); err != nil {
			t.Fatalf("replay %s: %v", sc, err)
		}
		return res
	}
	for _, k := range kernels {
		k := k
		t.Run(k.name, func(t *testing.T) {
			t.Parallel()
			var file bytes.Buffer
			rec := dagtrace.NewRecorder(&file, 0)
			recRes := live(k.mk, "ws", rec)
			tr := openRecording(t, rec, &file)
			if got, want := recRes.Fingerprint(), live(k.mk, "ws", nil).Fingerprint(); got != want {
				t.Fatalf("recording run diverged from plain live run")
			}
			for _, sc := range schedulers {
				if got, want := replay(tr, sc, nil).Fingerprint(), live(k.mk, sc, nil).Fingerprint(); got != want {
					t.Errorf("%s/%s: replay fingerprint differs from live", k.name, sc)
				}
			}
			var file2 bytes.Buffer
			rec2 := dagtrace.NewRecorder(&file2, 0)
			replay(tr, "ws", rec2)
			tr2 := openRecording(t, rec2, &file2)
			if traceFingerprint(t, tr) != traceFingerprint(t, tr2) {
				t.Errorf("%s: trace of replay differs from original trace", k.name)
			}
		})
	}
}

// openRecording finishes a recording made into file and opens it
// resident.
func openRecording(t *testing.T, rec *dagtrace.Recorder, file *bytes.Buffer) *dagtrace.Trace {
	t.Helper()
	if err := rec.Finish(); err != nil {
		t.Fatalf("recording: %v", err)
	}
	tr, err := dagtrace.NewTrace(bytes.NewReader(file.Bytes()), int64(file.Len()), math.MaxInt64, nil)
	if err != nil {
		t.Fatalf("opening recording: %v", err)
	}
	return tr
}

// traceFingerprint is Trace.Fingerprint with the error failing the test.
func traceFingerprint(t *testing.T, tr *dagtrace.Trace) string {
	t.Helper()
	fp, err := tr.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

// goldenTraceFingerprints pins the canonical content of the five quick
// Fig. 8 recordings (ws, seed 1): counts, node table, child lists and
// every strand's script in node order. The values were computed by the
// whole-arena trace format this file format replaced; they must not
// depend on where the recorder places scripts in the file.
var goldenTraceFingerprints = map[string]string{
	"Quicksort":       "4e99b6225ae89d64486a483a5a038a57f7d128496150ec097b568b2343b79fae",
	"Samplesort":      "dc49fa3b50ab8f3b950cafe02e1bfa612b3d76259c0413cd3bd36120da24b108",
	"AwareSamplesort": "fc2fa000dc4ed4525455303520090455d694addde0352f5b20c89d8a3969606d",
	"Quad-Tree":       "d591d54dc9f5dd90b0d26bc3274f7b0d997cf4fac8bbc04685cc27458c529077",
	"MatMul":          "1c999fe0f5715e27545dd68c627e76f0695cead46cec166eda1a3726f36eaa84",
}

// TestGoldenTraceFingerprints records each quick Fig. 8 kernel under ws
// and checks its trace fingerprint against the golden table, read both
// resident and through a one-frame window of a small-frame file (scripts
// then straddle frame boundaries in completion order).
func TestGoldenTraceFingerprints(t *testing.T) {
	p := Quick()
	m := p.MachineHT()
	for kernel, want := range goldenTraceFingerprints {
		mk, err := p.FullKernelFactory(kernel)
		if err != nil {
			t.Fatal(err)
		}
		sp := mem.NewSpacePaged(m.Links, m.Links, p.PageSize())
		k := mk(sp, m, p.Seed)
		var file bytes.Buffer
		rec := dagtrace.NewRecorder(&file, 1<<16)
		if _, err := sim.Run(sim.Config{
			Machine: m, Space: sp, Scheduler: SchedulerFactories("ws")[0](), Seed: p.Seed, Listener: rec,
		}, k.Root()); err != nil {
			t.Fatalf("%s: %v", kernel, err)
		}
		tr := openRecording(t, rec, &file)
		if got := traceFingerprint(t, tr); got != want {
			t.Errorf("%s: resident trace fingerprint %s, golden %s", kernel, got, want)
		}
		st, err := dagtrace.NewTrace(bytes.NewReader(file.Bytes()), int64(file.Len()), 1<<16, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := traceFingerprint(t, st); got != want {
			t.Errorf("%s: windowed trace fingerprint %s, golden %s", kernel, got, want)
		}
	}
}

// TestGoldenServing pins an online-serving (RunStream) fingerprint as
// well: injections, admission queueing and fast-forward idle gaps take
// engine paths the batch cells never touch, and the chunk-batching fast
// path must leave them untouched too.
func TestGoldenServing(t *testing.T) {
	mix, err := serve.NewMix(
		serve.MixEntry{Kernel: "rrm", N: 2000, Weight: 2},
		serve.MixEntry{Kernel: "quicksort", N: 3000, Weight: 1},
	)
	if err != nil {
		t.Fatalf("NewMix: %v", err)
	}
	rep, err := serve.Run(serve.Config{
		Machine:   Quick().MachineHT(),
		Scheduler: "sb",
		Arrivals: serve.NewPoisson(serve.PoissonConfig{
			MeanGap: 50_000,
			MaxJobs: 8,
			Mix:     mix,
			Seed:    42,
		}),
		Admission:   serve.NewBoundedQueue(4, -1),
		Seed:        7,
		SampleEvery: 200_000,
	})
	if err != nil {
		t.Fatalf("serve.Run: %v", err)
	}
	checkGolden(t, "serving/sb", rep.Fingerprint())
}
