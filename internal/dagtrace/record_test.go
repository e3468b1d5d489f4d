package dagtrace

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/sim"
)

// TestRecorderBuffersOnlyStrandsInFlight records the quick-profile
// quicksort (60k elements on the 1/256-scale Xeon) straight into a file
// and checks the recorder's op-byte footprint: the scripts of unfinished
// strands plus the partial frame must peak well below the trace's op
// stream — the recorder writes scripts out as strands finish instead of
// holding the run's whole op stream until Finish.
func TestRecorderBuffersOnlyStrandsInFlight(t *testing.T) {
	m := machine.Scaled(machine.Xeon7560HT(), 256)
	sp := mem.NewSpace(m.Links, m.Links)
	k := kernels.NewQuicksort(sp, kernels.QuicksortConfig{
		N: 60_000, SerialCutoff: 64, PartCutoff: 512, Chunk: 64, Seed: 1,
	})
	path := filepath.Join(t.TempDir(), "quicksort.dgts")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(f, 0)
	if _, err := sim.Run(sim.Config{
		Machine: m, Space: sp, Scheduler: sched.NewWS(), Seed: 1, Listener: rec,
	}, k.Root()); err != nil {
		t.Fatal(err)
	}
	if err := rec.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := OpenTrace(path, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if rec.peakBuffered <= 0 || rec.peakBuffered >= tr.OpBytes()/8 {
		t.Fatalf("recorder buffered up to %d op bytes of a %d-byte op stream, want (0, 1/8)",
			rec.peakBuffered, tr.OpBytes())
	}
	t.Logf("peak buffered %d of %d op bytes", rec.peakBuffered, tr.OpBytes())
}
