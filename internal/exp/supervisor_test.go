package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/dagtrace"
	"repro/internal/runlog"
)

func newGridRunner(out io.Writer) *Runner {
	r := NewRunner(Quick(), out)
	r.ReplayWindow = 1 << 22
	r.Shards = 1
	r.Workers = 1
	return r
}

// TestFullGridResumeEquivalence is the supervisor's determinism pin: a
// grid interrupted mid-run and resumed from its journal must produce
// per-cell fingerprints — and rendered result tables — byte-identical
// to the same grid run uninterrupted, while executing only the cells
// the journal does not already hold.
func TestFullGridResumeEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid pipeline")
	}
	kernels := []string{"Quicksort"}
	scheds := []string{"sb", "sbd"}
	bands := []int{4, 1}
	runDir := filepath.Join(t.TempDir(), "run")

	// Pass 1: interrupt after two cells. Workers=1 makes the cut point
	// deterministic — the hook cancels before the worker picks up cell 3.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	executed := 0
	r := newGridRunner(io.Discard)
	rep1, err := r.FullGridRun(ctx, kernels, scheds, bands, GridRunOpts{
		RunDir: runDir,
		OnCellDone: func(GridCell, *FullCellReport, error) {
			executed++
			if executed == 2 {
				cancel()
			}
		},
	})
	if !errors.Is(err, ErrGridInterrupted) {
		t.Fatalf("interrupted run: err=%v, want ErrGridInterrupted", err)
	}
	if rep1 == nil || !rep1.Partial {
		t.Fatalf("interrupted run: report %+v not marked partial", rep1)
	}
	if executed != 2 {
		t.Fatalf("interrupted run executed %d cells, want 2", executed)
	}
	done1 := 0
	for _, c := range rep1.Cells {
		if c != nil {
			done1++
		}
	}
	if done1 != 2 {
		t.Fatalf("interrupted run finished %d cells, want 2", done1)
	}

	// Pass 2: resume. Only the two remaining cells may execute; the two
	// journaled ones come back marked Resumed.
	executed = 0
	r2 := newGridRunner(io.Discard)
	rep2, err := r2.FullGridRun(context.Background(), kernels, scheds, bands, GridRunOpts{
		RunDir: runDir, Resume: true,
		OnCellDone: func(GridCell, *FullCellReport, error) { executed++ },
	})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if rep2.Resumed != 2 {
		t.Errorf("resume restored %d cells, want 2", rep2.Resumed)
	}
	if executed != 2 {
		t.Errorf("resume executed %d cells, want 2", executed)
	}
	resumed := 0
	for i, c := range rep2.Cells {
		if c == nil {
			t.Fatalf("resume: cell %d missing", i)
		}
		if c.Resumed {
			resumed++
		}
	}
	if resumed != 2 {
		t.Errorf("resume: %d cells marked Resumed, want 2", resumed)
	}

	// Reference: the same grid uninterrupted, adopting the recordings the
	// journaled run already framed (adoption cannot change results — the
	// file is content-addressed by the computation key).
	refCache, err := dagtrace.NewStreamCache(filepath.Join(runDir, "traces"), 0)
	if err != nil {
		t.Fatal(err)
	}
	rRef := newGridRunner(io.Discard)
	rRef.FramedTraces = refCache
	ref, err := rRef.FullGrid(kernels, scheds, bands)
	if err != nil {
		t.Fatalf("reference grid: %v", err)
	}
	for i := range ref.Cells {
		got, want := rep2.Cells[i], ref.Cells[i]
		if got.Fingerprint != want.Fingerprint || got.ShardedWall != want.ShardedWall {
			t.Errorf("cell %d (%s/bw=%d): resumed fp=%s wall=%d, uninterrupted fp=%s wall=%d",
				i, want.Scheduler, want.LinksUsed,
				got.Fingerprint, got.ShardedWall, want.Fingerprint, want.ShardedWall)
		}
	}
	var gotTab, wantTab bytes.Buffer
	rep2.printTables(&gotTab)
	ref.printTables(&wantTab)
	if gotTab.String() != wantTab.String() {
		t.Errorf("resumed tables differ from uninterrupted run:\n--- resumed\n%s--- uninterrupted\n%s",
			gotTab.String(), wantTab.String())
	}

	// The journal's merged state agrees: every cell done, none failed.
	_, _, recs, err := runlog.Open(runDir)
	if err != nil {
		t.Fatal(err)
	}
	states := runlog.Reduce(recs)
	if len(states) != len(ref.Cells) {
		t.Errorf("journal holds %d cells, want %d", len(states), len(ref.Cells))
	}
	for id, st := range states {
		if st.Status != runlog.StatusDone {
			t.Errorf("journal cell %s: status %s, want done", id, st.Status)
		}
	}
}

// TestFullGridDeadlineRetry pins the watchdog + retry path: a cell whose
// attempts all exceed a tiny host deadline is journaled as failed (with
// the run surviving to report it), and a later resume with a sane
// deadline completes the cell with a monotonic attempt count.
func TestFullGridDeadlineRetry(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid pipeline")
	}
	kernels := []string{"Quicksort"}
	scheds := []string{"sb"}
	bands := []int{1}
	runDir := filepath.Join(t.TempDir(), "run")

	r := newGridRunner(io.Discard)
	rep, err := r.FullGridRun(context.Background(), kernels, scheds, bands, GridRunOpts{
		RunDir:       runDir,
		CellDeadline: time.Nanosecond, // every attempt is abandoned immediately
		CellRetries:  1,
		RetryBackoff: time.Millisecond,
	})
	if !errors.Is(err, ErrGridCellsFailed) {
		t.Fatalf("deadline run: err=%v, want ErrGridCellsFailed", err)
	}
	if rep == nil || rep.Failed != 1 || len(rep.Failures) != 1 {
		t.Fatalf("deadline run: report %+v, want exactly one failure", rep)
	}
	if rep.Retries != 1 {
		t.Errorf("deadline run counted %d retries, want 1", rep.Retries)
	}
	if !strings.Contains(rep.Failures[0].Error, "host deadline") {
		t.Errorf("failure %q does not mention the deadline", rep.Failures[0].Error)
	}

	// Resume without a deadline: the cell runs to completion and its
	// attempt number continues where the journal left off (2 failed
	// attempts + 1 success = 3).
	r2 := newGridRunner(io.Discard)
	rep2, err := r2.FullGridRun(context.Background(), kernels, scheds, bands, GridRunOpts{
		RunDir: runDir, Resume: true,
	})
	if err != nil {
		t.Fatalf("resume after deadline failures: %v", err)
	}
	c := rep2.Cells[0]
	if c == nil || c.Fingerprint == "" {
		t.Fatalf("resume did not complete the cell: %+v", c)
	}
	if c.Attempts != 3 {
		t.Errorf("resumed cell attempt %d, want 3 (monotonic across processes)", c.Attempts)
	}
}

// TestSplitBudget pins the grid's sizing rule: workers capped at one
// frame of budget each and at the cell count (never below 1), and every
// cell's window the smaller of the requested window and an even share.
func TestSplitBudget(t *testing.T) {
	const mib = int64(1 << 20)
	for _, c := range []struct {
		budget, window int64
		workers, cells int
		wantWorkers    int
		wantWindow     int64
	}{
		{16 * mib, 16 * mib, 2, 4, 2, 8 * mib},    // the default x16 grid: two 8 MiB halves
		{16 * mib, 4 * mib, 2, 4, 2, 4 * mib},     // window already under the share
		{16 * mib, 16 * mib, 4, 2, 2, 8 * mib},    // more workers than cells
		{16 * mib, 16 * mib, 32, 64, 16, 1 * mib}, // one frame per worker at most
		{3 * mib, 16 * mib, 2, 4, 2, 3 * mib / 2},
		{mib, 4 * mib, 2, 4, 1, mib}, // room for one frame: one worker
		{1, 16 * mib, 2, 2, 1, 1},    // tiny budget: one worker, the stream clamps up to a frame
		{16 * mib, 16 * mib, 2, 0, 1, 16 * mib},
	} {
		w, win := splitBudget(c.budget, c.window, c.workers, c.cells)
		if w != c.wantWorkers || win != c.wantWindow {
			t.Errorf("splitBudget(budget=%d, window=%d, workers=%d, cells=%d) = (%d, %d), want (%d, %d)",
				c.budget, c.window, c.workers, c.cells, w, win, c.wantWorkers, c.wantWindow)
		}
		if c.budget >= dagtrace.DefaultFrameSize && int64(w)*win > c.budget {
			t.Errorf("budget=%d: %d windows of %d overdraw the bucket", c.budget, w, win)
		}
	}
}

// gridReferences runs every cell of a one-kernel grid alone through
// FullCellAt (the sequential reference) off the given cache.
func gridReferences(t *testing.T, cache *dagtrace.StreamCache, kernel string, scheds []string, bands []int) map[GridCell]*FullCellReport {
	t.Helper()
	ref := newGridRunner(io.Discard)
	ref.FramedTraces = cache
	out := map[GridCell]*FullCellReport{}
	for _, sn := range scheds {
		for _, b := range bands {
			want, err := ref.FullCellAt(kernel, sn, b)
			if err != nil {
				t.Fatal(err)
			}
			out[GridCell{kernel, sn, b}] = want
		}
	}
	return out
}

// TestFullGridTinyBudgetOneWorker runs a grid under a 1-byte shared
// budget with two workers requested: the split rule leaves room for one
// frame at most, so the grid clamps to one worker. Results must match
// the sequential references, and the grid's own drain check (an error
// unless Budget.Used()==0 after the last cell) must pass.
func TestFullGridTinyBudgetOneWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid pipeline")
	}
	cache, err := dagtrace.NewStreamCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	r := newGridRunner(io.Discard)
	r.Workers = 2
	r.GridBudget = 1
	r.FramedTraces = cache
	scheds := []string{"sb", "sbd"}
	rep, err := r.FullGrid([]string{"Quicksort"}, scheds, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Workers != 1 {
		t.Errorf("1-byte budget ran %d workers, want 1", rep.Workers)
	}
	refs := gridReferences(t, cache, "Quicksort", scheds, []int{1})
	for _, c := range rep.Cells {
		want := refs[GridCell{c.Kernel, c.Scheduler, c.LinksUsed}]
		if c.Fingerprint != want.Fingerprint || c.ShardedWall != want.ShardedWall {
			t.Errorf("cell %s/%s: grid fp %s wall %d != reference fp %s wall %d",
				c.Kernel, c.Scheduler, c.Fingerprint, c.ShardedWall, want.Fingerprint, want.ShardedWall)
		}
	}
}

// TestFullGridSplitWindowEquivalence runs two workers under a 16 MiB
// budget with a 16 MiB window requested: both cells run at once, each
// with an 8 MiB share, and every result matches the sequential
// references replayed through the full window.
func TestFullGridSplitWindowEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid pipeline")
	}
	cache, err := dagtrace.NewStreamCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	r := newGridRunner(io.Discard)
	r.Workers = 2
	r.GridBudget = 16 << 20
	r.ReplayWindow = 16 << 20
	r.FramedTraces = cache
	scheds := []string{"sb", "sbd"}
	rep, err := r.FullGrid([]string{"Quicksort"}, scheds, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	const share = 8 << 20
	if rep.Workers != 2 || rep.Window != share {
		t.Errorf("grid ran workers=%d window=%d, want 2 and %d", rep.Workers, rep.Window, share)
	}
	refs := gridReferences(t, cache, "Quicksort", scheds, []int{1})
	for _, c := range rep.Cells {
		if c.Window != share {
			t.Errorf("cell %s: window %d, want the %d share", c.Scheduler, c.Window, share)
		}
		want := refs[GridCell{c.Kernel, c.Scheduler, c.LinksUsed}]
		if c.Fingerprint != want.Fingerprint || c.ShardedWall != want.ShardedWall {
			t.Errorf("cell %s: split window fp %s wall %d != reference fp %s wall %d",
				c.Scheduler, c.Fingerprint, c.ShardedWall, want.Fingerprint, want.ShardedWall)
		}
	}
}

// TestFullGridResumeOldJournal resumes a journal written before degraded
// mode was removed: its done record carries "degraded":true and its
// stored report "Degraded":true. Both fields are unknown now and must be
// ignored — the cell is restored, and the rendered tables and
// fingerprints equal an uninterrupted run's byte for byte.
func TestFullGridResumeOldJournal(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid pipeline")
	}
	kernels := []string{"Quicksort"}
	scheds := []string{"sb", "sbd"}
	bands := []int{1}
	runDir := filepath.Join(t.TempDir(), "run")

	// The uninterrupted reference, whose recording the resumed run adopts.
	cache, err := dagtrace.NewStreamCache(filepath.Join(runDir, "traces"), 0)
	if err != nil {
		t.Fatal(err)
	}
	rRef := newGridRunner(io.Discard)
	rRef.FramedTraces = cache
	ref, err := rRef.FullGrid(kernels, scheds, bands)
	if err != nil {
		t.Fatal(err)
	}

	// Hand-write the journal: manifest, then one done record for the sb
	// cell in the old wire format, checksum and all.
	m := rRef.P.MachineHT()
	man := &runlog.Manifest{
		Version: runlog.Version, Profile: rRef.P.Name, Machine: m.Name, Seed: rRef.P.Seed,
		Kernels: kernels, Scheds: scheds, Bands: bands, Cells: 2,
	}
	j, err := runlog.Create(runDir, man)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	var old map[string]any
	stored, err := json.Marshal(ref.Cells[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(stored, &old); err != nil {
		t.Fatal(err)
	}
	old["Degraded"] = true
	report, err := json.Marshal(old)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := json.Marshal(map[string]any{
		"seq": 1, "cell": cellID(ref.Grid[0]), "key": rRef.gridCellKey(ref.Grid[0], m),
		"status": "done", "attempt": 1, "degraded": true, "report": json.RawMessage(report),
	})
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(payload)
	line := fmt.Sprintf("%016x %s\n", h.Sum64(), payload)
	if err := os.WriteFile(filepath.Join(runDir, "cells.log"), []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}

	r := newGridRunner(io.Discard)
	rep, err := r.FullGridRun(context.Background(), kernels, scheds, bands, GridRunOpts{RunDir: runDir, Resume: true})
	if err != nil {
		t.Fatalf("resume of an old journal: %v", err)
	}
	if rep.Resumed != 1 || rep.Cells[0] == nil || !rep.Cells[0].Resumed {
		t.Fatalf("old journal's done cell not restored: resumed=%d cell0=%+v", rep.Resumed, rep.Cells[0])
	}
	for i := range ref.Cells {
		if rep.Cells[i].Fingerprint != ref.Cells[i].Fingerprint {
			t.Errorf("cell %d: resumed fp %s != uninterrupted %s", i, rep.Cells[i].Fingerprint, ref.Cells[i].Fingerprint)
		}
	}
	var gotTab, wantTab bytes.Buffer
	rep.printTables(&gotTab)
	ref.printTables(&wantTab)
	if gotTab.String() != wantTab.String() {
		t.Errorf("resumed tables differ from uninterrupted run:\n--- resumed\n%s--- uninterrupted\n%s",
			gotTab.String(), wantTab.String())
	}
}

// TestFullGridRunRejects pins the supervisor's refusal paths.
func TestFullGridRunRejects(t *testing.T) {
	kernels := []string{"Quicksort"}
	scheds := []string{"sb"}
	r := NewRunner(Quick(), io.Discard)

	if _, err := r.FullGridRun(context.Background(), kernels, scheds, nil, GridRunOpts{Resume: true}); err == nil {
		t.Error("Resume without RunDir accepted")
	}

	runDir := filepath.Join(t.TempDir(), "run")
	man := &runlog.Manifest{
		Version: runlog.Version, Profile: "other-profile", Machine: "m", Seed: 1,
		Kernels: kernels, Scheds: scheds, Bands: []int{1}, Cells: 1,
	}
	j, err := runlog.Create(runDir, man)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, err := r.FullGridRun(context.Background(), kernels, scheds, nil, GridRunOpts{RunDir: runDir}); err == nil {
		t.Error("fresh run over an existing journal accepted")
	}
	if _, err := r.FullGridRun(context.Background(), kernels, scheds, nil, GridRunOpts{RunDir: runDir, Resume: true}); err == nil {
		t.Error("resume with a mismatched manifest accepted")
	}
}
