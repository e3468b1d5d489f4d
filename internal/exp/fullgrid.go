package exp

// The full-scale Fig. 8/Fig. 9 grid: every kernel × scheduler ×
// bandwidth cell at a FullScale profile, sharing one framed recording
// per kernel and one decoder-memory budget across concurrently
// replaying cells. A K-kernel, S-scheduler, B-bandwidth grid performs K
// recordings (not K·S·B) — the record stage is over half of a cell's
// wall-clock, so the grid amortizes the dominant cost — and its
// per-cell fingerprints are bit-identical to running each cell alone
// through FullCellAt, invariant under -shards, worker count and budget
// (pinned by TestFullGridEquivalence).
//
// FullGridRun is the supervised entry point (journal, resume, deadline,
// retries — see supervisor.go); FullGrid is the unsupervised wrapper the
// smaller experiments and older callers use.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/dagtrace"
	"repro/internal/runlog"
	"repro/internal/sched"
)

// GridCell names one full-scale grid point.
type GridCell struct {
	Kernel    string
	Scheduler string
	LinksUsed int // DRAM links in use (Fig. 8: all, Fig. 9: 1)
}

// FullGridReport is the outcome of one full-scale grid run.
type FullGridReport struct {
	Profile string
	Machine string
	Shards  int
	Window  int64 // every cell's decoder window, from splitBudget
	Workers int   // cells run at once, from splitBudget

	// Grid lists every grid point in input order; Cells holds the report
	// at the same index, nil for a cell that did not finish (pending
	// after an interrupt, or failed).
	Grid  []GridCell
	Cells []*FullCellReport

	// Recordings counts cells that produced a framed recording;
	// SharedCells counts cells that reused one. Recordings equals the
	// number of distinct kernels when the cache starts cold, and 0 when
	// every recording was adopted from a previous run's directory.
	Recordings  int
	SharedCells int

	// Supervisor outcome counters (see supervisor.go). Resumed cells were
	// restored from the run journal; Retries/Quarantines count this
	// process's re-attempts and recording evictions; Abandoned counts
	// watchdog-expired attempt goroutines still running when the grid gave
	// up waiting.
	Resumed     int
	Retries     int
	Quarantines int
	Abandoned   int

	// Partial marks an interrupted run (context canceled before every
	// cell finished); Failed counts cells that exhausted their retries,
	// detailed in Failures. Either way the run resumes from its journal.
	Partial  bool
	Failed   int
	Failures []GridCellFailure

	// GridSec is the host wall-clock of the whole grid; SumCellSec is the
	// sum of every cell's stage times — what the same cells would cost run
	// back to back — so GridSec vs SumCellSec is the grid's concurrency +
	// sharing win.
	GridSec    float64
	SumCellSec float64

	// BudgetBytes is the shared token bucket's size; PeakBudgetBytes its
	// high-water mark over all concurrent windows — the grid-wide analogue
	// of one stream's PeakResidentBytes.
	BudgetBytes     int64
	PeakBudgetBytes int64

	// CacheStats snapshots the framed-trace cache delta over the grid.
	CacheStats dagtrace.Stats
}

// FullGrid runs the kernels × schedNames × bands grid of full-scale
// cells concurrently on r.Workers host goroutines. All cells of one
// kernel share a single framed recording (r.FramedTraces when set, else
// a grid-lifetime temp cache): the first cell to arrive records under
// FullRecordSched, everyone else blocks on the cache and replays the
// same file. Every cell's decoder window draws on one shared budget of
// r.GridBudget bytes, split evenly between the cells that run at once
// (splitBudget), so grid peak decoder memory tracks a single cell's
// rather than multiplying by the worker count. Cells skip the
// unsharded full-machine replay (the cell experiment's cross-check);
// their results come from the sharded per-socket replay, which is where
// the full-scale numbers come from anyway.
func (r *Runner) FullGrid(kernels, schedNames []string, bands []int) (*FullGridReport, error) {
	return r.FullGridRun(context.Background(), kernels, schedNames, bands, GridRunOpts{})
}

// FullGridRun is FullGrid under a run supervisor: with a RunDir every
// cell outcome is journaled crash-safely and the run resumes (Resume)
// skipping cells whose journaled inputs-fingerprint still matches;
// CellDeadline/CellRetries bound and retry misbehaving cells.
// Canceling ctx drains gracefully: running cells finish (unless
// abandoned by their deadline), pending cells stay pending, and the
// partial report comes back wrapped in ErrGridInterrupted.
func (r *Runner) FullGridRun(ctx context.Context, kernels, schedNames []string, bands []int, opts GridRunOpts) (*FullGridReport, error) {
	m := r.P.MachineHT()
	if len(kernels) == 0 || len(schedNames) == 0 {
		return nil, fmt.Errorf("exp: full grid needs at least one kernel and one scheduler")
	}
	if len(bands) == 0 {
		bands = []int{m.Links}
	}
	for _, k := range kernels {
		if _, err := r.P.FullKernelFactory(k); err != nil {
			return nil, err
		}
	}
	for _, sn := range schedNames {
		if sched.New(sn) == nil {
			return nil, fmt.Errorf("exp: unknown scheduler %q (want one of %v)", sn, sched.Names())
		}
	}
	for _, b := range bands {
		if b < 1 || b > m.Links {
			return nil, fmt.Errorf("exp: bandwidth %d out of range 1..%d links", b, m.Links)
		}
	}

	cells := make([]GridCell, 0, len(kernels)*len(schedNames)*len(bands))
	for _, k := range kernels {
		for _, sn := range schedNames {
			for _, b := range bands {
				cells = append(cells, GridCell{Kernel: k, Scheduler: sn, LinksUsed: b})
			}
		}
	}

	// Journal: create fresh, or reopen and reduce for resume. The
	// manifest pins the run's identity; resuming under a different
	// profile, machine, seed or grid is refused rather than silently
	// mixing results.
	var (
		journal *runlog.Journal
		prior   map[runlog.CellID]*runlog.CellState
	)
	if opts.Resume && opts.RunDir == "" {
		return nil, fmt.Errorf("exp: resume needs a run directory")
	}
	if opts.RunDir != "" {
		man := &runlog.Manifest{
			Version: runlog.Version, Profile: r.P.Name, Machine: m.Name, Seed: r.P.Seed,
			Kernels: append([]string(nil), kernels...),
			Scheds:  append([]string(nil), schedNames...),
			Bands:   append([]int(nil), bands...),
			Cells:   len(cells),
		}
		if runlog.Exists(opts.RunDir) {
			if !opts.Resume {
				return nil, fmt.Errorf("exp: run directory %s already holds a journal; resume it or pick a fresh directory", opts.RunDir)
			}
			j, got, recs, err := runlog.Open(opts.RunDir)
			if err != nil {
				return nil, err
			}
			if err := got.Match(man); err != nil {
				j.Close()
				return nil, fmt.Errorf("exp: refusing to resume %s: %w", opts.RunDir, err)
			}
			journal = j
			prior = runlog.Reduce(recs)
			if journal.Dropped > 0 && r.Verbose {
				fmt.Fprintf(r.Out, "# journal: dropped %d damaged tail byte(s) left by a crash mid-append\n", journal.Dropped)
			}
		} else {
			var err error
			if journal, err = runlog.Create(opts.RunDir, man); err != nil {
				return nil, err
			}
		}
		defer journal.Close()
	}

	cache := r.FramedTraces
	if cache == nil {
		if opts.RunDir != "" {
			// Recordings live inside the run directory, so a resumed or
			// retried process adopts them from disk instead of re-recording.
			var err error
			if cache, err = dagtrace.NewStreamCache(filepath.Join(opts.RunDir, "traces"), 0); err != nil {
				return nil, err
			}
		} else {
			dir, err := os.MkdirTemp("", "fullgrid-")
			if err != nil {
				return nil, err
			}
			defer os.RemoveAll(dir)
			if cache, err = dagtrace.NewStreamCache(dir, 0); err != nil {
				return nil, err
			}
		}
	}
	before := cache.Stats()
	budgetBytes := r.GridBudget
	if budgetBytes <= 0 {
		budgetBytes = r.ReplayWindow
		if budgetBytes < dagtrace.DefaultWindowBytes {
			budgetBytes = dagtrace.DefaultWindowBytes
		}
	}
	budget := dagtrace.NewBudget(budgetBytes)
	rep := &FullGridReport{
		Profile: r.P.Name, Machine: m.Name, Shards: r.Shards,
		Grid:        cells,
		Cells:       make([]*FullCellReport, len(cells)),
		BudgetBytes: budgetBytes,
	}

	// Resume: restore completed cells from the journal. A stored report
	// is trusted only when its journaled key equals the cell's freshly
	// computed inputs-fingerprint — anything else (stale key, torn
	// report) re-dispatches the cell.
	keys := make([]string, len(cells))
	priorAtt := make([]int, len(cells))
	pending := make([]int, 0, len(cells))
	for i, c := range cells {
		keys[i] = r.gridCellKey(c, m)
		if st := prior[cellID(c)]; st != nil {
			priorAtt[i] = st.Attempts
			if st.Status == runlog.StatusDone && st.Key == keys[i] && len(st.Report) > 0 {
				var cr FullCellReport
				if err := json.Unmarshal(st.Report, &cr); err == nil && cr.Fingerprint != "" {
					cr.Resumed = true
					rep.Cells[i] = &cr
					rep.Resumed++
					if r.Verbose {
						fmt.Fprintf(r.Out, "# resumed %-16s %-4s bw=%d/%d from journal (attempt %d)\n",
							c.Kernel, c.Scheduler, c.LinksUsed, m.Links, cr.Attempts)
					}
					continue
				}
			}
		}
		pending = append(pending, i)
	}

	window := r.ReplayWindow
	if window <= 0 {
		window = dagtrace.DefaultWindowBytes
	}
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	rep.Workers, rep.Window = splitBudget(budgetBytes, window, workers, len(pending))
	sup := &gridSupervisor{
		r: r, ctx: ctx, opts: opts, journal: journal,
		cache: cache, budget: budget, m: m, window: rep.Window,
	}

	errs := make([]error, len(cells))
	//schedlint:ignore nondeterminism host-side grid wall-clock for the report; simulated results never read it
	t0 := time.Now()
	var wg sync.WaitGroup
	// outMu serializes verbose progress lines (io.Writer implementations
	// are not safe for concurrent use).
	var outMu sync.Mutex
	idx := make(chan int)
	for w := 0; w < rep.Workers; w++ {
		wg.Add(1)
		//schedlint:ignore nondeterminism cell fan-out parallelism; each cell is a pure function of its inputs and results land at fixed indices
		go func() {
			defer wg.Done()
			for i := range idx {
				if ctx.Err() != nil {
					// Canceled while this cell sat in the dispatch channel:
					// leave it pending for the resume, don't start it.
					continue
				}
				c := cells[i]
				rep.Cells[i], errs[i] = sup.runCell(c, keys[i], priorAtt[i])
				if opts.OnCellDone != nil {
					sup.hookMu.Lock()
					opts.OnCellDone(c, rep.Cells[i], errs[i])
					sup.hookMu.Unlock()
				}
				if r.Verbose && errs[i] == nil {
					outMu.Lock()
					fmt.Fprintf(r.Out, "# done %-16s %-4s bw=%d/%d: sharded=%.1fs shared=%v\n",
						c.Kernel, c.Scheduler, c.LinksUsed, m.Links,
						rep.Cells[i].ShardedSec, rep.Cells[i].RecordShared)
					outMu.Unlock()
				}
			}
		}()
	}
	// Record-first dispatch: the first pending cell of every kernel goes
	// out ahead of the rest, so recordings start immediately and replay
	// cells never occupy workers just to block on the cache.
	seen := make(map[string]bool, len(kernels))
	order := make([]int, 0, len(pending))
	var rest []int
	for _, i := range pending {
		if seen[cells[i].Kernel] {
			rest = append(rest, i)
			continue
		}
		seen[cells[i].Kernel] = true
		order = append(order, i)
	}
dispatch:
	for _, i := range append(order, rest...) {
		//schedlint:ignore nondeterminism dispatch racing cancellation; an undispatched cell is journal-pending either way
		select {
		case idx <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(idx)
	wg.Wait()
	//schedlint:ignore nondeterminism host-side grid wall-clock for the report
	rep.GridSec = time.Since(t0).Seconds()

	// Wait a bounded grace for attempt goroutines abandoned by their
	// watchdog; stragglers that never finish are reported, and the budget
	// leak check is skipped (they still hold window tokens legitimately).
	if live := sup.liveAttempts.Load(); live > 0 {
		grace := 2 * opts.CellDeadline
		if grace < 10*time.Second {
			grace = 10 * time.Second
		}
		done := make(chan struct{})
		//schedlint:ignore nondeterminism bounded wait for abandoned host goroutines during shutdown
		go func() { sup.abandoned.Wait(); close(done) }()
		t := time.NewTimer(grace)
		//schedlint:ignore nondeterminism bounded wait for abandoned host goroutines during shutdown
		select {
		case <-done:
		case <-t.C:
		}
		t.Stop()
	}
	rep.Abandoned = int(sup.liveAttempts.Load())

	// Classify what the pending cells became: done, failed (retries
	// exhausted), or still pending (canceled before/while running).
	canceled := ctx.Err() != nil
	for _, i := range pending {
		if rep.Cells[i] != nil {
			continue
		}
		err := errs[i]
		if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			rep.Partial = true // never dispatched, or canceled mid-backoff
			continue
		}
		rep.Failed++
		rep.Failures = append(rep.Failures, GridCellFailure{
			Cell:     cells[i],
			Attempts: priorAtt[i] + 1 + opts.CellRetries,
			Error:    err.Error(),
		})
	}
	if canceled {
		rep.Partial = true
	}

	for _, c := range rep.Cells {
		if c == nil {
			continue
		}
		if c.RecordShared || c.Resumed {
			rep.SharedCells++
		} else {
			rep.Recordings++
		}
		rep.SumCellSec += c.RecordSec + c.WriteSec + c.ReplaySec + c.ShardedSec
	}
	rep.Retries = int(sup.retries.Load())
	rep.Quarantines = int(sup.quarantines.Load())
	rep.PeakBudgetBytes = budget.PeakBytes()
	if rep.Abandoned == 0 {
		if leaked := budget.Used(); leaked != 0 {
			return nil, fmt.Errorf("exp: grid drained with %d budget bytes still charged (window lease leak)", leaked)
		}
	}
	s := cache.Stats()
	rep.CacheStats = dagtrace.Stats{
		Hits: s.Hits - before.Hits, Misses: s.Misses - before.Misses,
		DiskHits: s.DiskHits - before.DiskHits, Fallbacks: s.Fallbacks - before.Fallbacks,
		Corrupt: s.Corrupt - before.Corrupt, Quarantined: s.Quarantined - before.Quarantined,
	}

	switch {
	case rep.Partial:
		done := 0
		for _, c := range rep.Cells {
			if c != nil {
				done++
			}
		}
		return rep, fmt.Errorf("exp: %w (%d/%d cells done; resume with the same run directory)",
			ErrGridInterrupted, done, len(cells))
	case rep.Failed > 0:
		f := rep.Failures[0]
		if journal == nil {
			// Unsupervised callers (FullGrid) keep the historical contract:
			// a failing cell fails the whole grid with its error.
			return nil, fmt.Errorf("exp: grid cell %s/%s bw=%d: %s",
				f.Cell.Kernel, f.Cell.Scheduler, f.Cell.LinksUsed, f.Error)
		}
		return rep, fmt.Errorf("exp: %w: %d cell(s), first: %s/%s bw=%d: %s",
			ErrGridCellsFailed, rep.Failed, f.Cell.Kernel, f.Cell.Scheduler, f.Cell.LinksUsed, f.Error)
	}
	return rep, nil
}

// splitBudget is the grid's decoder-memory rule: cells that replay at
// the same time split the budget evenly, decided before any starts.
// Workers get at least one frame each (the smallest window) and number
// 1..cells; each cell's window is min(window, budget/workers).
func splitBudget(budget, window int64, workers, cells int) (int, int64) {
	if perFrame := budget / dagtrace.DefaultFrameSize; int64(workers) > perFrame {
		workers = int(perFrame)
	}
	workers = max(1, min(workers, cells))
	return workers, min(window, budget/int64(workers))
}

// Print renders per-cell reports, a Fig. 8/Fig. 9-style table per
// bandwidth (sharded wall seconds and L3 misses per kernel × scheduler),
// any failures, and the summary line the fullgrid-smoke CI job greps
// (recordings= in particular). Interrupted runs are marked PARTIAL.
func (rep *FullGridReport) Print(w io.Writer) {
	header := ""
	if rep.Partial {
		header = " PARTIAL"
	}
	fmt.Fprintf(w, "fullgrid%s profile=%s machine=%s cells=%d workers=%d shards=%d window=%d\n",
		header, rep.Profile, rep.Machine, len(rep.Cells), rep.Workers, rep.Shards, rep.Window)
	for _, c := range rep.Cells {
		if c == nil {
			continue
		}
		c.Print(w)
	}
	rep.printTables(w)
	if len(rep.Failures) > 0 {
		fmt.Fprintf(w, "\n# failed cells: %d\n", len(rep.Failures))
		for _, f := range rep.Failures {
			fmt.Fprintf(w, "#   %s/%s bw=%d after %d attempt(s): %s\n",
				f.Cell.Kernel, f.Cell.Scheduler, f.Cell.LinksUsed, f.Attempts, f.Error)
		}
	}
	if rep.Resumed > 0 || rep.Retries > 0 || rep.Quarantines > 0 || rep.Abandoned > 0 || rep.Partial || rep.Failed > 0 {
		fmt.Fprintf(w, "\n# supervisor: resumed=%d retried=%d quarantined=%d abandoned=%d failed=%d partial=%v\n",
			rep.Resumed, rep.Retries, rep.Quarantines, rep.Abandoned, rep.Failed, rep.Partial)
	}
	fmt.Fprintf(w, "\n# fullgrid: recordings=%d shared=%d grid_wall=%.1fs cell_sum=%.1fs budget=%d peak_budget_bytes=%d cache=[hits=%d misses=%d disk=%d corrupt=%d quarantined=%d]\n",
		rep.Recordings, rep.SharedCells, rep.GridSec, rep.SumCellSec,
		rep.BudgetBytes, rep.PeakBudgetBytes,
		rep.CacheStats.Hits, rep.CacheStats.Misses, rep.CacheStats.DiskHits,
		rep.CacheStats.Corrupt, rep.CacheStats.Quarantined)
}

// printTables renders the per-bandwidth Fig. 8/Fig. 9 result tables.
// Resume-equivalence tests compare these bytes between a resumed and an
// uninterrupted run, so the tables depend only on simulated results —
// never on host timings, attempt counts or resume provenance.
func (rep *FullGridReport) printTables(w io.Writer) {
	var kernels, scheds []string
	var bands []int
	kseen := map[string]bool{}
	sseen := map[string]bool{}
	bseen := map[int]bool{}
	byCell := map[GridCell]*FullCellReport{}
	for i, g := range rep.Grid {
		if !kseen[g.Kernel] {
			kseen[g.Kernel] = true
			kernels = append(kernels, g.Kernel)
		}
		if !sseen[g.Scheduler] {
			sseen[g.Scheduler] = true
			scheds = append(scheds, g.Scheduler)
		}
		if !bseen[g.LinksUsed] {
			bseen[g.LinksUsed] = true
			bands = append(bands, g.LinksUsed)
		}
		if i < len(rep.Cells) && rep.Cells[i] != nil {
			byCell[g] = rep.Cells[i]
		}
	}
	for _, b := range bands {
		fmt.Fprintf(w, "\n# table links=%d (sharded wall Mcycles | L3 misses)\n", b)
		fmt.Fprintf(w, "%-18s", "kernel")
		for _, sn := range scheds {
			fmt.Fprintf(w, " %22s", sn)
		}
		fmt.Fprintln(w)
		for _, k := range kernels {
			fmt.Fprintf(w, "%-18s", k)
			for _, sn := range scheds {
				c := byCell[GridCell{k, sn, b}]
				if c == nil {
					fmt.Fprintf(w, " %22s", "-")
					continue
				}
				fmt.Fprintf(w, " %12.1f|%9d", float64(c.ShardedWall)/1e6, c.L3Misses)
			}
			fmt.Fprintln(w)
		}
	}
}
