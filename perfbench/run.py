#!/usr/bin/env python3
"""Repository benchmark: runs schedbench workloads in child processes,
times them from outside and checks their simulated outputs.

Usage (from the repository root):

    python3 perfbench/run.py --workload fig8_quick --seed 1 --seconds 20 --trace 0

It builds cmd/schedbench once into .bench_build/ (outside any timing), runs
the workload's set-up, then runs the workload as a closed loop with one
client: one child at a time, each started after the previous one exits.
With --trace 1 it adds one run under -cpuprofile and -v and reports the
per-layer metrics instead of the end-to-end ones. The last line of standard
output is one JSON object; everything before it is for people.

The benchmark talks to the program only through schedbench flags, its
report lines and its CSV files, never through Go APIs.
"""

import argparse
import csv
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import pprof_fold
import schedout

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "bin", "schedbench")

GOMAXPROCS = "2"
# A benchmark run of one workload must end within 180 s; its children are
# killed this many seconds after the workload started.
RUN_DEADLINE_S = 170.0
# Cold starts of the binary that make up set-up for a workload with no
# state of its own.
STARTUPS = 15
# Cold one-cell grids that make up set-up for grid_x16_warm.
GRID_SETUPS = 2

LAYERS = ("cachesim", "sim", "sched", "kernels", "dagtrace", "opcode",
          "shard", "exp", "runlog")
LAYER_METRICS = (
    [(l + ".self_s", "s") for l in LAYERS]
    + [("other.self_s", "s"), ("runtime.self_s", "s"), ("runtime.gc_share", "ratio"),
       ("cachesim.l3_misses", "count"), ("cachesim.dram_stall_cycles", "cycles"),
       ("sim.replay_s", "s"), ("dagtrace.record_s", "s"), ("dagtrace.frame_s", "s"),
       ("dagtrace.peak_window_bytes", "bytes"), ("dagtrace.budget_peak_bytes", "bytes"),
       ("dagtrace.budget_bytes", "bytes"), ("dagtrace.trace_hit_ratio", "ratio"),
       ("dagtrace.trace_lookups", "count"), ("shard.replay_s", "s"),
       ("exp.degraded_ratio", "ratio"), ("exp.cells", "count"),
       ("exp.concurrency", "ratio"), ("trace.overhead_ratio", "ratio"),
       ("trace.wall_s", "s")])


# The running child, killed when the benchmark itself is stopped.
_child = {"pid": None, "stopped": False}


def _stop(signum, frame):
    """SIGTERM/SIGINT: kill the running child, which the pending wait4
    then reaps, and exit without a result."""
    if _child["pid"] is None:
        raise SystemExit(128 + signum)
    _child["stopped"] = True
    try:
        os.killpg(_child["pid"], signal.SIGKILL)
    except ProcessLookupError:
        pass


class Failure(Exception):
    """A child run that failed a check."""


class Child:
    """One finished child process: host times, exit status, output."""

    def __init__(self, wall, cpu, rss_mb, code, timed_out, stdout, stderr):
        self.wall, self.cpu, self.rss_mb = wall, cpu, rss_mb
        self.code, self.timed_out = code, timed_out
        self.stdout, self.stderr = stdout, stderr


class Bench:
    """Runs the children of one workload and counts their failures."""

    def __init__(self, seed, workdir):
        self.seed, self.workdir = seed, workdir
        self.t0 = time.perf_counter()
        self.attempted = self.failed = 0
        self.problems = []

    def env(self):
        env = dict(os.environ)
        for k in ("GOGC", "GOMEMLIMIT", "GODEBUG"):
            env.pop(k, None)
        env["GOMAXPROCS"] = GOMAXPROCS
        env["TMPDIR"] = os.path.join(self.workdir, "tmp")
        return env

    def spawn(self, args):
        """Run schedbench once and wait for it; a failed child is returned,
        not raised."""
        tmp = os.path.join(self.workdir, "tmp")
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        out_path = os.path.join(self.workdir, "child.out")
        err_path = os.path.join(self.workdir, "child.err")
        deadline = max(1.0, RUN_DEADLINE_S - (time.perf_counter() - self.t0))
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            p = subprocess.Popen([BIN] + args, stdout=out, stderr=err, env=self.env(),
                                 cwd=ROOT, start_new_session=True)
            _child["pid"] = p.pid
            lock, state = threading.Lock(), {"reaped": False, "killed": False}

            def kill():
                with lock:
                    if not state["reaped"]:
                        state["killed"] = True
                        os.killpg(p.pid, signal.SIGKILL)

            timer = threading.Timer(deadline, kill)
            timer.start()
            _, status, ru = os.wait4(p.pid, 0)
            wall = time.perf_counter() - start
            _child["pid"] = None
            with lock:
                state["reaped"] = True
            timer.cancel()
            p.returncode = os.waitstatus_to_exitcode(status)
        if _child["stopped"]:
            raise SystemExit(1)
        with open(out_path, encoding="utf-8", errors="replace") as f:
            stdout = f.read()
        with open(err_path, encoding="utf-8", errors="replace") as f:
            stderr = f.read()
        return Child(wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0,
                     p.returncode, state["killed"], stdout, stderr)

    def run(self, what, args, check):
        """Spawn a child, count it, and apply the common and the given
        checks. Returns (child, outputs); outputs is None on failure."""
        self.attempted += 1
        c = self.spawn(args)
        try:
            if c.timed_out:
                raise Failure("killed at the %.0fs run deadline" % RUN_DEADLINE_S)
            if c.code != 0:
                tail = c.stderr.strip().splitlines()[-1:] or [""]
                raise Failure("exit status %d: %s" % (c.code, tail[0]))
            rep = schedout.parse(c.stdout)
            failed = schedout.failed_cells(rep)
            if failed:
                raise Failure("supervisor reports failed=%d" % failed)
            outs = check(c, rep)
        except Failure as e:
            self.failed += 1
            self.problems.append("%s: %s" % (what, e))
            print("  %-10s FAILED %s" % (what, e))
            return c, None
        print("  %-10s wall=%.3fs cpu=%.3fs rss=%.1fMB" % (what, c.wall, c.cpu, c.rss_mb))
        return c, outs


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def load_expected(seed):
    with open(os.path.join(HERE, "expected.json")) as f:
        return json.load(f).get(str(seed), {})


class Workload:
    """One benchmark workload. Subclasses define the timed invocation,
    its checked outputs and its set-up."""

    name = ""
    nominal_s = 1.0  # one timed run at the parent commit on a 2-core host
    min_runs = 1

    def __init__(self, bench):
        self.b = bench
        self.expected = load_expected(bench.seed).get(self.name)
        self.reference = None  # outputs of the first good timed run
        self.i = 0

    def seed_args(self):
        return ["-seed", str(self.b.seed)]

    def path(self, *parts):
        return os.path.join(self.b.workdir, *parts)

    def setup(self):
        """Default set-up for a workload that carries no state between
        runs: cold starts of the binary (package init, flag parsing, the
        machine preset). Returns the set-up times."""
        times = []
        for i in range(STARTUPS):
            c, outs = self.b.run("startup%d" % i, ["-experiment", "machine"],
                                 lambda c, rep: {})
            if outs is not None:
                times.append(c.wall)
        return times

    def timed(self, extra):
        """One run of the workload; returns (child, outputs or None)."""
        self.i += 1
        args = self.args(self.i) + extra
        return self.b.run("run%d" % self.i if not extra else "traced", args, self.check)

    def check(self, c, rep):
        outs = self.outputs(c, rep)
        if self.expected is not None and outs != self.expected:
            raise Failure("outputs %s differ from the expected %s" % (outs, self.expected))
        if self.reference is not None and outs != self.reference:
            raise Failure("outputs %s differ from an earlier run's %s" % (outs, self.reference))
        if self.reference is None:
            self.reference = outs
            print("  outputs %s" % json.dumps(outs, sort_keys=True))
        return outs

    def layer_metrics(self, c, rep):
        return schedout.stage_metrics(rep)


class Fig8Quick(Workload):
    """The quick Fig. 8 grid: 5 kernels x 4 schedulers x 2 reps, 75% of
    the cells replayed from the in-memory trace cache."""

    name = "fig8_quick"
    nominal_s = 9.0

    def args(self, i):
        self.csv_dir = self.path("csv%d" % i)
        return ["-experiment", "fig8", "-profile", "quick", "-csv", self.csv_dir] + self.seed_args()

    def outputs(self, c, rep):
        path = os.path.join(self.csv_dir, "fig8.csv")
        if not os.path.exists(path):
            raise Failure("no fig8.csv written")
        return {"fig8_csv_sha256": sha256_file(path)}

    def layer_metrics(self, c, rep):
        m = schedout.stage_metrics(rep)
        with open(os.path.join(self.csv_dir, "fig8.csv")) as f:
            rows = list(csv.DictReader(f))
        for key, col in (("cachesim.l3_misses", "l3_misses"),
                         ("cachesim.dram_stall_cycles", "dram_stall_cycles")):
            vals = [schedout.number(r.get(col)) for r in rows]
            if rows and None not in vals:
                m[key] = sum(vals)
        return m


class CellX16RRM(Workload):
    """One x16 RRM cell: record, frame, unsharded streamed replay, sharded
    replay on two shards."""

    name = "cell_x16_rrm"
    nominal_s = 17.0

    def args(self, i):
        return ["-experiment", "cell", "-profile", "x16", "-kernel", "RRM", "-sched", "sb",
                "-shards", "2"] + self.seed_args()

    def outputs(self, c, rep):
        fps = [cell["fingerprint"] for cell in rep["cells"] if "fingerprint" in cell]
        if len(fps) != 1:
            raise Failure("want one cell fingerprint, got %d" % len(fps))
        # The cell path and the grid path replay the same recording: the
        # cell's fingerprint equals the grid's sb/4-link fingerprint.
        grid = load_expected(self.b.seed).get(GridX16Warm.name, {}).get("sb/4")
        if grid is not None and fps[0] != grid:
            raise Failure("cell fingerprint %s differs from the grid's sb/4 %s" % (fps[0], grid))
        return {"fingerprint": fps[0]}


class GridX16Warm(Workload):
    """Four journaled x16 RRM cells (sb, sbd x 4, 1 links) replaying one
    recording adopted from a trace cache filled during set-up."""

    name = "grid_x16_warm"
    nominal_s = 16.0
    # Cells that find the shared budget full run serialized (degraded
    # mode), and which ones do depends on host timing, so one run's wall
    # time is bimodal; two runs per benchmark run smooth it.
    min_runs = 2
    CELLS = ("sb/4", "sb/1", "sbd/4", "sbd/1")

    def grid_args(self, scheds, bands, cache):
        return ["-experiment", "fullgrid", "-profile", "x16", "-kernels", "RRM",
                "-scheds", scheds, "-bands", bands, "-shards", "1", "-gridworkers", "2",
                "-tracecache", cache] + self.seed_args()

    def setup(self):
        """Cold one-cell grids, each filling a fresh trace cache; the last
        cache is the one the timed runs adopt."""
        times = []
        self.setup_fp = None
        for i in range(GRID_SETUPS):
            shutil.rmtree(self.path("traces"), ignore_errors=True)

            def check(c, rep):
                fps = {"%s/%s" % (x.get("sched"), x.get("links")): x.get("fingerprint")
                       for x in rep["cells"]}
                if not fps.get("sb/4"):
                    raise Failure("set-up grid printed no sb/4 fingerprint")
                if self.setup_fp is not None and fps["sb/4"] != self.setup_fp:
                    raise Failure("set-up fingerprints differ between set-ups")
                return fps["sb/4"]

            c, fp = self.b.run("setup%d" % i, self.grid_args("sb", "4", self.path("traces")), check)
            if fp is not None:
                times.append(c.wall)
                self.setup_fp = fp
        return times

    def args(self, i):
        return self.grid_args("sb,sbd", "4,1", self.path("traces")) + [
            "-rundir", self.path("run%d" % i)]

    def outputs(self, c, rep):
        fps = {}
        for cell in rep["cells"]:
            key = "%s/%s" % (cell.get("sched"), cell.get("links"))
            if key in self.CELLS and "fingerprint" in cell:
                fps[key] = cell["fingerprint"]
        if sorted(fps) != sorted(self.CELLS):
            raise Failure("want fingerprints for %s, got %s" % (list(self.CELLS), sorted(fps)))
        if self.setup_fp is not None and fps["sb/4"] != self.setup_fp:
            raise Failure("sb/4 fingerprint %s differs from the cold set-up grid's %s"
                          % (fps["sb/4"], self.setup_fp))
        recordings = schedout.number(rep.get("fullgrid", {}).get("recordings"))
        if recordings:
            raise Failure("warm grid recorded %d traces instead of adopting one" % recordings)
        return fps


WORKLOADS = {w.name: w for w in (Fig8Quick, CellX16RRM, GridX16Warm)}


def build():
    """Build cmd/schedbench with a build cache inside the checkout."""
    if not (os.path.exists(os.path.join(ROOT, "go.mod"))
            and os.path.isdir(os.path.join(ROOT, "cmd", "schedbench"))):
        sys.exit("perfbench: %s holds no schedbench source (go.mod, cmd/schedbench)" % ROOT)
    if shutil.which("go") is None:
        sys.exit("perfbench: no go toolchain on PATH")
    env = dict(os.environ, GOCACHE=os.path.join(BUILD, "gocache"),
               GOPATH=os.path.join(BUILD, "gopath"), GOTOOLCHAIN="local",
               GOFLAGS="-buildvcs=false", CGO_ENABLED="0")
    r = subprocess.run(["go", "build", "-o", BIN, "./cmd/schedbench"], cwd=ROOT, env=env)
    if r.returncode != 0:
        sys.exit("perfbench: go build failed with status %d" % r.returncode)
    ver = subprocess.run(["go", "version"], cwd=ROOT, env=env, capture_output=True, text=True)
    return ver.stdout.strip()


def median(vals):
    return statistics.median(vals) if vals else 0.0


def fold_profile(path):
    """Per-layer self seconds and GC share of a CPU profile, and each
    layer's share of the samples."""
    stacks, unit = pprof_fold.read_profile(path)
    if unit != "nanoseconds":
        raise Failure("profile values are in %r, not CPU nanoseconds" % unit)
    layers, gc, total = pprof_fold.fold(stacks)
    if total <= 0:
        raise Failure("empty CPU profile")
    known = set(LAYERS) | {"runtime"}
    m = {l + ".self_s": layers.get(l, 0) / 1e9 for l in LAYERS}
    m["runtime.self_s"] = layers.get("runtime", 0) / 1e9
    m["other.self_s"] = sum(v for l, v in layers.items() if l not in known) / 1e9
    # The reported layers must cover every sample: their shares sum to 1.
    covered = sum(v for k, v in m.items() if k.endswith(".self_s")) * 1e9 / total
    if abs(covered - 1.0) > 1e-9:
        raise Failure("layer shares sum to %.6f, not 1" % covered)
    m["runtime.gc_share"] = gc / total
    return m, {l: v / total for l, v in layers.items()}


def write_spans(w, run_start, traced, rep, shares):
    """The traced run's span (timed here) and one child span per cell
    stage from its host: lines. Stages of a cell run one after another;
    cells of a grid overlap, so a stage's start is its offset within its
    own cell."""
    spans = [{"id": 0, "parent": None, "name": w.name, "start_s": run_start,
              "end_s": run_start + traced.wall}]
    for ci, cell in enumerate(rep["cells"]):
        offset = 0.0
        label = "%s/%s/%s" % (cell.get("kernel"), cell.get("sched"), cell.get("links"))
        for stage in ("record", "write", "replay", "sharded"):
            dur = schedout.number(cell.get("host", {}).get(stage))
            if not dur:  # absent, or skipped (a shared recording)
                continue
            spans.append({"id": len(spans), "parent": 0, "name": stage, "cell": ci,
                          "cell_label": label, "start_s": run_start + offset,
                          "end_s": run_start + offset + dur})
            offset += dur
    os.makedirs(os.path.join(BUILD, "spans"), exist_ok=True)
    path = os.path.join(BUILD, "spans", "%s-seed%d.json" % (w.name, w.b.seed))
    with open(path, "w") as f:
        json.dump({"workload": w.name, "seed": w.b.seed, "spans": spans,
                   "layer_shares": shares}, f, indent=1)
    return path


def traced_metrics(w, timed):
    """One more run under -cpuprofile and -v; returns the per-layer
    metrics, None where absent."""
    b = w.b
    prof = os.path.join(b.workdir, "cpu.prof")
    run_start = time.perf_counter() - b.t0
    c, outs = w.timed(["-cpuprofile", prof, "-v"])
    metrics = {k: None for k, _ in LAYER_METRICS}
    if outs is None:
        return metrics
    rep = schedout.parse(c.stdout)
    metrics.update(w.layer_metrics(c, rep))
    shares = {}
    try:
        prof_m, shares = fold_profile(prof)
        metrics.update(prof_m)
    except (Failure, OSError, ValueError, IndexError) as e:
        b.failed += 1
        b.problems.append("traced: profile: %s" % e)
    if timed:
        metrics["trace.overhead_ratio"] = c.wall / median([t.wall for t in timed])
    metrics["trace.wall_s"] = c.wall
    print("perfbench: spans written to %s" % os.path.relpath(
        write_spans(w, run_start, c, rep, shares), ROOT))
    return metrics


def run_workload(name, seed, seconds, trace):
    """Set up and run one workload; returns (bench, {metric: (value, unit)})."""
    workdir = os.path.join(BUILD, "work", "%s-%d" % (name, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    b = Bench(seed, workdir)
    w = WORKLOADS[name](b)
    print("\nperfbench: workload=%s seed=%d seconds=%g trace=%d, expected outputs %s" % (
        name, seed, seconds, trace,
        "shipped for this seed" if w.expected else "not shipped; checking run-to-run equality"))
    try:
        setups = w.setup()
        # As many timed runs as fit in --seconds at the parent commit's run
        # time: a fixed amount of work, so both sides of a comparison
        # measure the same runs.
        n = max(w.min_runs, int(seconds // w.nominal_s))
        timed = [c for c, outs in (w.timed([]) for _ in range(n)) if outs is not None]
        if trace == 0:
            result = {
                "wall_s": (median([c.wall for c in timed]), "s"),
                "cpu_s": (median([c.cpu for c in timed]), "s"),
                "peak_rss_mb": (median([c.rss_mb for c in timed]), "MB"),
                "setup_s": (median(setups), "s"),
            }
            print("end-to-end, %s (median of %d timed runs, %d set-ups)" % (name, len(timed), len(setups)))
            for k, (v, unit) in result.items():
                print("  %-12s %.4f %s" % (k, v, unit))
            print("  %-12s %.4f ratio (%d of %d child runs)" % (
                "fail_ratio", b.failed / b.attempted, b.failed, b.attempted))
        else:
            metrics = traced_metrics(w, timed)
            units = dict(LAYER_METRICS)
            print("per-layer, %s (traced run)" % name)
            for k, _ in LAYER_METRICS:
                v = metrics[k]
                print("  %-28s %s %s" % (k, "absent" if v is None else "%.6g" % v, units[k]))
            # The result line carries every metric; an absent one reads 0.
            result = {k: (metrics[k] or 0, units[k]) for k in units}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in b.problems:
        print("perfbench: FAILED %s" % p)
    return b, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                    help="a workload, or all of them in turn (metrics prefixed by workload)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGINT, _stop)

    go_version = build()
    seed = a.seed if a.seed > 0 else 1  # schedbench's profile default
    print("perfbench: nproc=%d affinity=%d GOMAXPROCS=%s %s" % (
        os.cpu_count(), len(os.sched_getaffinity(0)), GOMAXPROCS, go_version))
    names = sorted(WORKLOADS) if a.workload == "all" else [a.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        b, result = run_workload(name, seed, a.seconds, a.trace)
        attempted, failed = attempted + b.attempted, failed + b.failed
        for k, (v, unit) in result.items():
            metrics[k if len(names) == 1 else name + "." + k] = {"value": v, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
