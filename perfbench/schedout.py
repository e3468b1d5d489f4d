"""Lenient parsing of the report lines ``schedbench`` prints.

Every stage field is optional: a line or a ``key=value`` field the program
stops printing makes its metric absent (``None``), never an error. Only the
outputs the benchmark checks strictly (fingerprints, the CSV digest) and the
exit status are required, and the caller decides what a missing one means.
"""

import re

_KV = re.compile(r"([A-Za-z_]\w*)=(\[[^\]]*\]|\S+)")
_NUM = re.compile(r"^-?\d+(?:\.\d+)?(?:e[-+]?\d+)?")
_CELL = re.compile(r"(\S+)/(\S+) on \S+ links=(\d+)")
_TRACE_CACHE = re.compile(r"(\d+) replayed .*?(\d+) recorded")


def fields(text):
    """Parse ``key=value`` pairs; a ``[...]`` value parses recursively."""
    out = {}
    for k, v in _KV.findall(text):
        out[k] = fields(v[1:-1]) if v.startswith("[") else v
    return out


def number(v):
    """The leading number of a field value ("8.23s" -> 8.23), else None."""
    if not isinstance(v, str):
        return None
    m = _NUM.match(v)
    if not m:
        return None
    s = m.group(0)
    return float(s) if any(c in s for c in ".e") else int(s)


def parse(text):
    """Split schedbench stdout into cell blocks and summary lines.

    Returns a dict with ``cells`` (a list of per-cell dicts with optional
    ``kernel``, ``sched``, ``links``, ``host``, ``memory``, ``sim`` and
    ``fingerprint``), and the optional summary dicts ``fullgrid``,
    ``supervisor``, ``grid`` (the ``fullgrid profile=...`` header) and
    ``trace_cache`` (hits/misses of the in-memory trace cache).
    """
    rep = {"cells": []}
    cell = None
    for line in text.splitlines():
        s = line.strip()
        if s.startswith("fullscale cell "):
            cell = {}
            m = _CELL.search(s)
            if m:
                cell.update(kernel=m.group(1), sched=m.group(2), links=int(m.group(3)))
            rep["cells"].append(cell)
        elif s.startswith("fingerprint=") and cell is not None:
            cell["fingerprint"] = s.split("=", 1)[1].strip()
        elif cell is not None and s.split(":", 1)[0] in ("host", "memory", "sim"):
            cell[s.split(":", 1)[0]] = fields(s.split(":", 1)[1])
        elif s.startswith("# fullgrid:"):
            rep["fullgrid"] = fields(s)
        elif s.startswith("# supervisor:"):
            rep["supervisor"] = fields(s)
        elif s.startswith("fullgrid profile="):
            rep["grid"] = fields(s)
        elif s.startswith("# trace cache:"):
            m = _TRACE_CACHE.search(s)
            if m:
                rep["trace_cache"] = {"hits": int(m.group(1)), "misses": int(m.group(2))}
    return rep


def _cell_values(rep, section, key):
    vals = [number(c.get(section, {}).get(key)) for c in rep["cells"]]
    return [v for v in vals if v is not None]


def _sum(vals):
    return sum(vals) if vals else None


def failed_cells(rep):
    """The supervisor's failed= count, or None when it printed no line."""
    return number(rep.get("supervisor", {}).get("failed"))


def stage_metrics(rep):
    """Per-layer metrics taken from the report lines; None where absent."""
    m = {
        "sim.replay_s": _sum(_cell_values(rep, "host", "replay")),
        "dagtrace.record_s": _sum(_cell_values(rep, "host", "record")),
        "dagtrace.frame_s": _sum(_cell_values(rep, "host", "write")),
        "shard.replay_s": _sum(_cell_values(rep, "host", "sharded")),
        "cachesim.l3_misses": _sum(_cell_values(rep, "sim", "l3_misses")),
        "cachesim.dram_stall_cycles": _sum(_cell_values(rep, "sim", "stall")),
    }
    peaks = _cell_values(rep, "memory", "peak_window_bytes")
    m["dagtrace.peak_window_bytes"] = max(peaks) if peaks else None

    fg = rep.get("fullgrid", {})
    m["dagtrace.budget_peak_bytes"] = number(fg.get("peak_budget_bytes"))
    m["dagtrace.budget_bytes"] = number(fg.get("budget"))
    grid_wall, cell_sum = number(fg.get("grid_wall")), number(fg.get("cell_sum"))
    m["exp.concurrency"] = cell_sum / grid_wall if grid_wall and cell_sum is not None else None

    cells = number(rep.get("grid", {}).get("cells"))
    if cells is None and "fullgrid" in rep:
        cells = len(rep["cells"]) or None
    degraded = number(rep.get("supervisor", {}).get("degraded"))
    m["exp.cells"] = cells
    m["exp.degraded_ratio"] = degraded / cells if cells and degraded is not None else None

    cache = fg.get("cache")
    if isinstance(cache, dict):
        hits, misses = number(cache.get("hits")), number(cache.get("misses"))
    else:
        tc = rep.get("trace_cache", {})
        hits, misses = tc.get("hits"), tc.get("misses")
    lookups = hits + misses if hits is not None and misses is not None else None
    m["dagtrace.trace_lookups"] = lookups
    m["dagtrace.trace_hit_ratio"] = hits / lookups if lookups else None
    return m
