"""Fold a Go CPU profile into per-layer self time.

A layer is one package under ``repro/internal``. Each sample is charged to
the innermost ``repro/internal/<pkg>`` frame on its stack, so runtime work
(allocation, map access, write barriers) done on a layer's behalf counts
against that layer. A sample with no such frame (GC workers, the scheduler,
``main``) is charged to ``runtime``.

A sample is GC time when any frame on its stack belongs to the collector
(see ``GC_PREFIXES``), whichever layer it is charged to.

The profile is read straight from its gzipped protobuf encoding, so this
needs neither the Go toolchain nor a protobuf library.
"""

import gzip
import re

LAYER_RE = re.compile(r"^repro/internal/([A-Za-z0-9_]+)[./]")

# Function-name prefixes of the Go garbage collector: background and
# assisted marking, sweeping and scavenging.
GC_PREFIXES = (
    "runtime.gc",
    "runtime.bgsweep",
    "runtime.bgscavenge",
    "runtime.sweepone",
    "runtime.(*sweepLocked).sweep",
    "runtime.markroot",
    "runtime.scanobject",
)


def _varint(buf, i):
    shift = result = 0
    while True:
        b = buf[i]
        i += 1
        result |= (b & 0x7F) << shift
        if b < 0x80:
            return result, i
        shift += 7


def _fields(buf):
    """Yield (field number, wire type, value) for one protobuf message."""
    i, n = 0, len(buf)
    while i < n:
        key, i = _varint(buf, i)
        num, wt = key >> 3, key & 7
        if wt == 0:
            v, i = _varint(buf, i)
        elif wt == 1:
            v, i = int.from_bytes(buf[i:i + 8], "little"), i + 8
        elif wt == 2:
            ln, i = _varint(buf, i)
            v, i = buf[i:i + ln], i + ln
        elif wt == 5:
            v, i = int.from_bytes(buf[i:i + 4], "little"), i + 4
        else:
            raise ValueError("pprof: unsupported wire type %d" % wt)
        yield num, wt, v


def _ints(wt, v):
    """A repeated integer field, packed (wire type 2) or not."""
    if wt != 2:
        return [v]
    out, i = [], 0
    while i < len(v):
        x, i = _varint(v, i)
        out.append(x)
    return out


def _signed(x):
    return x - (1 << 64) if x >= 1 << 63 else x


def read_profile(path):
    """Return (stacks, value_unit): stacks is a list of (frames, value)
    with frames innermost first, value in the profile's last sample type
    (CPU nanoseconds for a Go CPU profile)."""
    with open(path, "rb") as f:
        data = f.read()
    if data[:2] == b"\x1f\x8b":
        data = gzip.decompress(data)
    strings, funcs, locs, samples, types = [], {}, {}, [], []
    for num, wt, v in _fields(data):
        if num == 1:
            vt = dict((n, x) for n, _, x in _fields(v))
            types.append((vt.get(1, 0), vt.get(2, 0)))
        elif num == 2:
            ids, vals = [], []
            for n, w, x in _fields(v):
                if n == 1:
                    ids += _ints(w, x)
                elif n == 2:
                    vals += [_signed(y) for y in _ints(w, x)]
            samples.append((ids, vals))
        elif num == 4:
            lid, fids = 0, []
            for n, _, x in _fields(v):
                if n == 1:
                    lid = x
                elif n == 4:
                    fids += [y for m, _, y in _fields(x) if m == 1]
            locs[lid] = fids
        elif num == 5:
            fid = name = 0
            for n, _, x in _fields(v):
                if n == 1:
                    fid = x
                elif n == 2:
                    name = x
            funcs[fid] = name
        elif num == 6:
            strings.append(v.decode("utf-8", "replace"))
    stacks = []
    for ids, vals in samples:
        frames = [strings[funcs[fid]] for lid in ids for fid in locs.get(lid, [])]
        stacks.append((frames, vals[-1] if vals else 0))
    unit = strings[types[-1][1]] if types else ""
    return stacks, unit


def layer_of(frames):
    """The layer a sample is charged to: its innermost repro/internal
    package, else runtime."""
    for name in frames:
        m = LAYER_RE.match(name)
        if m:
            return m.group(1)
    return "runtime"


def is_gc(frames):
    return any(name.startswith(GC_PREFIXES) for name in frames)


def fold(stacks):
    """Fold (frames, value) samples into (per-layer totals, GC total,
    grand total), all in the samples' unit."""
    layers, gc, total = {}, 0, 0
    for frames, value in stacks:
        layer = layer_of(frames)
        layers[layer] = layers.get(layer, 0) + value
        if is_gc(frames):
            gc += value
        total += value
    return layers, gc, total
