"""Tests of the per-layer profile fold on a small hand-built profile.

Run with: python3 -m unittest discover -s perfbench
"""

import gzip
import os
import tempfile
import unittest

import pprof_fold
import run


def _varint(x):
    out = bytearray()
    while True:
        b = x & 0x7F
        x >>= 7
        if x:
            out.append(b | 0x80)
        else:
            out.append(b)
            return bytes(out)


def _uint(num, x):
    return _varint(num << 3) + _varint(x)


def _bytes(num, b):
    return _varint(num << 3 | 2) + _varint(len(b)) + b


def _packed(num, xs):
    return _bytes(num, b"".join(_varint(x) for x in xs))


def encode_profile(stacks):
    """Encode (frames, cpu_ns) samples as a gzipped pprof profile. Each
    stack entry is a function name, or a list of names for one location
    holding inlined calls (innermost first)."""
    strings = ["", "samples", "count", "cpu", "nanoseconds"]
    funcs, locs = {}, {}
    body = _bytes(1, _uint(1, 1) + _uint(2, 2)) + _bytes(1, _uint(1, 3) + _uint(2, 4))

    def func_id(name):
        if name not in funcs:
            strings.append(name)
            funcs[name] = len(funcs) + 1
        return funcs[name]

    def loc_id(names):
        key = tuple(names)
        if key not in locs:
            locs[key] = len(locs) + 1
        return locs[key]

    for frames, ns in stacks:
        ids = [loc_id(f if isinstance(f, list) else [f]) for f in frames]
        # Non-packed location ids on one sample exercise the other encoding.
        ids_enc = _packed(1, ids) if len(ids) > 1 else _uint(1, ids[0])
        body += _bytes(2, ids_enc + _packed(2, [1, ns]))
    for names, lid in locs.items():
        lines = b"".join(_bytes(4, _uint(1, func_id(n)) + _uint(2, 7)) for n in names)
        body += _bytes(4, _uint(1, lid) + lines)
    for name, fid in funcs.items():
        body += _bytes(5, _uint(1, fid) + _uint(2, strings.index(name)))
    for s in strings:
        body += _bytes(6, s.encode())
    return gzip.compress(body)


STACKS = [
    (["repro/internal/cachesim.(*Cache).find", "repro/internal/cachesim.(*Hierarchy).Access",
      "repro/internal/sim.(*engine).step"], 10),
    # Runtime work done for a layer is charged to the innermost layer.
    (["runtime.mallocgc", "repro/internal/dagtrace.(*Recorder).StrandAccess",
      "repro/internal/sim.(*engine).run"], 5),
    # Background marking: no layer frame, so runtime; and GC.
    (["runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"], 3),
    # Assisted marking: charged to the allocating layer; still GC.
    (["runtime.gcAssistAlloc", "runtime.mallocgc", "repro/internal/kernels.rrmLeaf"], 2),
    (["main.main", "runtime.main"], 1),
    # An inlined decoder inside the engine: the innermost line wins.
    ([["repro/internal/opcode.Uvarint", "repro/internal/sim.(*engine).runInline"],
      "repro/internal/sim.(*engine).step"], 4),
    # A nested package is charged to its top-level internal package.
    (["repro/internal/lint/taint.(*state).flow", "main.main"], 1),
]


class FoldTest(unittest.TestCase):
    def test_attribution_and_gc(self):
        flat = [(sum((f if isinstance(f, list) else [f] for f in fr), []), v) for fr, v in STACKS]
        layers, gc, total = pprof_fold.fold(flat)
        self.assertEqual(layers, {"cachesim": 10, "dagtrace": 5, "runtime": 4,
                                  "kernels": 2, "opcode": 4, "lint": 1})
        self.assertEqual(gc, 5)
        self.assertEqual(total, 26)
        self.assertEqual(sum(layers.values()), total)

    def test_read_encoded_profile(self):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "cpu.prof")
            with open(path, "wb") as f:
                f.write(encode_profile([(fr, v * 10_000_000) for fr, v in STACKS]))
            stacks, unit = pprof_fold.read_profile(path)
            self.assertEqual(unit, "nanoseconds")
            layers, gc, total = pprof_fold.fold(stacks)
            self.assertEqual(layers["opcode"], 40_000_000)
            self.assertEqual(gc, 50_000_000)

            m, shares = run.fold_profile(path)
            self.assertAlmostEqual(sum(shares.values()), 1.0)
            self.assertAlmostEqual(m["cachesim.self_s"], 0.10)
            self.assertAlmostEqual(m["runtime.self_s"], 0.04)
            self.assertAlmostEqual(m["other.self_s"], 0.01)  # lint
            self.assertAlmostEqual(m["runtime.gc_share"], 5 / 26)
            self.assertAlmostEqual(sum(v for k, v in m.items() if k.endswith(".self_s")), 0.26)

    def test_empty_profile_is_an_error(self):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "cpu.prof")
            with open(path, "wb") as f:
                f.write(encode_profile([]))
            with self.assertRaises(run.Failure):
                run.fold_profile(path)


if __name__ == "__main__":
    unittest.main()
