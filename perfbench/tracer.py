"""Spans around the public functions of the trpca layers, recorded from outside.

A function is wrapped at every module binding that refers to it, not only in
the module that defines it: ``from .tucker import reconstruct`` in
``trpca.rpca`` makes ``trpca.rpca.reconstruct`` its own binding, and patching
``trpca.tucker.reconstruct`` alone would miss the solver's calls.

Spans live in flat in-memory columns (name, start, end, parent, op id) and
are written out once, when the run ends.  A span's self time is its duration
minus the durations of its direct children; since the program is
single-threaded, children nest inside their parent and do not overlap.  The
self times of one op are checked against the op's wall time, read from a
clock of its own rather than from the spans.
"""

from __future__ import annotations

import csv
import gzip
import math
import sys
from array import array
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from time import perf_counter

import numpy as np


def _bindings(fn):
    """Every (module, attribute) in the trpca package that refers to ``fn``."""
    found = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "trpca" or name.startswith("trpca.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is fn:
                found.append((mod, attr))
    return found


@contextmanager
def replaced(fn, replacement):
    """Point every trpca binding of ``fn`` at ``replacement`` for the block."""
    sites = _bindings(fn)
    for mod, attr in sites:
        setattr(mod, attr, replacement)
    try:
        yield
    finally:
        for mod, attr in sites:
            setattr(mod, attr, fn)


def _matricize_bytes(args, out):
    # A copy was made unless the result views the input's buffer.
    return 0 if np.may_share_memory(out, args[0]) else out.nbytes


def _multilinear_bytes(args, out):
    # Each applied mode product reads the running tensor and its matrix and
    # writes a new tensor; sizes follow from the shapes alone.
    mats, t = args[0], args[1]
    shape = list(np.shape(t))
    item = np.asarray(t).itemsize
    total = 0
    for mode, b in enumerate(mats):
        if b is None:
            continue
        rows, cols = np.shape(b)
        size_in = math.prod(shape)
        shape[mode] = rows
        total += item * (size_in + math.prod(shape) + rows * cols)
    return total


def _out_bytes(args, out):
    return out.nbytes


def _arg_bytes(args, out):
    return np.asarray(args[1]).nbytes


#: (span name, defining module, function name, byte counter or None).
#: Byte counts are computed from array sizes, not measured traffic.
PLAN = (
    ("tensor_ops.matricize", "trpca.tensor_ops", "matricize", _matricize_bytes),
    ("tensor_ops.multilinear_mul", "trpca.tensor_ops", "multilinear_mul", _multilinear_bytes),
    ("tensor_ops.norms", "trpca.tensor_ops", "fro_norm", None),
    ("tensor_ops.norms", "trpca.tensor_ops", "inf_norm", None),
    ("tucker.thin_svd", "trpca.tucker", "thin_svd", None),
    ("tucker.hosvd", "trpca.tucker", "hosvd", None),
    ("tucker.reconstruct", "trpca.tucker", "reconstruct", None),
    ("tucker.breve_factor", "trpca.tucker", "breve_factor", None),
    ("rpca.soft_shrink", "trpca.rpca", "soft_shrink", None),
    ("rpca.spectral_init", "trpca.rpca", "spectral_init", None),
    ("rpca.scaled_step", "trpca.rpca", "scaled_step", None),
    ("rpca.solve", "trpca.rpca", "solve", None),
    ("rpca.solve", "trpca.rpca", "solve_orderN", None),
    ("metrics.tensor_diagnostics", "trpca.metrics", "tensor_diagnostics", None),
    ("synth.gen_truth", "trpca.synth", "gen_truth", None),
    ("fileio.read_tensor", "trpca.fileio", "read_tensor", _out_bytes),
    ("fileio.write_tensor", "trpca.fileio", "write_tensor", _arg_bytes),
    ("fileio.report", "trpca.fileio", "write_report", None),
    ("fileio.report", "trpca.fileio", "write_trace_csv", None),
    ("cli.main", "trpca.cli", "main", None),
)


class Tracer:
    """Records spans for the ops run inside :meth:`op`."""

    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op_id = array("q")
        self.bytes: dict[tuple[int, str], int] = defaultdict(int)
        self.walls: dict[int, float] = {}
        self._stack = [-1]
        self._op = 0
        self._wrappers = []
        for name, modname, attr, counter in PLAN:
            fn = getattr(sys.modules[modname], attr)
            self._wrappers.append((fn, self._wrap(name, fn, counter)))

    def _open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1])
        self.op_id.append(self._op)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, counter):
        def traced(*args, **kwargs):
            i = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(i)
            if counter is not None:
                self.bytes[(self._op, name)] += counter(args, out)
            return out

        return traced

    @contextmanager
    def op(self, op_id: int):
        """Trace one op: patch every binding, open a root span ``op``.

        Yields a one-element list that receives the op's wall time, read
        inside the root span but apart from its clock readings.
        """
        self._op = op_id
        wall = [0.0]
        with ExitStack() as stack:
            for fn, wrapper in self._wrappers:
                stack.enter_context(replaced(fn, wrapper))
            i = self._open("op")
            t0 = perf_counter()
            try:
                yield wall
            finally:
                wall[0] = self.walls[op_id] = perf_counter() - t0
                self._close(i)

    def per_op(self):
        """Per-op totals: {op: {(kind, name): value}} with kind incl/self/calls/bytes.

        Raises RuntimeError if a child span leaves its parent's interval, a
        self time is negative, or the self times of an op fall short of its
        wall time or exceed it by more than 2 ms plus 1%.  The slack is for the
        process being descheduled between the root span's clock readings
        and the op's own; an accounting error misses by whole spans.
        """
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        ops = np.frombuffer(self.op_id, dtype=np.int64)
        dur = end - start
        self_t = dur.copy()
        child = parent >= 0
        np.subtract.at(self_t, parent[child], dur[child])
        p = parent[child]
        if np.any(start[child] < start[p]) or np.any(end[child] > end[p]):
            raise RuntimeError("a span is not nested inside its parent")
        out: dict[int, dict] = {}
        for i, name in enumerate(self.names):
            table = out.setdefault(int(ops[i]), defaultdict(float))
            table[("incl", name)] += dur[i]
            table[("self", name)] += self_t[i]
            table[("calls", name)] += 1
        for (op, name), nbytes in self.bytes.items():
            out[op][("bytes", name)] += nbytes
        if np.any(self_t < -1e-9):
            raise RuntimeError("a span's children take longer than the span")
        for op, wall in self.walls.items():
            total = self_t[ops == op].sum()
            if not -1e-9 <= total - wall <= 2e-3 + 1e-2 * wall:
                raise RuntimeError(f"self times of op {op} sum to {total}, its wall time is {wall}")
        return out

    def write(self, path) -> None:
        """Write all spans as gzipped CSV, times relative to the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["span", "name", "op", "parent", "start_s", "end_s"])
            for i, name in enumerate(self.names):
                w.writerow([i, name, self.op_id[i], self.parent[i],
                            f"{self.start[i] - t0:.9f}", f"{self.end[i] - t0:.9f}"])

