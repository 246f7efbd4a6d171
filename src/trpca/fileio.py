"""Tensor container files, run reports, and sweep-spec parsing.

The tensor container is a fixed little-endian binary layout:

    bytes 0-3   magic "TRPC"
    byte  4     format version (currently 1)
    byte  5     tensor order N (>= 1)
    bytes 6-7   reserved, must be zero
    next 8*N    dims, unsigned 64-bit little-endian
    rest        payload, float64 little-endian, C (row-major) order

Readers reject malformed files with a stable machine-readable error code,
``truncated`` for a header that claims more payload than the file holds or
a pipe sends; a read holds the tensor twice, its payload and the returned
array (reading into the array slowed set-ups).  Writers are atomic (temp
file in the target directory, then rename), so a crash never leaves a
half-written file at the destination path, and give it the mode ``open``
would, 0o666 less the umask.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
import stat
import struct
from collections.abc import Iterable, Sequence

import numpy as np

from .rpca import IterationTrace, TraceRow
from .synth import SweepCell, SweepSpec
from .tensor_ops import as_tensor

MAGIC = b"TRPC"
FORMAT_VERSION = 1
# Version 2: ``loss`` is the loss at which the step into each iterate was
# taken (see rpca.TraceRow), no longer the loss of the iterate itself.
# Version 3: the ``diagnostics`` record of ``decompose --truth`` has no
# ``alpha``, which read 0 for every truth; the ``final`` record's
# ``sparse_fraction`` is the estimate's sparsity.
SCHEMA_VERSION = 3

# Refuse dims whose product exceeds this (2**48 entries = 2 PiB of float64);
# anything larger is a corrupt header, not a real tensor.
_MAX_ELEMENTS = 1 << 48
# Largest single read, so a pipe's claimed payload is never allocated whole.
_STREAM_CHUNK = 1 << 24

#: Error codes a reader can produce, each for a distinct failure mode.
ERROR_CODES = (
    "bad-magic",
    "bad-version",
    "bad-header",
    "dims-overflow",
    "truncated",
    "trailing-data",
    "non-finite",
)


class TensorFileError(Exception):
    """Malformed tensor file; ``code`` is one of :data:`ERROR_CODES`."""

    def __init__(self, code: str, message: str):
        assert code in ERROR_CODES
        self.code = code
        super().__init__(f"{code}: {message}")


def _read_exact(fh, n: int, what: str) -> bytes:
    """``n`` bytes of ``fh``, in reads of at most ``_STREAM_CHUNK`` bytes, so
    that a pipe that sends less than ``n`` costs what it sent."""
    buf = fh.read(min(n, _STREAM_CHUNK))
    if len(buf) < n:
        buf = bytearray(buf)
        while len(buf) < n and (chunk := fh.read(min(n - len(buf), _STREAM_CHUNK))):
            buf += chunk
    if len(buf) != n:
        raise TensorFileError(
            "truncated", f"file ends inside {what} (wanted {n} bytes, got {len(buf)})"
        )
    return buf


def read_tensor(path) -> np.ndarray:
    """Read one tensor from a container file.

    Returns a float64 C-contiguous array.  Raises :class:`TensorFileError`
    with a code identifying the first malformed field.
    """
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 4, "magic")
        if magic != MAGIC:
            raise TensorFileError("bad-magic", f"expected {MAGIC!r}, got {magic!r}")
        version = _read_exact(fh, 1, "version")[0]
        if version != FORMAT_VERSION:
            raise TensorFileError(
                "bad-version", f"unsupported format version {version}"
            )
        order = _read_exact(fh, 1, "order")[0]
        if order < 1:
            raise TensorFileError("bad-header", "tensor order must be >= 1")
        reserved = _read_exact(fh, 2, "reserved bytes")
        if reserved != b"\x00\x00":
            raise TensorFileError("bad-header", "reserved bytes must be zero")
        dims = struct.unpack(f"<{order}Q", _read_exact(fh, 8 * order, "dims"))
        if any(d == 0 for d in dims):
            raise TensorFileError("bad-header", f"zero-length mode in dims {dims}")
        size = math.prod(dims)
        if size > _MAX_ELEMENTS:
            raise TensorFileError(
                "dims-overflow", f"dims {dims} describe {size} elements"
            )
        st = os.fstat(fh.fileno())
        if stat.S_ISREG(st.st_mode) and 8 * size > st.st_size - fh.tell():
            raise TensorFileError(
                "truncated", f"dims {dims} need more payload than the file holds"
            )
        payload = _read_exact(fh, 8 * size, "payload")
        if fh.read(1):
            raise TensorFileError("trailing-data", "bytes remain after the payload")
    values = np.frombuffer(payload, dtype="<f8").astype(np.float64, copy=True)
    if not np.all(np.isfinite(values)):
        bad = int(np.flatnonzero(~np.isfinite(values))[0])
        raise TensorFileError("non-finite", f"non-finite value at flat index {bad}")
    return values.reshape(dims)


def _atomic_write_bytes(path, chunks: Iterable) -> None:
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    tmp = os.path.join(directory, f".trpca-{os.urandom(8).hex()}.tmp")
    # open's mode, 0o666 less the umask; mkstemp's is 0o600
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_tensor(path, t: np.ndarray) -> None:
    """Write a tensor container file atomically.

    Round-trips exactly: writing the array returned by :func:`read_tensor`
    reproduces the original file byte for byte.  The payload is written from
    the array's own buffer, so a write holds the tensor once, plus one
    float64 C-ordered copy only when ``t`` is not already one.
    """
    t = as_tensor(t)
    header = (
        MAGIC
        + bytes((FORMAT_VERSION, t.ndim, 0, 0))
        + struct.pack(f"<{t.ndim}Q", *t.shape)
    )
    payload = memoryview(np.ascontiguousarray(t, dtype="<f8")).cast("B")
    _atomic_write_bytes(path, (header, payload))


def _atomic_write_text(path, text: str) -> None:
    _atomic_write_bytes(path, (text.encode("utf-8"),))


def json_line(obj, sort_keys: bool = False) -> str:
    """``obj`` as one line of strict JSON (RFC 8259), with a non-finite float
    written as null, as JavaScript's ``JSON.stringify`` does.  The writer of
    every JSON line the package emits."""
    return json.dumps(_finite(obj), sort_keys=sort_keys, allow_nan=False)


def _finite(obj):
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def write_report(path, records: Sequence[dict]) -> None:
    """Write run records as JSON lines (see :func:`json_line`).

    The first line always carries ``schema_version`` so consumers can
    detect layout changes; the caller's records follow one per line.
    """
    lines = [json_line({"record": "schema", "schema_version": SCHEMA_VERSION})]
    lines += [json_line(rec, sort_keys=True) for rec in records]
    _atomic_write_text(path, "\n".join(lines) + "\n")


def _trace_cell(v) -> str:
    if v is None:
        return ""
    return str(v) if isinstance(v, int) else repr(v)


def write_trace_csv(path, trace: IterationTrace) -> None:
    """Flat CSV of the iteration trace, one column per :class:`TraceRow` field.

    Error columns are empty without truth.
    """
    names = [f.name for f in dataclasses.fields(TraceRow)]
    rows = [[_trace_cell(getattr(r, n)) for n in names] for r in trace]
    _write_csv(path, names, rows)


def write_sweep_csv(path, cells: Sequence[SweepCell]) -> None:
    """One CSV row per sweep cell with the trial-median error on a log scale."""
    rows = []
    for c in cells:
        if math.isnan(c.median_rel_error):
            log_err = ""
        else:
            log_err = repr(math.log10(max(c.median_rel_error, 1e-300)))
        rows.append(
            [c.n, c.rank, repr(c.alpha), repr(c.kappa), log_err,
             "" if math.isnan(c.median_iterations) else repr(c.median_iterations),
             repr(c.seconds), c.failures]
        )
    _write_csv(
        path,
        ["n", "rank", "alpha", "kappa", "median_log10_rel_error",
         "median_iterations", "seconds", "failures"],
        rows,
    )


def _write_csv(path, header, rows) -> None:
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _atomic_write_text(path, buf.getvalue())


class SweepSpecError(ValueError):
    """Malformed sweep spec; ``line`` is the 1-based offending line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


# Each spec key: its SweepSpec field, the type of its values, and whether it
# is a grid, a required comma-separated list.
_SPEC_KEYS = {
    "n": ("n_grid", int, True),
    "r": ("rank_grid", int, True),
    "alpha": ("alpha_grid", float, True),
    "kappa": ("kappa_grid", float, True),
    "trials": ("trials", int, False),
    "iters": ("max_iters", int, False),
    "eta": ("eta", float, False),
    "rho": ("rho", float, False),
    "stop_tol": ("stop_tol", float, False),
    "seed": ("seed", int, False),
}


def parse_sweep_spec(path) -> SweepSpec:
    """Parse a sweep spec file into a :class:`SweepSpec`.

    Grammar, one statement per line::

        # comment (blank lines also ignored)
        key = value [, value ...]

    Each key is one entry of ``_SPEC_KEYS``: its :class:`SweepSpec` field,
    the type of its values and whether it is a grid.  Grid keys ``n``,
    ``r``, ``alpha``, ``kappa`` are required and accept comma-separated
    lists.  Scalar keys ``trials``, ``iters``, ``eta``, ``rho`` (a number or
    ``auto``), ``stop_tol``, and ``seed`` are optional; an unset one takes
    :class:`SweepSpec`'s default.  Every count is an integer.  Unknown keys,
    duplicate keys, or unparsable values, such as a fractional count, raise
    :class:`SweepSpecError` with the offending line number; values that
    :class:`SweepSpec` rejects, such as a step size outside (0, 0.25] or a
    negative seed, raise it with line 0.
    """
    fields: dict[str, object] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = (part.strip() for part in line.partition("="))
            if not sep:
                raise SweepSpecError(lineno, f"expected 'key = value', got {line!r}")
            if key not in _SPEC_KEYS:
                raise SweepSpecError(lineno, f"unknown key {key!r}")
            field, conv, grid = _SPEC_KEYS[key]
            if field in fields:
                raise SweepSpecError(lineno, f"duplicate key {key!r}")
            try:  # int and float ignore the spaces around a value
                if key == "rho" and value == "auto":
                    fields[field] = None
                elif grid:
                    fields[field] = tuple(conv(v) for v in value.split(","))
                else:
                    fields[field] = conv(value)
            except ValueError:
                raise SweepSpecError(
                    lineno,
                    f"bad {conv.__name__} {'list' if grid else 'value'} for {key!r}: {value!r}",
                ) from None
    missing = [k for k, (field, _, grid) in _SPEC_KEYS.items() if grid and field not in fields]
    if missing:
        raise SweepSpecError(0, f"missing required keys: {', '.join(missing)}")
    try:
        return SweepSpec(**fields)
    except ValueError as exc:
        raise SweepSpecError(0, str(exc)) from None
