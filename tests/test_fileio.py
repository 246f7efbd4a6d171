"""Tensor container format, report/CSV writers, and the sweep-spec parser."""

import csv
import json
import os
import struct
import threading
import tracemalloc

import numpy as np
import pytest

import trpca.fileio
from oracles import build_corrupt_corpus
from trpca.fileio import (
    ERROR_CODES,
    SweepSpecError,
    TensorFileError,
    parse_sweep_spec,
    read_tensor,
    write_report,
    write_sweep_csv,
    write_tensor,
    write_trace_csv,
)
from trpca.rpca import IterationTrace, SolverConfig, TraceRow, solve
from trpca.synth import SweepCell, gen_truth


# ---------------------------------------------------------------------------
# container round-trips


def test_round_trip_is_byte_identical(tmp_path):
    rng = np.random.default_rng(0)
    for i in range(20):
        dims = tuple(rng.integers(1, 6, size=rng.integers(1, 5)))
        t = rng.standard_normal(dims)
        p1, p2 = tmp_path / f"a{i}.trpc", tmp_path / f"b{i}.trpc"
        write_tensor(p1, t)
        back = read_tensor(p1)
        assert np.array_equal(back, t) and back.dtype == np.float64
        write_tensor(p2, back)
        assert p1.read_bytes() == p2.read_bytes()


_RNG = np.random.default_rng(11)
LAYOUTS = {
    "fortran": np.asfortranarray(_RNG.standard_normal((4, 3, 5))),
    "strided": _RNG.standard_normal((6, 7, 8))[::2, 1::3, ::-1],
    "float32": _RNG.standard_normal((3, 4, 2)).astype(np.float32),
    "int64": _RNG.integers(-1000, 1000, size=(5, 2, 3)),
    "big-endian": _RNG.standard_normal((2, 3, 4)).astype(">f8"),
    "order1": _RNG.standard_normal(9),
}


@pytest.mark.parametrize("name", LAYOUTS)
def test_every_input_layout_writes_the_c_ordered_float64_payload(tmp_path, name):
    t = LAYOUTS[name]
    path = tmp_path / "t.trpc"
    write_tensor(path, t)
    header = b"TRPC" + bytes((1, t.ndim, 0, 0)) + struct.pack(f"<{t.ndim}Q", *t.shape)
    payload = np.ascontiguousarray(np.asarray(t, np.float64), dtype="<f8").tobytes()
    assert path.read_bytes() == header + payload


def test_write_holds_no_copy_of_a_float64_tensor(tmp_path):
    # the payload is the array's own buffer; what remains is as_tensor's
    # boolean finiteness mask, an eighth of the tensor
    t = np.random.default_rng(2).standard_normal((40, 50, 60))
    tracemalloc.start()
    try:
        write_tensor(tmp_path / "t.trpc", t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.2 * t.nbytes


def _read_fed(fifo, blob):
    """``read_tensor`` of a FIFO that a daemon thread feeds ``blob``."""
    os.mkfifo(fifo)
    feeder = threading.Thread(target=lambda: fifo.write_bytes(blob), daemon=True)
    feeder.start()
    try:
        return read_tensor(fifo)
    finally:
        feeder.join(timeout=10)
        assert not feeder.is_alive()


def test_read_from_a_pipe(tmp_path):
    # a file of no known size is read to its end, not measured first
    src = tmp_path / "t.trpc"
    t = np.arange(24.0).reshape(2, 3, 4)
    write_tensor(src, t)
    assert np.array_equal(_read_fed(tmp_path / "fifo", src.read_bytes()), t)


def test_a_pipe_is_read_in_chunks(tmp_path, monkeypatch):
    # with 40-byte chunks the 192-byte payload takes five reads, the last short
    monkeypatch.setattr(trpca.fileio, "_STREAM_CHUNK", 40)
    t = np.arange(24.0).reshape(2, 3, 4)
    write_tensor(tmp_path / "t.trpc", t)
    assert np.array_equal(_read_fed(tmp_path / "fifo", (tmp_path / "t.trpc").read_bytes()), t)


def test_a_regular_file_is_read_in_the_same_chunks(tmp_path, monkeypatch):
    # one read path for every file: a payload past one chunk round-trips, and
    # a short one is 'truncated' with the bytes it got
    monkeypatch.setattr(trpca.fileio, "_STREAM_CHUNK", 40)
    t = np.arange(24.0).reshape(2, 3, 4)
    write_tensor(tmp_path / "t.trpc", t)
    assert np.array_equal(read_tensor(tmp_path / "t.trpc"), t)
    with open(tmp_path / "t.trpc", "rb") as fh, pytest.raises(TensorFileError) as exc:
        trpca.fileio._read_exact(fh, 1000, "payload")
    assert exc.value.code == "truncated" and "got 224" in str(exc.value)


def test_a_pipe_that_ends_before_its_payload_is_truncated(tmp_path):
    # a (2**20, 2**20) header, 8 TiB of payload claimed and 48 bytes sent:
    # the stream is read in bounded chunks, so this is no MemoryError
    blob = b"TRPC" + bytes((1, 2, 0, 0)) + struct.pack("<2Q", 2**20, 2**20) + bytes(48)
    assert len(blob) == 72
    with pytest.raises(TensorFileError) as exc:
        _read_fed(tmp_path / "fifo", blob)
    assert exc.value.code == "truncated"


def test_header_layout(tmp_path):
    t = np.arange(8.0).reshape(2, 2, 2)
    path = tmp_path / "t.trpc"
    write_tensor(path, t)
    blob = path.read_bytes()
    assert len(blob) == 4 + 4 + 3 * 8 + 8 * 8  # magic+meta, dims, payload
    assert blob[:4] == b"TRPC"
    assert blob[4] == 1 and blob[5] == 3 and blob[6:8] == b"\x00\x00"
    assert struct.unpack("<3Q", blob[8:32]) == (2, 2, 2)
    assert np.frombuffer(blob[32:], dtype="<f8").tolist() == list(range(8))


def test_hand_built_file_reads_back(tmp_path):
    payload = struct.pack("<6d", *range(6))
    blob = b"TRPC" + bytes((1, 2, 0, 0)) + struct.pack("<2Q", 2, 3) + payload
    path = tmp_path / "hand.trpc"
    path.write_bytes(blob)
    t = read_tensor(path)
    assert np.array_equal(t, np.arange(6.0).reshape(2, 3))


def test_corrupt_files_raise_specific_codes(tmp_path):
    for path, code in build_corrupt_corpus(tmp_path):
        with pytest.raises(TensorFileError) as exc:
            read_tensor(path)
        assert exc.value.code == code, path.name
        assert code in ERROR_CODES


def test_write_is_atomic(tmp_path):
    t = np.ones((3, 3))
    target = tmp_path / "out.trpc"
    write_tensor(target, t)
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".trpca-")]
    assert leftovers == []
    with pytest.raises(OSError):
        write_tensor(tmp_path / "no_such_dir" / "out.trpc", t)
    assert np.array_equal(read_tensor(target), t)  # original untouched
    with pytest.raises(ValueError):
        write_tensor(target, np.array([[1.0, np.nan]]))
    assert np.array_equal(read_tensor(target), t)


@pytest.mark.parametrize("exc", [RuntimeError, KeyboardInterrupt])
def test_a_write_that_fails_leaves_the_target_and_no_temporary(tmp_path, exc):
    # a chunk source that raises mid-write, or a rename onto a directory:
    # the exception propagates, the temporary goes, and the target keeps
    # its bytes
    target = tmp_path / "out.trpc"
    write_tensor(target, np.ones((3, 3)))
    old = target.read_bytes()

    def chunks():
        yield b"partial"
        raise exc("mid-write")

    with pytest.raises(exc, match="mid-write"):
        trpca.fileio._atomic_write_bytes(target, chunks())
    assert target.read_bytes() == old
    (tmp_path / "dir").mkdir()
    with pytest.raises(IsADirectoryError):
        trpca.fileio._atomic_write_bytes(tmp_path / "dir", (b"x",))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "out.trpc"]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=("022", "077"))
def test_written_files_take_the_umask_mode(tmp_path, umask, mode):
    # a written file is created as open() creates one, 0o666 less the umask,
    # and the write leaves the process umask as it was
    old = os.umask(umask)
    try:
        write_tensor(tmp_path / "t.trpc", np.ones((2, 2)))
        write_report(tmp_path / "r.jsonl", [{"a": 1}])
        after = os.umask(umask)
    finally:
        os.umask(old)
    assert after == umask
    for name in ("t.trpc", "r.jsonl"):
        assert (tmp_path / name).stat().st_mode & 0o777 == mode, name


# ---------------------------------------------------------------------------
# report and CSV writers


def test_report_schema_line_and_sorted_keys(tmp_path):
    path = tmp_path / "report.jsonl"
    write_report(path, [{"b": 1, "a": np.float64(2.5)}, {"record": "final"}])
    lines = path.read_text().splitlines()
    assert json.loads(lines[0]) == {"record": "schema", "schema_version": 3}
    assert lines[1] == '{"a": 2.5, "b": 1}'
    assert json.loads(lines[2]) == {"record": "final"}


def test_trace_csv_columns(tmp_path):
    truth = gen_truth((8, 8, 8), 2, kappa=2.0, alpha=0.125, seed=1)
    cfg = SolverConfig(rank=(2, 2, 2), max_iters=5, stop_tol=0.0)
    with_ref = solve(truth.y, cfg, reference=truth).trace
    path = tmp_path / "trace.csv"
    write_trace_csv(path, with_ref)
    rows = list(csv.reader(path.open()))
    assert rows[0] == ["iteration", "zeta", "rel_fro_error", "inf_error", "loss", "seconds"]
    assert len(rows) == 1 + len(with_ref)
    assert rows[1][0] == "0"
    assert float(rows[1][2]) == with_ref.rows[0].rel_fro_error

    without_ref = solve(truth.y, cfg).trace
    write_trace_csv(path, without_ref)
    rows = list(csv.reader(path.open()))
    assert all(r[2] == "" and r[3] == "" for r in rows[1:])


def test_trace_csv_bytes(tmp_path):
    # ints as str, floats as repr, None as an empty cell
    trace = IterationTrace([TraceRow(0, 0.5, 0.25, 1e-3, 12.5, 0.001),
                            TraceRow(1, 0.4, None, None, float("inf"), 2.5e-05)])
    path = tmp_path / "trace.csv"
    write_trace_csv(path, trace)
    assert path.read_bytes() == (
        b"iteration,zeta,rel_fro_error,inf_error,loss,seconds\n"
        b"0,0.5,0.25,0.001,12.5,0.001\n"
        b"1,0.4,,,inf,2.5e-05\n"
    )


def test_sweep_csv_columns(tmp_path):
    cells = [
        SweepCell(n=10, rank=2, alpha=0.1, kappa=5.0, median_rel_error=1e-8,
                  median_iterations=42.0, seconds=0.5, failures=0),
        SweepCell(n=10, rank=2, alpha=0.9, kappa=5.0, median_rel_error=float("nan"),
                  median_iterations=float("nan"), seconds=0.1, failures=3),
        SweepCell(n=10, rank=2, alpha=0.5, kappa=5.0, median_rel_error=0.0,
                  median_iterations=7.0, seconds=0.1, failures=0),
    ]
    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, cells)
    rows = list(csv.reader(path.open()))
    assert rows[0] == ["n", "rank", "alpha", "kappa", "median_log10_rel_error",
                       "median_iterations", "seconds", "failures"]
    assert float(rows[1][4]) == pytest.approx(-8.0)
    assert rows[2][4] == "" and rows[2][5] == "" and rows[2][7] == "3"
    assert float(rows[3][4]) == pytest.approx(-300.0)  # zero floors at 1e-300


# ---------------------------------------------------------------------------
# sweep spec parsing


def test_parse_full_spec(tmp_path):
    path = tmp_path / "spec.txt"
    path.write_text(
        "# grid over problem sizes\n"
        "n = 10, 20\n"
        "r = 1, 2\n"
        "alpha = 0.0, 0.1   # corruption levels\n"
        "kappa = 1.0\n"
        "trials = 2\n"
        "iters = 50\n"
        "eta = 0.2\n"
        "rho = auto\n"
        "stop_tol = 1e-10\n"
        "seed = 11\n"
    )
    spec = parse_sweep_spec(path)
    assert spec.n_grid == (10, 20)
    assert spec.rank_grid == (1, 2)
    assert spec.alpha_grid == (0.0, 0.1)
    assert spec.kappa_grid == (1.0,)
    assert spec.trials == 2 and spec.max_iters == 50
    assert spec.eta == 0.2 and spec.rho is None
    assert spec.stop_tol == 1e-10 and spec.seed == 11


def test_parse_defaults(tmp_path):
    path = tmp_path / "spec.txt"
    path.write_text("n = 10\nr = 2\nalpha = 0.1\nkappa = 5.0\n")
    spec = parse_sweep_spec(path)
    assert spec.trials == 3 and spec.max_iters == 200
    assert spec.eta == 0.25 and spec.rho is None
    assert spec.stop_tol == 1e-12 and spec.seed == 0


@pytest.mark.parametrize(
    "text,line",
    [
        ("n = 10\nbogus line\nr = 2\nalpha = 0.1\nkappa = 1.0\n", 2),
        ("n = 10\nn = 20\nr = 2\nalpha = 0.1\nkappa = 1.0\n", 2),
        ("n = 10\nr = 2\nalpha = 0.1\nkappa = 1.0\ncolor = red\n", 5),
        ("n = 10\nr = two\nalpha = 0.1\nkappa = 1.0\n", 2),
        ("n = 10\nr = 2\nalpha = 0.1\nkappa = 1.0\ntrials = 1.5\n", 5),
        ("n = 10\nr = 2\n", 0),
        # solver values SolverConfig rejects
        ("n = 10\nr = 2\nalpha = 0.1\nkappa = 1.0\neta = 0.5\n", 0),
        ("n = 10\nr = 2\nalpha = 0.1\nkappa = 1.0\nrho = 1.5\n", 0),
        ("n = 10\nr = 2\nalpha = 0.1\nkappa = 1.0\niters = -3\n", 0),
        ("n = 10\nr = 2\nalpha = 0.1\nkappa = 1.0\nstop_tol = nan\n", 0),
    ],
)
def test_parse_errors_carry_line_numbers(tmp_path, text, line):
    path = tmp_path / "spec.txt"
    path.write_text(text)
    with pytest.raises(SweepSpecError) as exc:
        parse_sweep_spec(path)
    assert exc.value.line == line
    assert isinstance(exc.value, ValueError)
