"""End-to-end command line tests; everything runs in process except one smoke test."""

import json
import subprocess
import sys

import numpy as np
import pytest

from trpca.cli import main
from trpca.fileio import parse_sweep_spec, read_tensor, write_tensor
from trpca.rpca import SolverConfig, solve, spectral_init
from trpca.synth import SweepSpec, gen_truth, run_sweep
from trpca.tucker import reconstruct


def run_cli(capsys, *argv):
    rc = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def synth_instance(capsys, tmp_path, n=20, rank=2, kappa=5.0, alpha=0.1, seed=0):
    prefix = tmp_path / "inst"
    rc, out, _ = run_cli(
        capsys, "synth", "--dims", f"{n},{n},{n}", "--rank", rank,
        "--kappa", kappa, "--alpha", alpha, "--seed", seed,
        "--out-prefix", prefix,
    )
    assert rc == 0
    return prefix, json.loads(out)


# ---------------------------------------------------------------------------
# synth


def test_synth_writes_instance(capsys, tmp_path):
    prefix, meta = synth_instance(capsys, tmp_path, n=20, kappa=10.0, seed=7)
    y = read_tensor(f"{prefix}-y.trpc")
    x = read_tensor(f"{prefix}-xstar.trpc")
    s = read_tensor(f"{prefix}-sstar.trpc")
    assert np.array_equal(y, x + s)
    assert meta["dims"] == [20, 20, 20]
    assert meta["kappa"] == pytest.approx(10.0, rel=1e-6)
    assert meta["entry_fraction"] == pytest.approx(0.1, abs=0.002)
    on_disk = json.loads(open(f"{prefix}-meta.json").read())
    assert on_disk == meta


def test_synth_deterministic_across_runs(capsys, tmp_path):
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    p1, _ = synth_instance(capsys, dirs[0], seed=3)
    p2, _ = synth_instance(capsys, dirs[1], seed=3)
    assert open(f"{p1}-y.trpc", "rb").read() == open(f"{p2}-y.trpc", "rb").read()
    p3, _ = synth_instance(capsys, dirs[2], seed=4)
    assert open(f"{p1}-y.trpc", "rb").read() != open(f"{p3}-y.trpc", "rb").read()


def test_synth_then_info_round_trip(capsys, tmp_path):
    prefix, meta = synth_instance(capsys, tmp_path, n=14, kappa=6.0, seed=1)
    rc, out, _ = run_cli(capsys, "info", "--input", f"{prefix}-xstar.trpc",
                         "--rank", "2,2,2")
    assert rc == 0
    info = json.loads(out)
    assert info["kappa"] == pytest.approx(meta["kappa"], rel=1e-12)
    assert info["kappa"] == pytest.approx(6.0, rel=1e-6)
    assert info["mu"] == pytest.approx(meta["mu"], rel=1e-12)
    assert info["dims"] == [14, 14, 14]


def test_synth_unequal_dims_round_trip(capsys, tmp_path):
    prefix = tmp_path / "inst"
    rc, out, _ = run_cli(
        capsys, "synth", "--dims", "40,30,20", "--rank", 2, "--kappa", 5,
        "--alpha", 0.1, "--seed", 0, "--out-prefix", prefix,
    )
    assert rc == 0
    meta = json.loads(out)
    assert meta["entry_fraction"] == 0.1
    assert meta["alpha_per_fiber"] == 0.1
    rc, out, _ = run_cli(
        capsys, "decompose", "--input", f"{prefix}-y.trpc",
        "--truth", f"{prefix}-xstar.trpc", "--rank", "2,2,2", "--iters", 300,
    )
    assert rc == 0
    assert json.loads(out)["rel_fro_error"] <= 1e-6


# ---------------------------------------------------------------------------
# decompose


def test_decompose_recovers_truth_and_reports(capsys, tmp_path):
    prefix, _ = synth_instance(capsys, tmp_path, n=20, seed=5)
    report = tmp_path / "run.jsonl"
    rc, out, _ = run_cli(
        capsys, "decompose", "--input", f"{prefix}-y.trpc",
        "--truth", f"{prefix}-xstar.trpc", "--rank", "2,2,2",
        "--iters", 300, "--report", report,
    )
    assert rc == 0
    summary = json.loads(out)
    assert summary["rel_fro_error"] <= 1e-6
    assert set(summary) == {
        "input", "rank", "iterations", "loss", "rel_fro_error", "inf_error",
        "seconds", "zeta0", "zeta1", "sparse_fraction",
    }
    lines = [json.loads(l) for l in report.read_text().splitlines()]
    assert lines[0]["record"] == "schema"
    kinds = [l["record"] for l in lines[1:]]
    assert kinds == ["run", "diagnostics", "final"]
    final = lines[-1]
    assert final["rel_fro_error"] == summary["rel_fro_error"]
    assert final["iterations"] == summary["iterations"]
    trace_rows = (tmp_path / "run.trace.csv").read_text().splitlines()
    assert trace_rows[0].startswith("iteration,zeta,")
    assert len(trace_rows) == summary["iterations"] + 2  # header + row per state


def test_decompose_zero_iters_is_spectral_init(capsys, tmp_path):
    prefix, _ = synth_instance(capsys, tmp_path, n=10, seed=6)
    low, sparse = tmp_path / "low.trpc", tmp_path / "sparse.trpc"
    rc, out, _ = run_cli(
        capsys, "decompose", "--input", f"{prefix}-y.trpc", "--rank", "2,2,2",
        "--iters", 0, "--out-lowrank", low, "--out-sparse", sparse,
    )
    assert rc == 0
    summary = json.loads(out)
    assert summary["iterations"] == 0
    assert summary["rel_fro_error"] is None and summary["inf_error"] is None
    y = read_tensor(f"{prefix}-y.trpc")
    state = spectral_init(y, SolverConfig(rank=(2, 2, 2)))
    assert np.array_equal(read_tensor(low), reconstruct(state.factors))
    assert np.array_equal(read_tensor(sparse), state.sparse)


def test_decompose_matches_library_run(capsys, tmp_path):
    prefix, _ = synth_instance(capsys, tmp_path, n=10, seed=8)
    low, sparse = tmp_path / "low.trpc", tmp_path / "sparse.trpc"
    fac = tmp_path / "fac"
    rc, _, _ = run_cli(
        capsys, "decompose", "--input", f"{prefix}-y.trpc", "--rank", "2,2,2",
        "--iters", 30, "--out-lowrank", low, "--out-sparse", sparse,
        "--out-factors", fac,
    )
    assert rc == 0
    y = read_tensor(f"{prefix}-y.trpc")
    result = solve(y, SolverConfig(rank=(2, 2, 2), max_iters=30))
    assert np.array_equal(read_tensor(low), reconstruct(result.factors))
    assert np.array_equal(read_tensor(sparse), result.sparse)
    for k in range(3):
        assert np.array_equal(read_tensor(f"{fac}-factor{k}.trpc"),
                              result.factors.factors[k])
    assert np.array_equal(read_tensor(f"{fac}-core.trpc"), result.factors.core)


def test_decompose_selective_modes(capsys, tmp_path):
    prefix, _ = synth_instance(capsys, tmp_path, n=10, seed=9)
    fac = tmp_path / "fac"
    rc, _, _ = run_cli(
        capsys, "decompose", "--input", f"{prefix}-y.trpc", "--rank", "2,2,2",
        "--iters", 10, "--modes", "1,0,1", "--out-factors", fac,
    )
    assert rc == 0
    y = read_tensor(f"{prefix}-y.trpc")
    init = spectral_init(y, SolverConfig(rank=(2, 2, 2)))
    frozen = read_tensor(f"{fac}-factor1.trpc")
    assert np.array_equal(frozen, init.factors.factors[1])
    assert not np.array_equal(read_tensor(f"{fac}-factor0.trpc"),
                              init.factors.factors[0])


# ---------------------------------------------------------------------------
# sweep


def test_sweep_command_matches_library(capsys, tmp_path):
    spec_file = tmp_path / "spec.txt"
    spec_file.write_text(
        "n = 10\nr = 1\nalpha = 0.0\nkappa = 1.0\n"
        "trials = 1\niters = 25\nseed = 2\n"
    )
    out_csv = tmp_path / "sweep.csv"
    rc, out, _ = run_cli(capsys, "sweep", "--spec", spec_file, "--out", out_csv)
    assert rc == 0
    assert json.loads(out) == {"cells": 1, "out": str(out_csv)}
    rows = out_csv.read_text().splitlines()
    assert len(rows) == 2
    cell = run_sweep(parse_sweep_spec(spec_file))[0]
    fields = rows[1].split(",")
    assert float(fields[4]) == np.log10(max(cell.median_rel_error, 1e-300))
    assert float(fields[5]) == cell.median_iterations
    assert fields[7] == "0"


# ---------------------------------------------------------------------------
# failure modes


def test_usage_errors(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "--no-such-flag"])
    assert exc.value.code == 2
    capsys.readouterr()

    y = tmp_path / "y.trpc"
    write_tensor(y, np.ones((4, 4, 4)))
    rc, _, err = run_cli(capsys, "decompose", "--input", y, "--rank", "2,2,2",
                         "--modes", "0,2,1")
    assert rc == 2 and json.loads(err)["error"] == "usage"
    rc, _, err = run_cli(capsys, "decompose", "--input", y, "--rank", "9,2,2")
    assert rc == 2 and json.loads(err)["error"] == "usage"
    rc, _, err = run_cli(capsys, "info", "--input", y, "--rank", "2,2")
    assert rc == 2


def test_zeta1_grid_is_a_usage_error(capsys, tmp_path):
    # the flag kept the candidate with the lowest final loss, which a smaller
    # zeta1 always wins by letting the sparse part absorb the residual
    prefix, _ = synth_instance(capsys, tmp_path, n=10, seed=10)
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "--input", f"{prefix}-y.trpc", "--rank", "2,2,2",
              "--zeta1-grid", "1e-6,1e-2"])
    assert exc.value.code == 2
    assert "--zeta1-grid" in capsys.readouterr().err


def test_io_errors(capsys, tmp_path):
    bad = tmp_path / "bad.trpc"
    bad.write_bytes(b"XXXX" + bytes(16))
    rc, _, err = run_cli(capsys, "decompose", "--input", bad, "--rank", "2,2,2")
    assert rc == 3
    payload = json.loads(err)
    assert payload["error"] == "io" and payload["code"] == "bad-magic"
    rc, _, _ = run_cli(capsys, "info", "--input", tmp_path / "missing.trpc",
                       "--rank", "2,2,2")
    assert rc == 3

    zero = tmp_path / "zero.trpc"
    write_tensor(zero, np.zeros((5, 5, 5)))
    rc, _, err = run_cli(capsys, "info", "--input", zero, "--rank", "2,2,2")
    assert rc == 3

    spec_file = tmp_path / "spec.txt"
    spec_file.write_text("n = 10\nwhat even is this\n")
    rc, _, err = run_cli(capsys, "sweep", "--spec", spec_file,
                         "--out", tmp_path / "o.csv")
    assert rc == 3 and json.loads(err)["line"] == 2


def test_solver_errors(capsys, tmp_path):
    zero = tmp_path / "zero.trpc"
    write_tensor(zero, np.zeros((6, 6, 6)))
    rc, _, err = run_cli(capsys, "decompose", "--input", zero, "--rank", "2,2,2")
    assert rc == 4 and json.loads(err)["error"] == "solver"


# ---------------------------------------------------------------------------
# module entry point


def test_module_invocation_smoke(tmp_path):
    out = subprocess.run(
        [sys.executable, "-m", "trpca", "synth", "--dims", "8,8,8",
         "--rank", "1", "--kappa", "1.0", "--alpha", "0.0", "--seed", "0",
         "--out-prefix", str(tmp_path / "inst")],
        capture_output=True, text=True,
    )
    assert out.returncode == 0
    meta = json.loads(out.stdout)
    assert meta["dims"] == [8, 8, 8]
    assert (tmp_path / "inst-y.trpc").exists()
