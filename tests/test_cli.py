"""End-to-end command line tests; everything runs in process except one smoke test."""

import argparse
import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from oracles import build_corrupt_corpus
from trpca.cli import main
from trpca.fileio import parse_sweep_spec, read_tensor, write_tensor
from trpca.rpca import SolverConfig, make_schedule, solve, spectral_init
from trpca.synth import SweepSpec, gen_truth, run_sweep
from trpca.tucker import reconstruct


def _reject(constant):
    raise ValueError(f"{constant} is not JSON")


def strict_loads(text):
    """JSON under RFC 8259, which has no NaN or Infinity."""
    return json.loads(text, parse_constant=_reject)


def run_cli(capsys, *argv):
    rc = main([str(a) for a in argv])
    captured = capsys.readouterr()
    for line in (captured.out + captured.err).splitlines():
        strict_loads(line)
    return rc, captured.out, captured.err


def synth_instance(capsys, tmp_path, n=20, rank=2, kappa=5.0, alpha=0.1, seed=0):
    prefix = tmp_path / "inst"
    rc, out, _ = run_cli(
        capsys, "synth", "--dims", f"{n},{n},{n}", "--rank", rank,
        "--kappa", kappa, "--alpha", alpha, "--seed", seed,
        "--out-prefix", prefix,
    )
    assert rc == 0
    return prefix, strict_loads(out)


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
    on_disk = strict_loads(open(f"{prefix}-meta.json").read())
    assert on_disk == meta


def test_synth_writes_every_output_by_rename(capsys, tmp_path, monkeypatch):
    targets = []
    replace = os.replace

    def recording(src, dst):
        targets.append(str(dst))
        replace(src, dst)

    monkeypatch.setattr(os, "replace", recording)
    prefix, _ = synth_instance(capsys, tmp_path, n=10, seed=2)
    assert sorted(targets) == sorted(
        f"{prefix}-{name}" for name in ("y.trpc", "xstar.trpc", "sstar.trpc", "meta.json")
    )


def test_synth_meta_reports_the_constructed_kappa(capsys, tmp_path):
    # kappa = 1e7 lies below the floor of a measured spectrum, which would
    # read it as inf (null in strict JSON); the meta file holds the value
    prefix, meta = synth_instance(capsys, tmp_path, n=20, kappa=1e7, seed=0)
    on_disk = strict_loads(open(f"{prefix}-meta.json").read())
    assert on_disk["kappa"] == on_disk["kappa_s"] == 1e7
    assert on_disk["sigma_min"] == 1e-7
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
    info = strict_loads(out)
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
    meta = strict_loads(out)
    assert meta["entry_fraction"] == 0.1
    assert meta["alpha_per_fiber"] == 0.1
    rc, out, _ = run_cli(
        capsys, "decompose", "--input", f"{prefix}-y.trpc",
        "--truth", f"{prefix}-xstar.trpc", "--rank", "2,2,2", "--iters", 300,
    )
    assert rc == 0
    assert strict_loads(out)["rel_fro_error"] <= 1e-6


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
    summary = strict_loads(out)
    assert summary["rel_fro_error"] <= 1e-6
    assert set(summary) == {
        "input", "rank", "iterations", "loss", "rel_fro_error", "inf_error",
        "seconds", "zeta0", "zeta1", "sparse_fraction",
    }
    lines = [strict_loads(l) for l in report.read_text().splitlines()]
    assert lines[0]["record"] == "schema"
    kinds = [l["record"] for l in lines[1:]]
    assert kinds == ["run", "diagnostics", "final"]
    final = lines[-1]
    assert final["rel_fro_error"] == summary["rel_fro_error"]
    assert final["iterations"] == summary["iterations"]
    trace_rows = (tmp_path / "run.trace.csv").read_text().splitlines()
    assert trace_rows[0].startswith("iteration,zeta,")
    assert len(trace_rows) == summary["iterations"] + 2  # header + row per state


def test_report_diagnostics_record_holds_the_truth_measures(capsys, tmp_path):
    # the record measures the truth alone, which has no sparse part; the
    # estimate's sparsity is the final record's sparse_fraction
    prefix, _ = synth_instance(capsys, tmp_path, n=10, seed=3)
    report = tmp_path / "run.jsonl"
    rc, _, _ = run_cli(capsys, "decompose", "--input", f"{prefix}-y.trpc",
                       "--truth", f"{prefix}-xstar.trpc", "--rank", "2,2,2",
                       "--iters", 2, "--report", report)
    assert rc == 0
    schema, _, diag, final = [strict_loads(l) for l in report.read_text().splitlines()]
    assert schema == {"record": "schema", "schema_version": 3}
    assert set(diag) == {"record", "mu", "kappa", "kappa_s", "sigma_min"}
    assert diag["record"] == "diagnostics" and "sparse_fraction" in final


def test_report_run_record_reproduces_the_solve(capsys, tmp_path):
    # the run record carries every solver setting, --alpha-estimate included:
    # a config built from it alone repeats the run's zeta0
    prefix, _ = synth_instance(capsys, tmp_path, n=10, seed=7)
    report = tmp_path / "run.jsonl"
    rc, out, _ = run_cli(capsys, "decompose", "--input", f"{prefix}-y.trpc",
                         "--rank", "2,2,2", "--iters", 3, "--alpha-estimate", "0.2",
                         "--modes", "1,0,1", "--report", report)
    assert rc == 0
    run = strict_loads(report.read_text().splitlines()[1])
    assert run["alpha_estimate"] == 0.2
    fields = {"iters": "max_iters", "modes": "active_modes"}
    settings = {k: v for k, v in run.items() if k not in ("record", "command", "input", "truth")}
    cfg = SolverConfig(**{fields.get(k, k): v for k, v in settings.items()})
    trace = solve(read_tensor(f"{prefix}-y.trpc"), cfg).trace
    assert trace.rows[0].zeta == strict_loads(out)["zeta0"]
    assert trace.rows[0].zeta != solve(read_tensor(f"{prefix}-y.trpc"),
                                       SolverConfig(rank=(2, 2, 2), max_iters=0)).trace.rows[0].zeta


def test_decompose_zero_iters_is_spectral_init(capsys, tmp_path):
    prefix, _ = synth_instance(capsys, tmp_path, n=10, seed=6)
    low, sparse = tmp_path / "low.trpc", tmp_path / "sparse.trpc"
    rc, out, _ = run_cli(
        capsys, "decompose", "--input", f"{prefix}-y.trpc", "--rank", "2,2,2",
        "--iters", 0, "--out-lowrank", low, "--out-sparse", sparse,
    )
    assert rc == 0
    summary = strict_loads(out)
    assert summary["iterations"] == 0
    assert summary["rel_fro_error"] is None and summary["inf_error"] is None
    y = read_tensor(f"{prefix}-y.trpc")
    cfg = SolverConfig(rank=(2, 2, 2))
    factors, s0 = spectral_init(y, cfg, make_schedule(cfg, y).zeta0)
    assert np.array_equal(read_tensor(low), reconstruct(factors))
    assert np.array_equal(read_tensor(sparse), s0)


def test_decompose_builds_the_low_rank_tensor_only_to_write_it(capsys, tmp_path, monkeypatch):
    prefix, _ = synth_instance(capsys, tmp_path, n=10, seed=8)

    def forbidden(factors):
        raise AssertionError("reconstruct called without --out-lowrank")

    monkeypatch.setattr("trpca.cli.reconstruct", forbidden)
    rc, _, _ = run_cli(capsys, "decompose", "--input", f"{prefix}-y.trpc", "--rank", "2,2,2",
                       "--iters", 5, "--out-sparse", tmp_path / "sparse.trpc")
    assert rc == 0


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
    cfg = SolverConfig(rank=(2, 2, 2))
    init, _ = spectral_init(y, cfg, make_schedule(cfg, y).zeta0)
    frozen = read_tensor(f"{fac}-factor1.trpc")
    assert np.array_equal(frozen, init.factors[1])
    assert not np.array_equal(read_tensor(f"{fac}-factor0.trpc"),
                              init.factors[0])


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
    assert strict_loads(out) == {"cells": 1, "out": str(out_csv)}
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
    assert rc == 2 and strict_loads(err)["error"] == "usage"
    rc, _, err = run_cli(capsys, "decompose", "--input", y, "--rank", "9,2,2")
    assert rc == 2 and strict_loads(err)["error"] == "usage"
    rc, _, err = run_cli(capsys, "info", "--input", y, "--rank", "2,2")
    assert rc == 2
    # a rank that breaks the rank rule is a usage error in every command
    for rank in ("7,2,2", "0,2,2"):
        rc, _, err = run_cli(capsys, "info", "--input", y, "--rank", rank)
        assert rc == 2 and strict_loads(err)["error"] == "usage"
    matrix = tmp_path / "matrix.trpc"
    write_tensor(matrix, np.ones((4, 4)))
    rc, _, err = run_cli(capsys, "decompose", "--input", y, "--truth", matrix,
                         "--rank", "2,2,2")
    assert rc == 2 and str(matrix) in strict_loads(err)["message"]
    rc, _, err = run_cli(capsys, "synth", "--dims", "10,10,10", "--rank", 2,
                         "--kappa", "inf", "--out-prefix", tmp_path / "inf")
    assert rc == 2 and strict_loads(err)["error"] == "usage"
    # a truth whose sigma_min reads 0 gives no oracle zeta1
    flat = tmp_path / "flat"
    rc, _, _ = run_cli(capsys, "synth", "--dims", "20,20,20", "--rank", 2, "--kappa", "1e7",
                       "--alpha", "0.1", "--out-prefix", flat)
    assert rc == 0
    argv = ("decompose", "--input", f"{flat}-y.trpc", "--truth", f"{flat}-xstar.trpc",
            "--rank", "2,2,2", "--iters", 2)
    rc, _, err = run_cli(capsys, *argv)
    payload = strict_loads(err)
    assert rc == 2 and payload["error"] == "usage"
    assert "sigma_min" in payload["message"] and "--zeta1" in payload["message"]
    assert run_cli(capsys, *argv, "--zeta1", "0.1")[0] == 0


def test_auto_thresholds_and_unparsable_numbers(capsys, tmp_path):
    # auto for --rho, --zeta0 and --zeta1 is the default run, bit for bit;
    # a threshold that is not a number and a rank entry that is not an int
    # are JSON usage errors of the parser
    prefix, _ = synth_instance(capsys, tmp_path, n=10, seed=8)
    runs = []
    for auto in ((), ("--rho", "auto", "--zeta0", "auto", "--zeta1", "auto")):
        low, sparse = tmp_path / f"low{len(auto)}.trpc", tmp_path / f"sparse{len(auto)}.trpc"
        rc, out, _ = run_cli(capsys, "decompose", "--input", f"{prefix}-y.trpc",
                             "--rank", "2,2,2", "--iters", 20, *auto,
                             "--out-lowrank", low, "--out-sparse", sparse)
        assert rc == 0
        summary = strict_loads(out)
        del summary["seconds"]
        runs.append((summary, low.read_bytes(), sparse.read_bytes()))
    assert runs[0] == runs[1]
    for bad in (("--rank", "2,2,2", "--zeta0", "x"), ("--rank", "2,a,2")):
        with pytest.raises(SystemExit) as exc:
            main(["decompose", "--input", f"{prefix}-y.trpc", *bad])
        assert exc.value.code == 2
        assert strict_loads(capsys.readouterr().err)["error"] == "usage"


def test_main_builds_its_parser_once(capsys, tmp_path, monkeypatch):
    # a second main call adds no argument to the parser, and a flag given in
    # one call does not carry over into the next
    prefix, _ = synth_instance(capsys, tmp_path)
    added = []
    real = argparse.ArgumentParser.add_argument

    def counting(self, *args, **kwargs):
        added.append(args)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting)
    argv = ("decompose", "--input", f"{prefix}-y.trpc", "--rank", "2,2,2", "--iters", 0)
    rc, out, _ = run_cli(capsys, *argv, "--zeta1", 0.5)
    assert rc == 0 and strict_loads(out)["zeta1"] == 0.5
    rc, out, _ = run_cli(capsys, *argv)
    assert rc == 0 and strict_loads(out)["zeta1"] is None
    assert added == []


def test_synth_rejects_scales_that_are_not_finite_positive_numbers(capsys, tmp_path):
    for scale in ("auto", "nan", "inf", "-1", "0"):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--dims", "10,10,10", "--rank", "2", "--alpha", "0.1",
                  "--scale", scale, "--out-prefix", str(tmp_path / "inst")])
        assert exc.value.code == 2
        payload = strict_loads(capsys.readouterr().err)
        assert payload["error"] == "usage" and "--scale" in payload["message"]
    assert not list(tmp_path.iterdir())


def test_sweep_spec_with_out_of_range_eta_writes_no_csv(capsys, tmp_path):
    spec_file = tmp_path / "spec.txt"
    spec_file.write_text("n = 10\nr = 1\nalpha = 0.0\nkappa = 1.0\neta = 0.5\n")
    out_csv = tmp_path / "sweep.csv"
    rc, _, err = run_cli(capsys, "sweep", "--spec", spec_file, "--out", out_csv)
    assert rc == 3
    assert "eta" in strict_loads(err)["message"]
    assert not out_csv.exists()


def test_sweep_spec_with_invalid_grid_values_writes_no_csv(capsys, tmp_path):
    grids = {"n": "10", "r": "1", "alpha": "0.0", "kappa": "1.0"}
    for key, value in [("r", "0"), ("kappa", "0.5"), ("kappa", "inf"), ("alpha", "1.5"),
                       ("n", "0")]:
        spec_file = tmp_path / "spec.txt"
        spec_file.write_text("".join(f"{k} = {v}\n" for k, v in {**grids, key: value}.items()))
        out_csv = tmp_path / "sweep.csv"
        rc, _, err = run_cli(capsys, "sweep", "--spec", spec_file, "--out", out_csv)
        assert rc == 3 and strict_loads(err)["line"] == 0, (key, value)
        assert not out_csv.exists()


def test_sweep_spec_with_a_negative_seed_exits_3_and_writes_no_csv(capsys, tmp_path):
    # it passed the parser and failed in run_sweep with numpy's message, exit 2
    spec_file = tmp_path / "spec.txt"
    spec_file.write_text("n = 10\nr = 1\nalpha = 0.0\nkappa = 1.0\nseed = -1\n")
    out_csv = tmp_path / "sweep.csv"
    rc, _, err = run_cli(capsys, "sweep", "--spec", spec_file, "--out", out_csv)
    error = strict_loads(err)
    assert rc == 3 and error["line"] == 0 and error["path"] == str(spec_file)
    assert "seed" in error["message"]
    assert not out_csv.exists()


def test_non_finite_values_are_written_as_null(capsys, tmp_path):
    prefix = tmp_path / "inst"
    rc, _, _ = run_cli(capsys, "synth", "--dims", "12,12,12", "--rank", 2, "--seed", 3,
                       "--out-prefix", prefix)
    assert rc == 0
    rc, out, _ = run_cli(capsys, "info", "--input", f"{prefix}-xstar.trpc",
                         "--rank", "9,2,2")
    assert rc == 0 and strict_loads(out)["kappa"] is None
    report = tmp_path / "run.jsonl"
    rc, out, _ = run_cli(capsys, "decompose", "--input", f"{prefix}-y.trpc",
                         "--rank", "2,2,2", "--iters", 2, "--zeta1", "inf",
                         "--report", report)
    assert rc == 0 and strict_loads(out)["zeta1"] is None
    records = [strict_loads(line) for line in report.read_text().splitlines()]
    assert [r["zeta1"] for r in records[1:]] == [None, None]  # run and final


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
    payload = strict_loads(err)
    assert payload["error"] == "io" and payload["code"] == "bad-magic"
    rc, _, _ = run_cli(capsys, "info", "--input", tmp_path / "missing.trpc",
                       "--rank", "2,2,2")
    assert rc == 3

    zero = tmp_path / "zero.trpc"
    write_tensor(zero, np.zeros((5, 5, 5)))
    rc, _, err = run_cli(capsys, "info", "--input", zero, "--rank", "2,2,2")
    assert rc == 3
    # degenerate data is an input error, as a --truth too
    rc, _, err = run_cli(capsys, "decompose", "--input", bad, "--truth", zero,
                         "--rank", "2,2,2")
    assert rc == 3
    rc, _, err = run_cli(capsys, "decompose", "--input", zero, "--truth", zero,
                         "--rank", "2,2,2")
    payload = strict_loads(err)
    assert rc == 3 and payload["error"] == "io" and payload["path"] == str(zero)

    spec_file = tmp_path / "spec.txt"
    spec_file.write_text("n = 10\nwhat even is this\n")
    rc, _, err = run_cli(capsys, "sweep", "--spec", spec_file,
                         "--out", tmp_path / "o.csv")
    assert rc == 3 and strict_loads(err)["line"] == 2


def test_info_on_a_header_claiming_more_payload_than_the_file_exits_3(capsys, tmp_path):
    # dims of 2**40 elements in a 72-byte file: refused before any allocation
    huge = tmp_path / "huge_dims.trpc"
    assert (huge, "truncated") in build_corrupt_corpus(tmp_path)
    rc, _, err = run_cli(capsys, "info", "--input", huge, "--rank", "2,2")
    payload = strict_loads(err)
    assert rc == 3 and payload["error"] == "io" and payload["code"] == "truncated"
    assert payload["path"] == str(huge)


def test_info_on_a_pipe_whose_header_claims_more_than_arrives_exits_3(capsys, tmp_path):
    # the same 72 bytes through a FIFO, whose size is unknown up front: read
    # in bounded chunks to the stream's end, not allocated whole
    huge, fifo = tmp_path / "huge_dims.trpc", tmp_path / "fifo"
    assert (huge, "truncated") in build_corrupt_corpus(tmp_path)
    os.mkfifo(fifo)
    feeder = threading.Thread(target=lambda: fifo.write_bytes(huge.read_bytes()),
                              daemon=True)
    feeder.start()
    try:
        rc, _, err = run_cli(capsys, "info", "--input", fifo, "--rank", "2,2")
    finally:
        feeder.join(timeout=10)
        assert not feeder.is_alive()
    payload = strict_loads(err)
    assert rc == 3 and payload["error"] == "io" and payload["code"] == "truncated"
    assert payload["path"] == str(fifo)


def test_solver_errors(capsys, tmp_path):
    zero = tmp_path / "zero.trpc"
    write_tensor(zero, np.zeros((6, 6, 6)))
    rc, _, err = run_cli(capsys, "decompose", "--input", zero, "--rank", "2,2,2")
    assert rc == 4 and strict_loads(err)["error"] == "solver"


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
    meta = strict_loads(out.stdout)
    assert meta["dims"] == [8, 8, 8]
    assert (tmp_path / "inst-y.trpc").exists()
