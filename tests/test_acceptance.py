"""Acceptance battery: one test per shipping criterion, run with -v for the list.

The first four criteria share the same five benchmark runs (n=30, rank 2,
kappa=5, 10% corruption, oracle thresholds); those runs are produced once
and cached at module level, with the wall time of the whole batch recorded.
"""

import time

import numpy as np
import pytest

from oracles import (
    ALL_SUITES,
    build_corrupt_corpus,
    fd_gradients,
    random_tucker,
    rel_diff,
    residual_step,
)
from trpca.fileio import TensorFileError, read_tensor, write_tensor
from trpca.rpca import SolverConfig, soft_shrink, solve
from trpca.synth import SweepSpec, gen_truth, run_sweep
from trpca.tensor_ops import multilinear_mul
from trpca.tucker import breve_factor, reconstruct

_BENCH = {}


def bench_runs():
    """Five solver runs on the reference benchmark, generated lazily once."""
    if "runs" not in _BENCH:
        start = time.perf_counter()
        runs = []
        for seed in range(5):
            truth = gen_truth((30, 30, 30), 2, kappa=5.0, alpha=0.1, seed=seed)
            cfg = SolverConfig(rank=(2, 2, 2), eta=0.25, max_iters=300)
            runs.append((truth, solve(truth.y, cfg, reference=truth)))
        _BENCH["elapsed"] = time.perf_counter() - start
        _BENCH["runs"] = runs
    return _BENCH["runs"], _BENCH["elapsed"]


def test_criterion_01_benchmark_recovery():
    """Median relative error over five seeds reaches 1e-6 within 300 iterations."""
    runs, elapsed = bench_runs()
    finals = [result.trace.final.rel_fro_error for _, result in runs]
    assert np.median(finals) <= 1e-6
    assert all(result.trace.final.iteration <= 300 for _, result in runs)
    assert elapsed < 60.0


def test_criterion_02_kappa_insensitive_iteration_count():
    """Iterations to 1e-4 change by at most 2x across kappa in {1, 5, 10}."""
    iters = []
    for kappa in (1.0, 5.0, 10.0):
        truth = gen_truth((30, 30, 30), 2, kappa=kappa, alpha=0.1, seed=0)
        cfg = SolverConfig(rank=(2, 2, 2), eta=0.25, max_iters=300)
        t = solve(truth.y, cfg, reference=truth).trace.iterations_to(1e-4)
        assert t is not None
        iters.append(t)
    assert max(iters) <= 2 * min(iters)


def test_criterion_03_linear_convergence_rate():
    """Fitted log-error slope stays within 0.05 of log(rho) on every benchmark run."""
    runs, _ = bench_runs()
    for truth, result in runs:
        trace = result.trace
        rels = trace.rel_errors()
        t_end = trace.iterations_to(1e-10) or len(rels) - 1
        window = np.arange(5, t_end + 1)
        slope = np.polyfit(window, np.log(rels[window]), 1)[0]
        assert slope <= np.log(0.8875) + 0.05


def test_criterion_04_entrywise_error_spread():
    """Entrywise error stays within a small factor of the Frobenius level.

    The sup-norm error is rescaled by sqrt(prod(dims) / (mu^3 prod(rank))) /
    sigma_min, which maps a flat incoherent error tensor to its relative
    Frobenius size; the spread is that value over the relative error at the
    first iteration reaching 1e-6, allowed a factor-2 cushion over the
    nominal 8.
    """
    runs, _ = bench_runs()
    spreads = []
    for truth, result in runs:
        d = truth.diagnostics
        t_star = result.trace.iterations_to(1e-6)
        assert t_star is not None
        row = result.trace.rows[t_star]
        normalized = row.inf_error * np.sqrt(30**3 / (d.mu**3 * 8)) / d.sigma_min
        spreads.append(normalized / row.rel_fro_error)
    assert np.median(spreads) <= 16.0


def test_criterion_05_sweep_separates_regimes():
    """Corruption at 5% vs 60% splits the sweep by >= 4 orders of magnitude."""
    spec = SweepSpec(n_grid=(30,), rank_grid=(2,), alpha_grid=(0.05, 0.6),
                     kappa_grid=(5.0,), trials=3, max_iters=200)
    easy, hard = run_sweep(spec)
    assert easy.failures == 0 and hard.failures == 0
    gap = np.log10(hard.median_rel_error) - np.log10(easy.median_rel_error)
    assert gap >= 4.0


def test_criterion_06_threshold_decay_rate_ordering():
    """Slower threshold decay means strictly more iterations to 1e-6."""
    truth = gen_truth((30, 30, 30), 2, kappa=5.0, alpha=0.05, seed=0)
    counts = []
    for rho in (0.75, 0.85, 0.95):
        cfg = SolverConfig(rank=(2, 2, 2), eta=0.25, rho=rho,
                           max_iters=600, stop_tol=0.0)
        t = solve(truth.y, cfg, reference=truth).trace.iterations_to(1e-6)
        assert t is not None
        counts.append(t)
    assert counts[0] < counts[1] < counts[2]


def test_criterion_07_property_suites():
    """All nine randomized property suites hold over 1000 cases each."""
    children = np.random.SeedSequence(2026).spawn(len(ALL_SUITES))
    for child, (name, suite) in zip(children, ALL_SUITES.items()):
        suite(np.random.default_rng(child), 1000)


def test_criterion_08_preconditioned_gradient_check():
    """One solver step matches finite-difference gradients on 10 instances.

    For loss 0.5*||X(F) + S - Y||_F^2 the factor update moves by
    eta * grad_U * (B^T B)^{-1} and the core by the per-mode
    (U^T U)^{-1}-preconditioned core gradient; both are checked against
    central differences at 1e-4 relative accuracy.
    """
    rng = np.random.default_rng(31)
    eta = 0.25
    for case in range(10):
        order = 4 if case >= 8 else 3
        dims = tuple(rng.integers(3, 6, size=order))
        while True:
            rank = tuple(rng.integers(1, 3, size=order))
            # a nondegenerate core needs r_k <= prod of the other ranks
            if all(r <= np.prod(rank) // r for r in rank):
                break
        f = random_tucker(rng, dims, rank)
        y = rng.standard_normal(dims)
        s_next = soft_shrink(rng.standard_normal(dims), 1.0)
        cfg = SolverConfig(rank=rank, eta=eta)
        f_next = residual_step(f, y - reconstruct(f) - s_next, cfg)
        fd_factors, fd_core = fd_gradients(f, y, s_next)
        for k in range(order):
            b = breve_factor(f, k)
            want = fd_factors[k] @ np.linalg.inv(b.T @ b)
            got = (f.factors[k] - f_next.factors[k]) / eta
            assert rel_diff(got, want) < 1e-4
        pre = [np.linalg.inv(u.T @ u) for u in f.factors]
        want_core = multilinear_mul(pre, fd_core)
        got_core = (f.core - f_next.core) / eta
        assert rel_diff(got_core, want_core) < 1e-4


def test_criterion_09_order_four_support():
    """Order-4 recovery converges through the same solve as order 3."""
    truth4 = gen_truth((8, 8, 8, 8), 2, kappa=3.0, alpha=0.0, seed=0)
    cfg4 = SolverConfig(rank=(2, 2, 2, 2), eta=0.25, max_iters=100)
    result4 = solve(truth4.y, cfg4, reference=truth4)
    assert result4.trace.final.rel_fro_error <= 1e-8
    assert result4.trace.final.iteration <= 100


def test_criterion_10_container_format(tmp_path):
    """100 random tensors round-trip byte-identically; corrupt files are rejected."""
    rng = np.random.default_rng(10)
    for i in range(100):
        dims = tuple(rng.integers(1, 7, size=rng.integers(1, 5)))
        t = rng.standard_normal(dims)
        p1 = tmp_path / f"rt{i}a.trpc"
        p2 = tmp_path / f"rt{i}b.trpc"
        write_tensor(p1, t)
        back = read_tensor(p1)
        assert np.array_equal(back, t)
        write_tensor(p2, back)
        assert p1.read_bytes() == p2.read_bytes()

    corpus_dir = tmp_path / "corrupt"
    corpus_dir.mkdir()
    for path, code in build_corrupt_corpus(corpus_dir):
        with pytest.raises(TensorFileError) as exc:
            read_tensor(path)
        assert exc.value.code == code, path.name
