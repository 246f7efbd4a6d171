"""Shrinkage, threshold schedule, spectral init, and the scaled-gradient solver."""

import tracemalloc
import types

import numpy as np
import pytest

import trpca.rpca
from oracles import (
    fd_gradients,
    oracle_change_sq,
    oracle_scaled_step,
    oracle_solve,
    random_tucker,
    rel_diff,
    residual_step,
    suite_corrupt_iter,
    update_sparse,
)
from trpca.rpca import (
    DivergenceError,
    Reference,
    SingularGramError,
    SolverConfig,
    ThresholdSchedule,
    _change_sq,
    make_schedule,
    scaled_step,
    soft_shrink,
    solve,
    spectral_init,
)
from trpca.metrics import tensor_diagnostics
from trpca.synth import gen_truth
from trpca.tensor_ops import fro_norm, inf_norm
from trpca.tucker import TuckerFactors, hosvd, reconstruct


# ---------------------------------------------------------------------------
# soft_shrink


def test_soft_shrink_values():
    x = np.array([2.5, -0.5, 0.0, 1.0])
    np.testing.assert_allclose(soft_shrink(x, 1.0), [1.5, 0.0, 0.0, 0.0])
    assert np.array_equal(soft_shrink(x, 0.0), x)
    assert np.all(soft_shrink(x, np.abs(x).max()) == 0.0)


def test_soft_shrink_support_and_inf_norm():
    rng = np.random.default_rng(0)
    t = rng.standard_normal((4, 4, 4))
    out = soft_shrink(t, 0.7)
    assert not np.any((out != 0) & (t == 0))
    assert inf_norm(out) == pytest.approx(max(0.0, inf_norm(t) - 0.7), abs=1e-15)
    for zeta in (-0.1, np.nan):  # a NaN threshold would shrink to all NaN
        with pytest.raises(ValueError, match="threshold"):
            soft_shrink(t, zeta)


# ---------------------------------------------------------------------------
# schedule and config


def test_schedule_geometric_sequence():
    sched = ThresholdSchedule(zeta0=1.0, zeta1=0.5, rho=0.5)
    assert [sched.value(t) for t in range(5)] == [1.0, 0.5, 0.25, 0.125, 0.0625]
    with pytest.raises(ValueError):
        sched.value(-1)
    with pytest.raises(ValueError):
        ThresholdSchedule(1.0, 1.0, rho=1.0)
    for zeta0, zeta1 in ((-1.0, 1.0), (np.nan, 1.0), (1.0, np.nan)):
        with pytest.raises(ValueError, match="thresholds"):
            ThresholdSchedule(zeta0, zeta1, 0.5)


def test_default_rho_from_eta():
    assert SolverConfig(rank=(2, 2, 2), eta=0.2).effective_rho == pytest.approx(0.91, abs=1e-15)
    assert SolverConfig(rank=(2, 2, 2)).effective_rho == pytest.approx(0.8875, abs=1e-15)
    sched = ThresholdSchedule(1.0, 2.0, rho=0.91)
    assert sched.value(3) == pytest.approx(0.91**2 * 2.0, rel=1e-15)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(rank=(2, 0, 2))
    for rank in ((2.7, 2, 2), (2, 2, 1.5)):  # a fractional rank is not truncated
        with pytest.raises(ValueError, match="integers"):
            SolverConfig(rank=rank)
    assert SolverConfig(rank=(2.0, np.int64(3), np.uint8(2))).rank == (2, 3, 2)
    with pytest.raises(ValueError):
        SolverConfig(rank=(2, 2, 2), eta=0.3)
    with pytest.raises(ValueError):
        SolverConfig(rank=(2, 2, 2), eta=0.0)
    with pytest.raises(ValueError):
        SolverConfig(rank=(2, 2, 2), rho=1.0)
    with pytest.raises(ValueError):
        SolverConfig(rank=(2, 2, 2), zeta0=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(rank=(2, 2, 2), max_iters=-1)
    with pytest.raises(ValueError):
        SolverConfig(rank=(2, 2, 2), alpha_estimate=1.0)
    for tol in (-1e-9, float("nan")):  # a NaN tolerance would never stop a run
        with pytest.raises(ValueError, match="stop_tol"):
            SolverConfig(rank=(2, 2, 2), stop_tol=tol)
    cfg = SolverConfig(rank=(2, 2, 2), active_modes=(True, False, True))
    assert cfg.modes_mask(3) == (True, False, True)
    with pytest.raises(ValueError):
        cfg.modes_mask(4)
    assert SolverConfig(rank=(2, 2, 2), active_modes=(1, 0, 1)).active_modes == (True, False, True)
    for modes in ((1, 2, 0), (True, "no", True), (1, None, 1)):
        with pytest.raises(ValueError, match="active_modes"):
            SolverConfig(rank=(2, 2, 2), active_modes=modes)


def test_make_schedule_explicit_passthrough():
    y = np.random.default_rng(1).standard_normal((4, 4, 4))
    cfg = SolverConfig(rank=(2, 2, 2), zeta0=1.0, zeta1=0.5, rho=0.5)
    sched = make_schedule(cfg, y)
    assert (sched.zeta0, sched.zeta1, sched.rho) == (1.0, 0.5, 0.5)


def test_make_schedule_oracle_zeta1():
    truth = gen_truth((15, 15, 15), 2, kappa=4.0, alpha=0.1, seed=2)
    cfg = SolverConfig(rank=(2, 2, 2))
    sched = make_schedule(cfg, truth.y, reference=truth)
    d = truth.diagnostics
    ref = 8.0 * np.sqrt(d.mu**3 * 8 / 15**3) * d.sigma_min
    assert sched.zeta1 == pytest.approx(ref, rel=1e-9)
    assert sched.zeta0 == inf_norm(truth.x_star)
    # a reference whose sigma_min reads 0 would give zeta1 = 0, a schedule
    # under which every step vanishes: both entry points reject it.  The
    # dense measurement of a kappa = 1e7 truth reads 0 below the Gram path's
    # floor, though the truth itself reports its constructed 1e-7
    truth = gen_truth((20, 20, 20), 2, kappa=1e7, alpha=0.1, seed=0)
    flat = Reference(truth.x_star, tensor_diagnostics(truth.x_star, (2, 2, 2)))
    assert flat.diagnostics.sigma_min == 0.0
    with pytest.raises(ValueError, match="sigma_min.*--zeta1"):
        make_schedule(cfg, truth.y, reference=flat)
    with pytest.raises(ValueError, match="sigma_min.*--zeta1"):
        solve(truth.y, cfg, reference=flat)
    explicit = SolverConfig(rank=(2, 2, 2), zeta1=0.1)
    assert make_schedule(explicit, truth.y, reference=flat).zeta1 == 0.1


def test_make_schedule_is_scale_exact_and_matches_solve():
    # the spectral initialization behind the automatic zeta1 runs on y scaled
    # by a power of two, as in solve, so a 2**-660 scale neither underflows
    # its Gram matrices nor moves the schedule off the exact scaled values
    truth = gen_truth((12, 12, 12), 2, kappa=5.0, alpha=0.1, seed=29)
    cfg = SolverConfig(rank=(2, 2, 2), max_iters=1)
    base = make_schedule(cfg, truth.y)
    for c in (1.0, 2.0**-660):
        sched = make_schedule(cfg, c * truth.y)
        assert (sched.zeta0, sched.zeta1, sched.rho) == (c * base.zeta0, c * base.zeta1,
                                                         base.rho)
        rows = solve(c * truth.y, cfg).trace.rows
        assert (rows[0].zeta, rows[1].zeta) == (sched.zeta0, sched.zeta1)


def test_make_schedule_auto_rules():
    rng = np.random.default_rng(3)
    y = rng.standard_normal((6, 6, 6))
    cfg = SolverConfig(rank=(2, 2, 2), alpha_estimate=0.2)
    sched = make_schedule(cfg, y)
    assert sched.zeta0 == pytest.approx(np.quantile(np.abs(y), 0.8))
    factors, sparse = spectral_init(y, cfg, zeta0=sched.zeta0)
    ref = 2.0 * inf_norm(y - sparse - reconstruct(factors))
    assert sched.zeta1 == pytest.approx(ref, rel=1e-12)
    # alpha_estimate 0 falls back to the sup norm
    cfg0 = SolverConfig(rank=(2, 2, 2), alpha_estimate=0.0)
    assert make_schedule(cfg0, y).zeta0 == inf_norm(y)


def test_make_schedule_auto_zeta0_is_exactly_the_quantile():
    # the automatic zeta0 is the same bits as np.quantile(np.abs(y), q): on
    # an odd and an even number of entries, on 1 to 4 entries (a single one
    # is the largest-value case, where no entry follows statistic k), with
    # ties, on both sides of numpy's interpolation rule, and y stays untouched
    rng = np.random.default_rng(4)
    shapes = ((5, 7, 9), (4, 6, 8), (1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 2, 2))
    cases = [rng.standard_normal(dims) for dims in shapes]
    cases += [0.5 * rng.integers(-2, 3, size=dims) for dims in ((5, 7, 9), (1, 2, 2))]
    cases.append(gen_truth((10, 10, 10), 2, kappa=3.0, alpha=0.1, seed=4).y)
    seen = set()
    for y in cases:
        y_copy = y.copy()
        n = y.size
        for alpha in (1e-9, 0.05, 0.1, 0.5, 0.999):
            cfg = SolverConfig(rank=(1, 1, 1), zeta1=1.0, alpha_estimate=alpha)
            assert make_schedule(cfg, y).zeta0 == np.quantile(np.abs(y), 1.0 - alpha)
            v = (n - 1) * (1.0 - alpha)
            seen.add("largest" if v >= n - 1 else "hi - d * (1 - t)" if v % 1.0 >= 0.5
                     else "lo + d * t")
        assert np.array_equal(y, y_copy)
    assert seen == {"largest", "lo + d * t", "hi - d * (1 - t)"}


def test_set_up_holds_at_most_two_and_a_half_tensors_beside_y():
    # the quantile's |y| buffer, then the init's clip buffer with the HOSVD's
    # copy of the middle-mode unfolding, then s0 with the first iterate and a
    # slab of the gap (a quarter of a tensor here): y itself is never copied
    truth = gen_truth((80, 80, 80), 3, kappa=3.0, alpha=0.1, seed=33)
    y = truth.y
    cfg = SolverConfig(rank=(3, 3, 3), max_iters=0)
    peaks = []
    for run in (lambda: solve(y, cfg), lambda: make_schedule(cfg, y)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * y.nbytes
        peaks.append(peak)
    # with no step to take, solve allocates no buffer for one
    assert peaks[0] <= peaks[1] + 0.01 * y.nbytes


def test_set_up_takes_the_sup_norm_of_y_once(monkeypatch):
    # _start passes its exponent to the spectral init; the gap's sup norm is
    # taken slab by slab (four slabs here), and hosvd's own finiteness check
    # goes through trpca.tucker
    truth = gen_truth((80, 80, 80), 3, kappa=3.0, alpha=0.1, seed=33)
    y = truth.y
    norm, sizes = trpca.rpca.inf_norm, []

    def inf_norm(t):
        sizes.append(np.size(t))
        return norm(t)

    monkeypatch.setattr(trpca.rpca, "inf_norm", inf_norm)
    for alpha in (0.1, 0.0):  # 0: zeta0 is ||y||_inf itself
        sizes.clear()
        make_schedule(SolverConfig(rank=(3, 3, 3), alpha_estimate=alpha), y)
        assert sizes.count(y.size) == 1 and len(sizes) > 1


# ---------------------------------------------------------------------------
# spectral_init


def test_spectral_init_exact_low_rank():
    truth = gen_truth((10, 10, 10), 2, kappa=3.0, alpha=0.0, seed=4)
    y = truth.y
    cfg = SolverConfig(rank=(2, 2, 2))
    factors, sparse = spectral_init(y, cfg, zeta0=inf_norm(y))
    assert np.all(sparse == 0)
    assert rel_diff(reconstruct(factors), y) < 1e-9


def test_spectral_init_sparse_only():
    rng = np.random.default_rng(5)
    y = np.where(rng.random((8, 8, 8)) < 0.05, rng.standard_normal((8, 8, 8)), 0.0)
    cfg = SolverConfig(rank=(2, 2, 2))
    # zeta0 = 0 absorbs everything into the sparse part: zero residual, zero core
    factors, sparse = spectral_init(y, cfg, zeta0=0.0)
    assert np.array_equal(sparse, y)
    assert fro_norm(factors.core) == 0.0
    # a threshold at the sup norm shrinks the sparse part away entirely instead
    factors, sparse = spectral_init(y, cfg, zeta0=inf_norm(y))
    assert np.all(sparse == 0)


def test_spectral_init_error_level_regression():
    truth = gen_truth((30, 30, 30), 2, kappa=5.0, alpha=0.05, seed=6)
    cfg = SolverConfig(rank=(2, 2, 2))
    factors, _ = spectral_init(truth.y, cfg, make_schedule(cfg, truth.y, truth).zeta0)
    rel = rel_diff(reconstruct(factors), truth.x_star)
    assert rel < 0.5


# ---------------------------------------------------------------------------
# update_sparse (the whole-tensor oracle of the solver's slab-wise shrink)


def test_update_sparse_exact_factors():
    truth = gen_truth((12, 12, 12), 2, kappa=2.0, alpha=1 / 12, seed=7)
    nz = np.abs(truth.s_star[truth.s_star != 0])
    s_next = update_sparse(truth.factors, truth.y, 0.5 * nz.min())
    assert np.array_equal(s_next != 0, truth.s_star != 0)
    assert np.all(update_sparse(truth.factors, truth.y, 1e6) == 0)


def test_update_sparse_containment_suite():
    suite_corrupt_iter(np.random.default_rng(8), 120)


# ---------------------------------------------------------------------------
# scaled_step


def test_scaled_step_stationary_at_truth():
    for dims in [(10, 10, 10), (6, 6, 6, 6)]:
        truth = gen_truth(dims, 2, kappa=4.0, alpha=1 / dims[0], seed=9)
        cfg = SolverConfig(rank=(2,) * len(dims))
        c = truth.y - reconstruct(truth.factors) - truth.s_star
        f_next = residual_step(truth.factors, c, cfg)
        for u_new, u_old in zip(f_next.factors, truth.factors.factors):
            assert np.abs(u_new - u_old).max() < 1e-10
        assert np.abs(f_next.core - truth.factors.core).max() < 1e-10


def test_scaled_step_zero_eta_is_identity():
    # SolverConfig requires eta > 0, so the eta=0 limit is checked through a
    # minimal config stand-in exposing the two attributes scaled_step reads
    truth = gen_truth((8, 8, 8), 2, kappa=2.0, alpha=0.125, seed=10)
    cfg = types.SimpleNamespace(eta=0.0, modes_mask=lambda order: (True,) * order)
    c = truth.y - reconstruct(truth.factors) - np.zeros_like(truth.s_star)
    f_next = residual_step(truth.factors, c, cfg)
    assert all(
        np.array_equal(a, b) for a, b in zip(f_next.factors, truth.factors.factors)
    )
    assert np.array_equal(f_next.core, truth.factors.core)


def test_scaled_step_matches_fd_gradient():
    # one preconditioned step equals the central-difference gradient of
    # 0.5*||X + S - Y||_F^2 premultiplied by the inverse Gram matrices
    rng = np.random.default_rng(11)
    f = random_tucker(rng, (3, 3, 3), (2, 2, 2))
    y = rng.standard_normal((3, 3, 3))
    s_next = soft_shrink(rng.standard_normal((3, 3, 3)), 1.0)
    eta = 0.25
    cfg = SolverConfig(rank=(2, 2, 2), eta=eta)
    f_next = residual_step(f, y - reconstruct(f) - s_next, cfg)
    fd_factors, fd_core = fd_gradients(f, y, s_next)
    from trpca.tucker import breve_factor

    for k in range(3):
        b = breve_factor(f, k)
        want = fd_factors[k] @ np.linalg.inv(b.T @ b)
        got = (f.factors[k] - f_next.factors[k]) / eta
        assert rel_diff(got, want) < 1e-4
    from trpca.tensor_ops import multilinear_mul

    pre = [np.linalg.inv(u.T @ u) for u in f.factors]
    want_core = multilinear_mul(pre, fd_core)
    got_core = (f.core - f_next.core) / eta
    assert rel_diff(got_core, want_core) < 1e-4


def test_scaled_step_matches_breve_oracle():
    # the r-space step against the explicit co-factor form, on uneven dims
    # and ranks of orders 3-5, with every mode active, mode 0 frozen (which
    # skips the second full contraction), the last mode frozen, and all
    # factor updates off
    rng = np.random.default_rng(25)
    eta = 0.2
    cases = [((7, 5, 6), (3, 2, 4)), ((4, 6, 5, 3), (2, 3, 2, 2)),
             ((3, 4, 5, 3, 4), (2, 2, 3, 1, 2))]
    for dims, rank in cases:
        order = len(dims)
        masks = [(True,) * order, (False,) + (True,) * (order - 1),
                 (True,) * (order - 1) + (False,), tuple(k % 2 == 1 for k in range(order)),
                 (False,) * order]
        for mask in masks:
            f = random_tucker(rng, dims, rank)
            y = rng.standard_normal(dims)
            s_next = soft_shrink(rng.standard_normal(dims), 1.0)
            cfg = SolverConfig(rank=rank, eta=eta, active_modes=mask)
            got = residual_step(f, y - reconstruct(f) - s_next, cfg)
            want = oracle_scaled_step(f, y, s_next, eta, mask)
            for k, u in enumerate(f.factors):
                if mask[k]:
                    assert rel_diff(u - got.factors[k], u - want.factors[k]) <= 1e-12
                else:
                    assert np.array_equal(got.factors[k], u)
            assert rel_diff(f.core - got.core, f.core - want.core) <= 1e-12


def test_scaled_step_singular_gram_reports_mode():
    f = random_tucker(np.random.default_rng(12), (4, 4, 4), (2, 2, 2))
    f.core[:] = 0.0  # co-factors collapse
    c = np.zeros((4, 4, 4)) - reconstruct(f) - np.zeros((4, 4, 4))
    with pytest.raises(SingularGramError) as exc:
        residual_step(f, c, SolverConfig(rank=(2, 2, 2)))
    assert exc.value.mode == 0
    assert "co-factor" in str(exc.value)


def test_scaled_step_checks_only_the_grams_it_solves():
    # two equal mode-0 slices of the core make the mode-0 co-factor Gram
    # singular and leave every other Gram regular
    f = random_tucker(np.random.default_rng(30), (5, 4, 6), (2, 2, 2))
    f.core[1] = f.core[0]
    c = np.random.default_rng(31).standard_normal((5, 4, 6))
    frozen = residual_step(f, c, SolverConfig(rank=(2, 2, 2), active_modes=(False, True, True)))
    assert np.array_equal(frozen.factors[0], f.factors[0])
    assert all(np.all(np.isfinite(u)) for u in frozen.factors)
    with pytest.raises(SingularGramError) as exc:
        residual_step(f, c, SolverConfig(rank=(2, 2, 2)))
    assert exc.value.mode == 0
    assert "co-factor" in str(exc.value)


@pytest.mark.parametrize("dims, rank, seed, core_mode, factor, mask, want", [
    # equal mode-1 core slices and equal columns of U_0: the co-Grams of
    # modes 1 and 2 and the factor Gram of mode 0 are singular
    ((5, 4, 6), (2, 2, 2), 40, 1, (0, (0, 1)), None, (1, "co-factor")),
    ((5, 4, 6), (2, 2, 2), 40, 1, (0, (0, 1)), (True, False, True), (2, "co-factor")),
    ((5, 4, 6), (2, 2, 2), 40, 1, (0, (0, 1)), (True, False, False), (0, "factor")),
    # two equal columns of U_1: its factor Gram alone is singular
    ((5, 4, 6), (2, 2, 2), 41, None, (1, (0, 1)), None, (1, "factor")),
    # unequal ranks, two Gram sizes: a singular 3x3 co-Gram (mode 1) comes
    # before a singular 2x2 factor Gram (mode 0), and a singular 2x2 co-Gram
    # (mode 2) before a singular 3x3 factor Gram (mode 1)
    ((5, 6, 4), (2, 3, 2), 43, 1, (0, (0, 1)), None, (1, "co-factor")),
    ((5, 6, 4), (2, 3, 2), 43, 1, (0, (0, 1)), (True, False, True), (0, "factor")),
    ((5, 6, 4), (2, 3, 2), 42, 2, (1, (0, 2)), (True, False, True), (2, "co-factor")),
])
def test_scaled_step_raises_for_the_first_singular_gram(dims, rank, seed, core_mode, factor,
                                                        mask, want):
    # several singular Grams at once: the active co-Grams are checked first,
    # by mode, then the factor Grams, by mode, whatever their sizes.  Slice 1
    # of the core along core_mode is set equal to slice 0, and column b of
    # factor `factor_mode` to column a.
    f = random_tucker(np.random.default_rng(seed), dims, rank)
    if core_mode is not None:
        core = np.moveaxis(f.core, core_mode, 0)  # a view
        core[1] = core[0]
    factor_mode, (a, b) = factor
    f.factors[factor_mode][:, b] = f.factors[factor_mode][:, a]
    c = np.random.default_rng(5).standard_normal(dims)
    with pytest.raises(SingularGramError) as exc:
        residual_step(f, c, SolverConfig(rank=rank, active_modes=mask))
    mode, which = want
    assert exc.value.mode == mode
    assert str(exc.value).startswith(f"{which} Gram matrix for mode {mode} ")
    assert exc.value.cond > trpca.rpca.GRAM_CONDITION_LIMIT


def test_step_checks_and_inverts_its_grams_once_per_gram_size(monkeypatch):
    # one stacked eigvalsh and one stacked solve or inverse per distinct Gram
    # size and step, with results equal to the unpatched run
    cases = []
    for dims, rank in (((6, 5, 6, 4), (2, 2, 2, 2)), ((8, 9, 7), (2, 3, 2))):
        rng = np.random.default_rng(sum(rank))
        f = random_tucker(rng, dims, rank)
        c = rng.standard_normal(dims)
        truth = random_tucker(rng, dims, rank, orthonormal=True, scale=10.0)
        y = reconstruct(truth) + soft_shrink(rng.standard_normal(dims), 2.0)
        runs = {t: solve(y, SolverConfig(rank=rank, max_iters=t)) for t in (0, 6)}
        cases.append((rank, f, c, y, residual_step(f, c, SolverConfig(rank=rank)), runs))

    calls = dict.fromkeys(("eigvalsh", "solve", "inv"), 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    for rank, f, c, y, want_step, want_runs in cases:
        sizes = len(set(rank))
        calls.update(dict.fromkeys(calls, 0))
        got = residual_step(f, c, SolverConfig(rank=rank))
        assert calls["eigvalsh"] <= sizes and calls["solve"] + calls["inv"] <= sizes
        assert all(np.array_equal(a, b) for a, b in zip(got.factors, want_step.factors))
        assert np.array_equal(got.core, want_step.core)
        counts = {}
        for t, want in want_runs.items():
            calls.update(dict.fromkeys(calls, 0))
            result = solve(y, SolverConfig(rank=rank, max_iters=t))
            counts[t] = dict(calls)
            assert np.array_equal(result.sparse, want.sparse)
            assert np.array_equal(result.factors.core, want.factors.core)
        # the spectral initialization is the same in both runs
        steps = len(want_runs[6].trace) - 1
        assert steps >= 1
        per_step = {k: counts[6][k] - counts[0][k] for k in calls}
        assert per_step["eigvalsh"] <= sizes * steps
        assert per_step["solve"] + per_step["inv"] <= sizes * steps


# ---------------------------------------------------------------------------
# solve


def test_solve_zero_corruption_regression():
    truth = gen_truth((20, 20, 20), 2, kappa=5.0, alpha=0.0, seed=13)
    cfg = SolverConfig(rank=(2, 2, 2), eta=0.25, max_iters=50)
    result = solve(truth.y, cfg, reference=truth)
    assert result.trace.final.rel_fro_error <= 1e-9
    assert result.trace.final.iteration <= 50


def test_solve_zero_iters_equals_init():
    truth = gen_truth((10, 10, 10), 2, kappa=3.0, alpha=0.1, seed=14)
    cfg = SolverConfig(rank=(2, 2, 2), max_iters=0)
    result = solve(truth.y, cfg, reference=truth)
    cfg0 = SolverConfig(rank=(2, 2, 2))
    factors, sparse = spectral_init(truth.y, cfg0, make_schedule(cfg0, truth.y, truth).zeta0)
    assert np.array_equal(result.sparse, sparse)
    assert np.array_equal(reconstruct(result.factors), reconstruct(factors))
    assert len(result.trace) == 1 and result.trace.final.iteration == 0


def test_solve_early_stop_and_disable():
    truth = gen_truth((10, 10, 10), 1, kappa=1.0, alpha=0.0, seed=15)
    loose = SolverConfig(rank=(1, 1, 1), max_iters=200, stop_tol=1e-6)
    n_loose = solve(truth.y, loose, reference=truth).trace.final.iteration
    assert n_loose < 200
    full = SolverConfig(rank=(1, 1, 1), max_iters=60, stop_tol=0.0)
    assert solve(truth.y, full, reference=truth).trace.final.iteration == 60


def test_solve_trace_shape():
    truth = gen_truth((8, 8, 8), 2, kappa=2.0, alpha=0.125, seed=16)
    cfg = SolverConfig(rank=(2, 2, 2), max_iters=15, stop_tol=0.0)
    trace = solve(truth.y, cfg, reference=truth).trace
    assert [r.iteration for r in trace] == list(range(16))
    secs = [r.seconds for r in trace]
    assert all(b >= a for a, b in zip(secs, secs[1:]))
    assert np.all(np.isfinite(trace.rel_errors()))
    assert all(r.loss >= 0 for r in trace)
    assert trace.iterations_to(0.0) is None
    # without a reference the error columns stay empty
    trace2 = solve(truth.y, cfg).trace
    assert all(r.rel_fro_error is None and r.inf_error is None for r in trace2)


def test_solve_accepts_plain_array_reference():
    truth = gen_truth((8, 8, 8), 2, kappa=2.0, alpha=0.0, seed=17)
    cfg = SolverConfig(rank=(2, 2, 2), max_iters=10)
    trace = solve(truth.y, cfg, reference=truth.x_star).trace
    assert trace.final.rel_fro_error is not None


def test_solve_envelope_decay_small_alpha():
    # instances with alpha <= 0.1/(r^3 kappa): fitted per-iteration decay of
    # the relative error stays within rho + 0.05
    for dims, r, kappa, alpha in [((30, 30, 30), 1, 2.0, 1 / 30),
                                  ((80, 80, 80), 2, 1.0, 1 / 80)]:
        assert alpha <= 0.1 / (r**3 * kappa)
        truth = gen_truth(dims, r, kappa, alpha, seed=18)
        cfg = SolverConfig(rank=(r,) * 3, max_iters=150, stop_tol=0.0)
        trace = solve(truth.y, cfg, reference=truth.x_star).trace
        rels = trace.rel_errors()
        t_end = trace.iterations_to(1e-11) or len(rels) - 1
        window = np.arange(5, t_end + 1)
        slope = np.polyfit(window, np.log(rels[window]), 1)[0]
        assert np.exp(slope) <= cfg.effective_rho + 0.05


def test_solve_support_containment_along_run():
    truth = gen_truth((12, 12, 12), 2, kappa=3.0, alpha=1 / 12, seed=19)
    cfg = SolverConfig(rank=(2, 2, 2))
    sched = make_schedule(cfg, truth.y, reference=truth)
    factors, _ = spectral_init(truth.y, cfg, zeta0=sched.zeta0)
    star_supp = truth.s_star != 0
    held = 0
    for t in range(60):
        zeta = sched.value(t + 1)
        x_t = reconstruct(factors)
        s_next = update_sparse(factors, truth.y, zeta)
        if inf_norm(x_t - truth.x_star) <= zeta:
            held += 1
            assert not np.any((s_next != 0) & ~star_supp)
        factors = residual_step(factors, truth.y - x_t - s_next, cfg)
    assert held > 30  # the containment precondition holds for most of the run


def test_solve_selective_modes():
    truth = gen_truth((10, 10, 10), 2, kappa=2.0, alpha=0.1, seed=20)
    base = SolverConfig(rank=(2, 2, 2), max_iters=25)
    all_on = SolverConfig(rank=(2, 2, 2), max_iters=25,
                          active_modes=(True, True, True))
    ra = solve(truth.y, base, reference=truth)
    rb = solve(truth.y, all_on, reference=truth)
    assert all(np.array_equal(a, b)
               for a, b in zip(ra.factors.factors, rb.factors.factors))
    assert np.array_equal(ra.factors.core, rb.factors.core)
    assert np.array_equal(ra.sparse, rb.sparse)

    frozen = SolverConfig(rank=(2, 2, 2), max_iters=25,
                          active_modes=(False, True, True))
    rc = solve(truth.y, frozen, reference=truth)
    init, _ = spectral_init(truth.y, base, make_schedule(base, truth.y, truth).zeta0)
    assert np.array_equal(rc.factors.factors[0], init.factors[0])
    assert not np.array_equal(rc.factors.factors[1], init.factors[1])


def test_solve_permutation_equivariance():
    truth = gen_truth((9, 9, 9), 2, kappa=3.0, alpha=1 / 9, seed=21)
    d = truth.diagnostics
    zeta1 = 8.0 * np.sqrt(d.mu**3 * 8 / 9**3) * d.sigma_min
    cfg = SolverConfig(rank=(2, 2, 2), zeta0=inf_norm(truth.x_star),
                       zeta1=zeta1, max_iters=40, stop_tol=0.0)
    perm = (2, 0, 1)
    inv = tuple(np.argsort(perm))
    x_base = reconstruct(solve(truth.y, cfg).factors)
    x_perm = reconstruct(solve(np.ascontiguousarray(truth.y.transpose(perm)), cfg).factors)
    assert rel_diff(x_perm.transpose(inv), x_base) < 1e-10


def test_solve_scaling_equivariance():
    truth = gen_truth((9, 9, 9), 2, kappa=3.0, alpha=1 / 9, seed=22)
    c = 37.0
    kwargs = dict(rank=(2, 2, 2), max_iters=40, stop_tol=0.0)
    z0, z1 = inf_norm(truth.x_star), 0.05
    x1 = reconstruct(solve(truth.y, SolverConfig(zeta0=z0, zeta1=z1, **kwargs)).factors)
    x2 = reconstruct(
        solve(c * truth.y, SolverConfig(zeta0=c * z0, zeta1=c * z1, **kwargs)).factors
    )
    assert rel_diff(x2, c * x1) < 1e-9


def test_solve_input_validation():
    cfg = SolverConfig(rank=(2, 2, 2))
    with pytest.raises(ValueError):
        solve(np.zeros((3, 3)), cfg)
    with pytest.raises(ValueError):
        solve(np.zeros((3, 3, 3)), SolverConfig(rank=(2, 2)))
    with pytest.raises(ValueError):
        solve(np.ones((3, 3, 3)), SolverConfig(rank=(4, 2, 2)))
    with pytest.raises(ValueError):
        solve(np.ones((3, 3, 3)), SolverConfig(rank=(2, 2, 2), active_modes=(True, True)))


@pytest.mark.parametrize("defect", ["shape", "inf", "nan"])
def test_one_set_up_validates_the_reference(defect):
    # solve and make_schedule share one set-up, so each rejects a reference of
    # the wrong shape or with a non-finite entry, with automatic, oracle and
    # explicit thresholds alike (an inf entry used to make zeta0 inf, a NaN
    # one every reference error NaN)
    truth = gen_truth((6, 6, 6), 2, kappa=2.0, alpha=1 / 6, seed=32)
    x_star = truth.x_star[:5] if defect == "shape" else truth.x_star.copy()
    if defect != "shape":
        x_star[1, 2, 3] = np.inf if defect == "inf" else np.nan
    match = "shape" if defect == "shape" else "finite"
    for cfg in (SolverConfig(rank=(2, 2, 2), max_iters=3),
                SolverConfig(rank=(2, 2, 2), zeta0=1.0, zeta1=0.5, max_iters=3)):
        for reference in (x_star, Reference(x_star, truth.diagnostics)):
            with pytest.raises(ValueError, match=match):
                solve(truth.y, cfg, reference)
            with pytest.raises(ValueError, match=match):
                make_schedule(cfg, truth.y, reference)


def test_scaled_step_checks_the_shapes_of_its_contractions():
    rng = np.random.default_rng(34)
    f = random_tucker(rng, (5, 4, 6), (2, 3, 2))
    c = rng.standard_normal((5, 4, 6))
    head = np.einsum("ia,ijk->ajk", f.factors[0], c)  # (2, 4, 6)
    tail = np.einsum("kc,ijk->ijc", f.factors[2], c)  # (5, 4, 2)
    cfg = SolverConfig(rank=(2, 3, 2))
    got = scaled_step(f, head, tail, cfg)
    want = residual_step(f, c, cfg)
    assert all(rel_diff(a, b) <= 1e-14 for a, b in zip(got.factors, want.factors))
    for bad_head, bad_tail in ((head[:1], tail), (head, tail[..., :1]),
                               (head.transpose(0, 2, 1), tail), (tail, head)):
        with pytest.raises(ValueError, match="contractions"):
            scaled_step(f, bad_head, bad_tail, cfg)


def test_solve_zero_tensor_raises_singular_gram():
    with pytest.raises(SingularGramError):
        solve(np.zeros((6, 6, 6)), SolverConfig(rank=(2, 2, 2)))


def test_solve_non_finite_iterate_raises_divergence(monkeypatch):
    truth = gen_truth((8, 8, 8), 2, kappa=2.0, alpha=0.125, seed=26)
    cfg = SolverConfig(rank=(2, 2, 2), max_iters=2, stop_tol=0.0)
    expand = trpca.rpca.reconstruct

    def poison_iteration_2(value):
        calls = []

        def reconstruct(f):
            x = expand(f)
            calls.append(f)
            if len(calls) == 3:  # call 1 expands the spectral initialization
                x[1, 2, 3] = value
            return x

        return reconstruct

    for bad in (np.nan, np.inf, -np.inf):
        monkeypatch.setattr(trpca.rpca, "reconstruct", poison_iteration_2(bad))
        with pytest.raises(DivergenceError, match="iteration 2"):
            solve(truth.y, cfg)
    # a finite entry whose square overflows makes the norm infinite; the
    # exact check behind it finds every entry finite and the run goes on, and
    # the sparse part, the shrunk residual of iterate 2, carries the entry
    monkeypatch.setattr(trpca.rpca, "reconstruct", poison_iteration_2(1e200))
    with np.errstate(over="ignore"):
        result = solve(truth.y, SolverConfig(rank=(2, 2, 2), max_iters=3, stop_tol=0.0))
    assert result.trace.final.iteration == 3
    assert result.sparse[1, 2, 3] <= -1e199


# ---------------------------------------------------------------------------
# the streamed iteration


def _slab_settings(dims):
    """_SLAB_BYTES values for one slab, several slabs with a ragged last one,
    one mode-0 row per slab, and less than a row (which means one row)."""
    row = 8 * int(np.prod(dims[1:]))
    assert dims[0] % 4 != 0
    return [1 << 40, 4 * row, row, row // 2]


@pytest.mark.parametrize("dims, mask, with_ref", [
    ((11, 7, 9), None, False),
    ((11, 7, 9), None, True),
    ((11, 7, 9), (False, True, True), True),
    ((6, 5, 7, 5), None, False),
    ((6, 5, 7, 5), None, True),
    ((6, 5, 7, 5), (False, True, True, True), False),
])
def test_streamed_loop_matches_whole_tensor_oracle(monkeypatch, dims, mask, with_ref):
    truth = gen_truth(dims, 2, kappa=3.0, alpha=1 / min(dims), seed=len(dims))
    cfg = SolverConfig(rank=(2,) * len(dims), max_iters=20, stop_tol=0.0, active_modes=mask)
    ref = truth if with_ref else None
    want_f, want_s, want_rows = oracle_solve(truth.y, cfg, ref)
    assert len(want_rows) == 21
    for slab_bytes in _slab_settings(dims):
        monkeypatch.setattr(trpca.rpca, "_SLAB_BYTES", slab_bytes)
        got = solve(truth.y, cfg, reference=ref)
        assert len(got.trace) == len(want_rows)
        for row, want in zip(got.trace, want_rows):
            assert (row.iteration, row.zeta) == want[:2]
            for a, b in zip((row.rel_fro_error, row.inf_error, row.loss), want[2:]):
                if b is None:
                    assert a is None
                else:
                    assert abs(a - b) <= 1e-10 * abs(b)
        assert np.array_equal(got.sparse != 0, want_s != 0)
        assert rel_diff(got.sparse, want_s) <= 1e-10
        for a, b in zip(got.factors.factors, want_f.factors):
            assert rel_diff(a, b) <= 1e-10
        assert rel_diff(got.factors.core, want_f.core) <= 1e-10


@pytest.mark.parametrize("row", [0, -1])
def test_streamed_loop_divergence_in_first_and_last_slab(monkeypatch, row):
    truth = gen_truth((11, 7, 9), 2, kappa=2.0, alpha=1 / 7, seed=30)
    cfg = SolverConfig(rank=(2, 2, 2), max_iters=3, stop_tol=0.0)
    monkeypatch.setattr(trpca.rpca, "_SLAB_BYTES", 4 * 8 * 7 * 9)  # slabs of 4, 4, 3 rows
    expand = trpca.rpca.reconstruct
    calls = []

    def reconstruct(f):
        x = expand(f)
        calls.append(f)
        if len(calls) == 3:  # call 1 expands the spectral initialization
            x[row, 2, 3] = np.nan
        return x

    monkeypatch.setattr(trpca.rpca, "reconstruct", reconstruct)
    for ref in (None, truth):
        calls.clear()
        with pytest.raises(DivergenceError, match="iteration 2"):
            solve(truth.y, cfg, reference=ref)


# ---------------------------------------------------------------------------
# the stop rule


@pytest.mark.parametrize("dims, rank", [
    ((7, 6, 5), (2, 3, 1)),
    ((5, 4, 6, 3), (2, 1, 3, 2)),
    ((4, 3, 5, 3, 4), (2, 2, 1, 3, 2)),
])
def test_change_sq_matches_the_difference_terms(dims, rank):
    rng = np.random.default_rng(sum(dims))
    old = random_tucker(rng, dims, rank)
    frozen = 1  # passed as old's own array, as _step leaves a frozen mode
    for rel in (1e-2, 1e-6, 1e-10, 1e-13):
        new = TuckerFactors(
            tuple(u if k == frozen else u + rel * rng.standard_normal(u.shape)
                  for k, u in enumerate(old.factors)),
            old.core + rel * rng.standard_normal(rank))
        want = oracle_change_sq(old, new)
        assert want > 0.0
        assert abs(_change_sq(old, new) - want) <= 1e-13 * want
    same = TuckerFactors(tuple(u.copy() for u in old.factors), old.core.copy())
    assert _change_sq(old, same) == 0.0 and _change_sq(old, old) == 0.0
    got = _change_sq(old, new)
    for k in (-100, 7, 100):
        scaled = [TuckerFactors(f.factors, np.ldexp(f.core, k)) for f in (old, new)]
        assert _change_sq(*scaled) == np.ldexp(got, 2 * k)


@pytest.mark.parametrize("dims, seed, stop, to_1e6", [
    ((30, 30, 30), 0, 221, 122),
    ((30, 30, 30), 1, 227, 128),
    ((20, 20, 20, 20), 0, 216, 118),
    ((20, 20, 20, 20), 1, 218, 120),
    ((20, 20, 20, 20), 2, 217, 119),
])
def test_stop_rule_iterations_are_pinned(dims, seed, stop, to_1e6):
    # the default stop_tol ends these runs where it does with the relative
    # change summed over whole tensors, as oracle_solve sums it; solve takes
    # it from the factors
    truth = gen_truth(dims, 2, kappa=5.0, alpha=0.1, seed=seed)
    cfg = SolverConfig(rank=(2,) * len(dims), max_iters=300)
    trace = solve(truth.y, cfg, reference=truth).trace
    assert trace.final.iteration == stop
    assert trace.iterations_to(1e-6) == to_1e6


def test_solve_expands_each_iterate_once_through_the_module_binding(monkeypatch):
    truth = gen_truth((11, 7, 9), 2, kappa=3.0, alpha=1 / 7, seed=31)
    expand = trpca.rpca.reconstruct
    seen = []

    def reconstruct(f):
        x = expand(f)
        seen.append(x.copy())
        return x

    monkeypatch.setattr(trpca.rpca, "reconstruct", reconstruct)
    iterations = []
    for cfg in (SolverConfig(rank=(2, 2, 2), max_iters=25, stop_tol=0.0),
                SolverConfig(rank=(2, 2, 2), max_iters=300, stop_tol=1e-9),
                SolverConfig(rank=(2, 2, 2), max_iters=0)):
        seen.clear()
        result = solve(truth.y, cfg, reference=truth)
        trace = result.trace
        iterations.append(trace.final.iteration)
        assert len(seen) == 1 + trace.final.iteration == len(trace)
        # call t expands iterate t: its error is row t's, and the last one is
        # the returned factors' expansion
        for x, row in zip(seen, trace):
            assert abs(rel_diff(x, truth.x_star) - row.rel_fro_error) <= 1e-12
        assert np.array_equal(seen[-1], expand(result.factors))
    assert iterations[0] == 25 and iterations[1] < 300 and iterations[2] == 0


def test_solve_and_scaled_step_make_no_tensordot_call(monkeypatch):
    # every mode product and contraction of the loop is a reshape and a matmul
    rng = np.random.default_rng(25)
    dims, rank = (4, 6, 5, 3), (2, 3, 2, 2)  # a case of test_scaled_step_matches_breve_oracle
    f = random_tucker(rng, dims, rank)
    y = rng.standard_normal(dims)
    s_next = soft_shrink(rng.standard_normal(dims), 1.0)
    c = y - reconstruct(f) - s_next
    want_step = oracle_scaled_step(f, y, s_next, 0.2, (True,) * 4)
    runs = []
    for dims in ((12, 12, 12), (6, 6, 6, 6)):
        truth = gen_truth(dims, 2, kappa=3.0, alpha=1 / 6, seed=len(dims))
        cfg = SolverConfig(rank=(2,) * len(dims), max_iters=30)
        runs.append((truth, cfg, solve(truth.y, cfg, reference=truth)))

    def tensordot(*args, **kwargs):
        raise AssertionError("np.tensordot called")

    monkeypatch.setattr(np, "tensordot", tensordot)
    got = residual_step(f, c, SolverConfig(rank=rank, eta=0.2))
    for u, a, b in zip(f.factors, got.factors, want_step.factors):
        assert rel_diff(u - a, u - b) <= 1e-12
    assert rel_diff(f.core - got.core, f.core - want_step.core) <= 1e-12
    for truth, cfg, want in runs:
        result = solve(truth.y, cfg, reference=truth)
        assert np.array_equal(result.sparse, want.sparse)
        assert np.array_equal(result.factors.core, want.factors.core)


def test_solve_tiny_input_recovers_truth():
    # 1e-200 * y squares to below the float range inside every Gram matrix
    truth = gen_truth((30, 30, 30), 2, kappa=5.0, alpha=0.1, seed=27)
    cfg = SolverConfig(rank=(2, 2, 2), max_iters=300)
    c = 1e-200
    result = solve(c * truth.y, cfg)
    assert rel_diff(reconstruct(result.factors) / c, truth.x_star) <= 1e-6
    assert rel_diff(result.sparse / c, truth.s_star) <= 1e-6


def test_solve_power_of_two_scaling_is_exact():
    truth = gen_truth((9, 9, 9), 2, kappa=3.0, alpha=1 / 9, seed=28)
    d = truth.diagnostics
    z0, z1 = inf_norm(truth.x_star), 0.05

    def run(c, explicit, stop):
        # stop: the default stop_tol ends the run, by the change and the
        # norm it is divided by, both in the units of y / 2**e
        kwargs = dict(rank=(2, 2, 2), max_iters=300) if stop else dict(
            rank=(2, 2, 2), max_iters=30, stop_tol=0.0)
        if explicit:
            cfg = SolverConfig(zeta0=c * z0, zeta1=c * z1, **kwargs)
        else:
            cfg = SolverConfig(**kwargs)
        diag = types.SimpleNamespace(mu=d.mu, sigma_min=c * d.sigma_min)
        return solve(c * truth.y, cfg, reference=Reference(c * truth.x_star, diag))

    for explicit, stop in ((False, False), (True, False), (False, True)):
        base = run(1.0, explicit, stop)
        assert len(base.trace) < 301 if stop else len(base.trace) == 31
        for k in (100, -100, 600, -600):
            c = 2.0**k
            scaled = run(c, explicit, stop)
            assert all(np.array_equal(a, b)
                       for a, b in zip(base.factors.factors, scaled.factors.factors))
            assert np.array_equal(c * base.factors.core, scaled.factors.core)
            assert np.array_equal(c * base.sparse, scaled.sparse)
            assert len(scaled.trace) == len(base.trace)
            for p, q in zip(base.trace, scaled.trace):
                assert (q.zeta, q.inf_error, q.rel_fro_error) == (
                    c * p.zeta, c * p.inf_error, p.rel_fro_error)
                # the loss, a squared norm, leaves the float range at 2**600
                with np.errstate(over="ignore"):
                    assert q.loss == np.ldexp(p.loss, 2 * k)
            if k == 600:
                assert scaled.trace.final.loss == np.inf


def test_solve_scaling_is_exact_at_the_top_of_the_float_range():
    # One corrupted entry is raised to 0.95, opposite in sign to x_star
    # there.  Scaled by 2**1024 the largest entry lies just below the float
    # maximum, and the residuals and reference errors of early iterates, taken
    # in the units of y, would leave the float range; the solve must still
    # be 2**1024 times the unit-scale one.  The point is exactness, not
    # recovery: this reference run does not recover x_star at either scale.
    truth = gen_truth((9, 9, 9), 2, kappa=3.0, alpha=1 / 9, seed=28)
    support = truth.s_star != 0
    i = np.unravel_index(np.argmin(np.where(support, truth.x_star, np.inf)), support.shape)
    y = truth.y.copy()
    y[i] = 0.95
    cfg = SolverConfig(rank=(2, 2, 2), max_iters=300)
    k = 1024
    base = solve(y, cfg, reference=truth.x_star)
    scaled = solve(np.ldexp(y, k), cfg, reference=np.ldexp(truth.x_star, k))
    assert all(np.array_equal(a, b)
               for a, b in zip(base.factors.factors, scaled.factors.factors))
    assert np.array_equal(np.ldexp(base.factors.core, k), scaled.factors.core)
    assert np.array_equal(np.ldexp(base.sparse, k), scaled.sparse)
    assert np.all(np.isfinite(scaled.sparse))
    assert len(base.trace) == len(scaled.trace)
    for p, q in zip(base.trace, scaled.trace):
        # the early thresholds and errors themselves exceed the float range
        with np.errstate(over="ignore"):
            want = (np.ldexp(p.zeta, k), np.ldexp(p.inf_error, k), p.rel_fro_error)
        assert (q.zeta, q.inf_error, q.rel_fro_error) == want


def test_solve_order4_zero_corruption():
    truth = gen_truth((6, 6, 6, 6), 2, kappa=3.0, alpha=0.0, seed=24)
    cfg = SolverConfig(rank=(2, 2, 2, 2), max_iters=60)
    result = solve(truth.y, cfg, reference=truth)
    assert result.trace.final.rel_fro_error <= 1e-8


def test_reference_duck_typing():
    ref = Reference(np.ones((2, 2, 2)))
    assert ref.diagnostics is None
