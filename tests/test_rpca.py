"""Shrinkage, threshold schedule, spectral init, and the scaled-gradient solver."""

import types

import numpy as np
import pytest

import trpca.rpca
from oracles import (
    fd_gradients,
    oracle_scaled_step,
    oracle_solve,
    random_tucker,
    rel_diff,
    suite_corrupt_iter,
    update_sparse,
)
from trpca.rpca import (
    DivergenceError,
    Reference,
    SingularGramError,
    SolverConfig,
    SolverState,
    ThresholdSchedule,
    make_schedule,
    scaled_step,
    soft_shrink,
    solve,
    spectral_init,
)
from trpca.synth import gen_truth
from trpca.tensor_ops import fro_norm, inf_norm
from trpca.tucker import hosvd, reconstruct


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
    with pytest.raises(ValueError):
        soft_shrink(t, -0.1)


# ---------------------------------------------------------------------------
# schedule and config


def test_schedule_geometric_sequence():
    sched = ThresholdSchedule(zeta0=1.0, zeta1=0.5, rho=0.5)
    assert [sched.value(t) for t in range(5)] == [1.0, 0.5, 0.25, 0.125, 0.0625]
    with pytest.raises(ValueError):
        sched.value(-1)
    with pytest.raises(ValueError):
        ThresholdSchedule(1.0, 1.0, rho=1.0)


def test_default_rho_from_eta():
    assert SolverConfig(rank=(2, 2, 2), eta=0.2).effective_rho == pytest.approx(0.91, abs=1e-15)
    assert SolverConfig(rank=(2, 2, 2)).effective_rho == pytest.approx(0.8875, abs=1e-15)
    sched = ThresholdSchedule(1.0, 2.0, rho=0.91)
    assert sched.value(3) == pytest.approx(0.91**2 * 2.0, rel=1e-15)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(rank=(2, 0, 2))
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
    cfg = SolverConfig(rank=(2, 2, 2), active_modes=(True, False, True))
    assert cfg.modes_mask(3) == (True, False, True)
    with pytest.raises(ValueError):
        cfg.modes_mask(4)


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
    state = spectral_init(y, cfg, zeta0=sched.zeta0)
    ref = 2.0 * inf_norm(y - state.sparse - reconstruct(state.factors))
    assert sched.zeta1 == pytest.approx(ref, rel=1e-12)
    # alpha_estimate 0 falls back to the sup norm
    cfg0 = SolverConfig(rank=(2, 2, 2), alpha_estimate=0.0)
    assert make_schedule(cfg0, y).zeta0 == inf_norm(y)


# ---------------------------------------------------------------------------
# spectral_init


def test_spectral_init_exact_low_rank():
    truth = gen_truth((10, 10, 10), 2, kappa=3.0, alpha=0.0, seed=4)
    y = truth.y
    cfg = SolverConfig(rank=(2, 2, 2))
    state = spectral_init(y, cfg, zeta0=inf_norm(y))
    assert np.all(state.sparse == 0)
    assert rel_diff(reconstruct(state.factors), y) < 1e-9


def test_spectral_init_sparse_only():
    rng = np.random.default_rng(5)
    y = np.where(rng.random((8, 8, 8)) < 0.05, rng.standard_normal((8, 8, 8)), 0.0)
    cfg = SolverConfig(rank=(2, 2, 2))
    # zeta0 = 0 absorbs everything into the sparse part: zero residual, zero core
    state = spectral_init(y, cfg, zeta0=0.0)
    assert np.array_equal(state.sparse, y)
    assert fro_norm(state.factors.core) == 0.0
    # a threshold at the sup norm shrinks the sparse part away entirely instead
    state = spectral_init(y, cfg, zeta0=inf_norm(y))
    assert np.all(state.sparse == 0)


def test_spectral_init_error_level_regression():
    truth = gen_truth((30, 30, 30), 2, kappa=5.0, alpha=0.05, seed=6)
    cfg = SolverConfig(rank=(2, 2, 2))
    state = spectral_init(truth.y, cfg, reference=truth)
    rel = rel_diff(reconstruct(state.factors), truth.x_star)
    assert rel < 0.5


# ---------------------------------------------------------------------------
# update_sparse (the whole-tensor oracle of the solver's slab-wise shrink)


def test_update_sparse_exact_factors():
    truth = gen_truth((12, 12, 12), 2, kappa=2.0, alpha=1 / 12, seed=7)
    state = SolverState(truth.factors, np.zeros_like(truth.s_star), 0.0, 0)
    nz = np.abs(truth.s_star[truth.s_star != 0])
    s_next = update_sparse(state, truth.y, 0.5 * nz.min())
    assert np.array_equal(s_next != 0, truth.s_star != 0)
    assert np.all(update_sparse(state, truth.y, 1e6) == 0)


def test_update_sparse_containment_suite():
    suite_corrupt_iter(np.random.default_rng(8), 120)


# ---------------------------------------------------------------------------
# scaled_step


def test_scaled_step_stationary_at_truth():
    for dims in [(10, 10, 10), (6, 6, 6, 6)]:
        truth = gen_truth(dims, 2, kappa=4.0, alpha=1 / dims[0], seed=9)
        cfg = SolverConfig(rank=(2,) * len(dims))
        c = truth.y - reconstruct(truth.factors) - truth.s_star
        f_next = scaled_step(truth.factors, c, cfg)
        for u_new, u_old in zip(f_next.factors, truth.factors.factors):
            assert np.abs(u_new - u_old).max() < 1e-10
        assert np.abs(f_next.core - truth.factors.core).max() < 1e-10


def test_scaled_step_zero_eta_is_identity():
    # SolverConfig requires eta > 0, so the eta=0 limit is checked through a
    # minimal config stand-in exposing the two attributes scaled_step reads
    truth = gen_truth((8, 8, 8), 2, kappa=2.0, alpha=0.125, seed=10)
    cfg = types.SimpleNamespace(eta=0.0, modes_mask=lambda order: (True,) * order)
    c = truth.y - reconstruct(truth.factors) - np.zeros_like(truth.s_star)
    f_next = scaled_step(truth.factors, c, cfg)
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
    f_next = scaled_step(f, y - reconstruct(f) - s_next, cfg)
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
            got = scaled_step(f, y - reconstruct(f) - s_next, cfg)
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
        scaled_step(f, c, SolverConfig(rank=(2, 2, 2)))
    assert exc.value.mode == 0
    assert "co-factor" in str(exc.value)


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
    state = spectral_init(truth.y, SolverConfig(rank=(2, 2, 2)), reference=truth)
    assert np.array_equal(result.sparse, state.sparse)
    assert np.array_equal(reconstruct(result.factors), reconstruct(state.factors))
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
    state = spectral_init(truth.y, cfg, zeta0=sched.zeta0)
    star_supp = truth.s_star != 0
    held = 0
    for t in range(60):
        zeta = sched.value(t + 1)
        x_t = reconstruct(state.factors)
        s_next = update_sparse(state, truth.y, zeta)
        if inf_norm(x_t - truth.x_star) <= zeta:
            held += 1
            assert not np.any((s_next != 0) & ~star_supp)
        f_next = scaled_step(state.factors, truth.y - x_t - s_next, cfg)
        state = SolverState(f_next, s_next, zeta, t + 1)
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
    init = spectral_init(truth.y, base, reference=truth)
    assert np.array_equal(rc.factors.factors[0], init.factors.factors[0])
    assert not np.array_equal(rc.factors.factors[1], init.factors.factors[1])


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
    # exact check behind it finds every entry finite and the run goes on
    monkeypatch.setattr(trpca.rpca, "reconstruct", poison_iteration_2(1e200))
    with np.errstate(over="ignore"):
        result = solve(truth.y, cfg)
    assert result.trace.final.iteration == 2
    assert result.trace.final.loss == np.inf


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
    kwargs = dict(rank=(2, 2, 2), max_iters=30, stop_tol=0.0)
    z0, z1 = inf_norm(truth.x_star), 0.05

    def run(c, explicit):
        if explicit:
            cfg = SolverConfig(zeta0=c * z0, zeta1=c * z1, **kwargs)
        else:
            cfg = SolverConfig(**kwargs)
        diag = types.SimpleNamespace(mu=d.mu, sigma_min=c * d.sigma_min)
        return solve(c * truth.y, cfg, reference=Reference(c * truth.x_star, diag))

    for explicit in (False, True):
        base = run(1.0, explicit)
        for c in (2.0**100, 2.0**-100):
            scaled = run(c, explicit)
            assert all(np.array_equal(a, b)
                       for a, b in zip(base.factors.factors, scaled.factors.factors))
            assert np.array_equal(c * base.factors.core, scaled.factors.core)
            assert np.array_equal(c * base.sparse, scaled.sparse)
            assert len(base.trace) == len(scaled.trace) == 31
            for p, q in zip(base.trace, scaled.trace):
                assert (q.zeta, q.inf_error, q.loss, q.rel_fro_error) == (
                    c * p.zeta, c * p.inf_error, c * c * p.loss, p.rel_fro_error)


def test_solve_order4_zero_corruption():
    truth = gen_truth((6, 6, 6, 6), 2, kappa=3.0, alpha=0.0, seed=24)
    cfg = SolverConfig(rank=(2, 2, 2, 2), max_iters=60)
    result = solve(truth.y, cfg, reference=truth)
    assert result.trace.final.rel_fro_error <= 1e-8


def test_reference_duck_typing():
    ref = Reference(np.ones((2, 2, 2)))
    assert ref.diagnostics is None
