"""Synthetic instance generation, corruption sampling, and parameter sweeps."""

import tracemalloc

import numpy as np
import pytest

from oracles import oracle_fiber_fraction
from trpca.metrics import tensor_diagnostics
from trpca.rpca import SolverConfig, solve
from trpca.synth import SweepCell, SweepSpec, gen_truth, run_sweep, sample_support
from trpca.tucker import reconstruct


# ---------------------------------------------------------------------------
# gen_truth


def test_zero_alpha_means_no_corruption():
    truth = gen_truth((10, 10, 10), 2, kappa=3.0, alpha=0.0, seed=0)
    assert np.all(truth.s_star == 0)
    assert truth.entry_fraction == 0.0
    assert np.array_equal(truth.y, truth.x_star)


def test_unit_kappa_core_is_flat():
    truth = gen_truth((10, 10, 10), 3, kappa=1.0, alpha=0.0, seed=1)
    diag = truth.factors.core[np.arange(3), np.arange(3), np.arange(3)]
    assert np.array_equal(diag, np.ones(3))
    assert truth.diagnostics.kappa == pytest.approx(1.0, rel=1e-10)


def test_requested_parameters_are_realized():
    truth = gen_truth((30, 30, 30), 2, kappa=10.0, alpha=0.1, seed=7)
    assert truth.diagnostics.kappa == pytest.approx(10.0, rel=1e-6)
    assert truth.entry_fraction == pytest.approx(0.1, abs=0.002)
    assert truth.diagnostics.alpha == pytest.approx(0.1, rel=1e-12)
    # n=30, alpha=0.1 saturates every per-fiber cap, so the fraction is exact
    counts = (truth.s_star != 0).sum(axis=0)
    assert counts.min() == counts.max() == 3


@pytest.mark.parametrize("dims, rank", [((12, 13, 14), 2), ((7, 8, 6, 9), 3), ((9, 10, 11), 1)])
@pytest.mark.parametrize("kappa", [1.0, 5.0, 1e3])
def test_constructed_diagnostics_match_the_measured_ones(dims, rank, kappa):
    # the reported statistics are the construction's; a dense measurement of
    # the same tensors agrees to rounding while its spectra are resolved
    truth = gen_truth(dims, rank, kappa, 0.2, seed=4)
    d = truth.diagnostics
    m = tensor_diagnostics(truth.x_star, (rank,) * len(dims), truth.s_star)
    for name in ("mu", "kappa", "kappa_s", "sigma_min", "alpha"):
        assert getattr(d, name) == pytest.approx(getattr(m, name), rel=1e-10, abs=0.0), name
    for built, measured in zip(d.singular_values, m.singular_values):
        assert built.shape == measured.shape
        assert np.abs(built - measured).max() <= 1e-10 * measured[0]
        assert np.all(built[rank:] == 0.0)


def test_constructed_kappa_is_exact_beyond_the_measured_floor():
    # the dense measurement reads sigma_min 0 at kappa = 1e7 (the Gram
    # path's floor); the construction reports the requested value exactly
    for kappa in (1e7, 1e12):
        truth = gen_truth((20, 20, 20), 2, kappa, 0.1, seed=0)
        d = truth.diagnostics
        assert d.kappa == d.kappa_s == kappa
        assert d.sigma_min == truth.factors.core[1, 1, 1] == 1.0 / kappa
        assert all(s[0] == 1.0 and s[1] == 1.0 / kappa for s in d.singular_values)
        assert tensor_diagnostics(truth.x_star, (2, 2, 2)).sigma_min == 0.0


def test_factors_orthonormal_and_reconstruction_consistent():
    truth = gen_truth((12, 12, 12), 2, kappa=5.0, alpha=0.1, seed=2)
    for u in truth.factors.factors:
        assert np.abs(u.T @ u - np.eye(2)).max() < 1e-10
    assert np.array_equal(reconstruct(truth.factors), truth.x_star)
    assert np.array_equal(truth.y, truth.x_star + truth.s_star)


def test_determinism_and_seed_sensitivity():
    a = gen_truth((8, 8, 8), 2, kappa=4.0, alpha=0.125, seed=3)
    b = gen_truth((8, 8, 8), 2, kappa=4.0, alpha=0.125, seed=3)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.s_star, b.s_star)
    c = gen_truth((8, 8, 8), 2, kappa=4.0, alpha=0.125, seed=4)
    assert not np.array_equal(a.y, c.y)
    d = gen_truth((8, 8, 8), 2, kappa=4.0, alpha=0.125,
                  seed=np.random.SeedSequence(3))
    assert np.array_equal(a.y, d.y)


def test_gen_truth_holds_x_star_and_a_sparse_corruption():
    # a truth holds one dense tensor, x_star, and its corruption as the flat
    # support and the values (~0.2 tensors at alpha 0.1); s_star and y are
    # formed on access.  The mean-abs scale's |x_star| buffer is released
    # before the values are drawn, so the peak holds no third tensor (3.57
    # tensors when the buffer was held beside a dense s_star)
    dims = (60, 60, 60)
    tracemalloc.start()
    try:
        gen_truth(dims, 3, kappa=5.0, alpha=0.1, seed=1)  # warm-up
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        truth = gen_truth(dims, 3, kappa=5.0, alpha=0.1, seed=0)
        held, peak = (v - base for v in tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()
        y = truth.y
        y_peak = tracemalloc.get_traced_memory()[1] - base - held
    finally:
        tracemalloc.stop()
    nbytes = truth.x_star.nbytes
    assert peak <= 2.75 * nbytes
    assert held <= 1.3 * nbytes  # 2.01 with a dense s_star
    assert y_peak <= 1.15 * nbytes  # y and the gather of its corrupted entries

    support = truth.support
    assert support.size == truth.values.size == round(truth.entry_fraction * y.size)
    assert np.all(np.diff(support) > 0)
    dense = np.zeros(dims)
    dense[np.unravel_index(support, dims)] = truth.values
    assert truth.s_star.tobytes() == dense.tobytes()
    assert y.tobytes() == (truth.x_star + dense).tobytes()


def test_corruption_scale_variants():
    truth = gen_truth((10, 10, 10), 2, kappa=3.0, alpha=0.1, seed=5,
                      corruption_scale=0.3)
    nz = truth.s_star[truth.s_star != 0]
    assert nz.size > 0 and np.abs(nz).max() <= 0.3
    truth = gen_truth((10, 10, 10), 2, kappa=3.0, alpha=0.1, seed=5)
    bound = np.abs(truth.x_star).mean()
    nz = truth.s_star[truth.s_star != 0]
    assert np.abs(nz).max() <= bound
    with pytest.raises(ValueError):
        gen_truth((10, 10, 10), 2, kappa=3.0, alpha=0.1, seed=5,
                  corruption_scale=-1.0)
    with pytest.raises(ValueError):
        gen_truth((10, 10, 10), 2, kappa=3.0, alpha=0.1, seed=5,
                  corruption_scale="bogus")
    for scale, alpha in [(float("nan"), 0.1), (float("inf"), 0.1), ("inf", 0.1),
                         (float("nan"), 0.0)]:  # checked even when nothing is corrupted
        with pytest.raises(ValueError, match="finite"):
            gen_truth((10, 10, 10), 2, kappa=3.0, alpha=alpha, seed=5,
                      corruption_scale=scale)


def test_gen_truth_validation():
    with pytest.raises(ValueError):
        gen_truth((10, 10), 2, kappa=2.0, alpha=0.0, seed=0)
    with pytest.raises(ValueError):
        gen_truth((4, 10, 10), 5, kappa=2.0, alpha=0.0, seed=0)
    with pytest.raises(ValueError):
        gen_truth((10, 10, 10), 2, kappa=0.5, alpha=0.0, seed=0)
    with pytest.raises(ValueError):
        gen_truth((10, 10, 10), 2, kappa=2.0, alpha=1.5, seed=0)
    with pytest.raises(ValueError, match="kappa"):  # would zero the last core entry
        gen_truth((10, 10, 10), 2, kappa=float("inf"), alpha=0.0, seed=0)


@pytest.mark.parametrize("dims, seed, name", [
    ((10.7, 10, 10), 0, "dims"),  # was read as 10 x 10 x 10
    ((10, float("inf"), 10), 0, "dims"),  # was an OverflowError
    ((10, 10, 10), 2.5, "seed"),  # was seed 2's instance
    ((10, 10, 10), -1, "seed"),
])
def test_gen_truth_dims_and_seed_follow_the_rank_rule(dims, seed, name):
    with pytest.raises(ValueError, match=name):
        gen_truth(dims, 2, kappa=2.0, alpha=0.0, seed=seed)
    assert gen_truth((10.0, np.int64(10), 10), 2, kappa=2.0, alpha=0.0,
                     seed=np.float64(3.0)).seed == 3


def test_order_four_generation():
    truth = gen_truth((6, 6, 6, 6), 2, kappa=2.0, alpha=1 / 6, seed=6)
    assert truth.x_star.shape == (6, 6, 6, 6)
    assert oracle_fiber_fraction(truth.s_star) <= 1 / 6 + 1e-12


# ---------------------------------------------------------------------------
# sample_support


def test_sample_support_rejects_fractional_dims():
    # (10.7, 10, 10) gave a 10 x 10 x 10 support
    with pytest.raises(ValueError, match="dims"):
        sample_support((10.7, 10, 10), 0.1, np.random.default_rng(0))


def test_support_respects_caps_across_shapes():
    rng = np.random.default_rng(8)
    for order, low, high in ((3, 5, 13), (4, 3, 9), (5, 3, 6)):
        for _ in range(30):
            dims = tuple(int(d) for d in rng.integers(low, high, size=order))
            alpha = rng.uniform(1 / min(dims), 0.5)
            mask = sample_support(dims, alpha, rng)
            caps = [int(np.floor(alpha * d + 1e-9)) for d in dims]
            for k in range(order):
                assert mask.sum(axis=k).max() <= caps[k]
            # exactly min_k caps[k] / dims[k] of the entries
            assert int(mask.sum()) == min(c * (mask.size // d) for c, d in zip(caps, dims))


def test_support_extremes():
    rng = np.random.default_rng(9)
    assert not sample_support((6, 6, 6), 0.0, rng).any()
    assert sample_support((6, 6, 6), 1.0, rng).all()
    with pytest.raises(ValueError):
        sample_support((6, 6, 6), 0.05, rng)  # floor(0.3) = 0 per fiber
    with pytest.raises(ValueError):
        sample_support((6, 6, 6), -0.1, rng)


def test_support_saturated_equal_dims_is_exact():
    rng = np.random.default_rng(10)
    mask = sample_support((15, 15, 15), 0.2, rng)
    for k in range(3):
        counts = mask.sum(axis=k)
        assert counts.min() == counts.max() == 3


def test_support_unequal_dims_near_target():
    rng = np.random.default_rng(11)
    mask = sample_support((8, 10, 12), 0.25, rng)
    # caps (2, 2, 3) make 0.2 the feasible fraction: exactly 192 of 960
    assert int(mask.sum()) == 192
    for k, cap in enumerate((2, 2, 3)):
        assert mask.sum(axis=k).max() <= cap


def test_support_equal_dims_fingerprint():
    # two equal-dims supports, pinned so equal-dims instances stay reproducible
    mask = sample_support((6, 6, 6), 1 / 3, np.random.default_rng(0))
    flat = np.flatnonzero(mask)
    assert flat.size == 72
    assert flat[:8].tolist() == [2, 3, 7, 10, 13, 15, 18, 20]
    assert int(flat.sum()) == 7740
    mask = sample_support((5, 5, 5, 5), 0.2, np.random.default_rng(1))
    flat = np.flatnonzero(mask)
    assert flat.size == 125
    assert flat[:6].tolist() == [0, 9, 12, 16, 23, 27]
    assert int(flat.sum()) == 39000


# ---------------------------------------------------------------------------
# solver behaviour on generated instances


def test_iterations_insensitive_to_kappa():
    iters = []
    for kappa in (1.0, 5.0, 10.0):
        truth = gen_truth((30, 30, 30), 2, kappa=kappa, alpha=0.05, seed=12)
        cfg = SolverConfig(rank=(2, 2, 2), max_iters=200)
        trace = solve(truth.y, cfg, reference=truth).trace
        t = trace.iterations_to(1e-4)
        assert t is not None
        iters.append(t)
    assert max(iters) <= 2 * min(iters)


# ---------------------------------------------------------------------------
# sweeps


def test_sweep_single_clean_cell():
    spec = SweepSpec(n_grid=(12,), rank_grid=(2,), alpha_grid=(0.0,),
                     kappa_grid=(3.0,), trials=2, max_iters=80)
    cells = run_sweep(spec)
    assert len(cells) == 1
    cell = cells[0]
    assert cell.failures == 0
    assert cell.median_rel_error <= 1e-9


def test_sweep_separates_easy_from_hopeless():
    spec = SweepSpec(n_grid=(20,), rank_grid=(2,), alpha_grid=(0.05, 0.8),
                     kappa_grid=(5.0,), trials=1, max_iters=150)
    easy, hopeless = run_sweep(spec)
    assert easy.median_rel_error < 1e-6
    assert hopeless.median_rel_error > 1e-2


def test_sweep_deterministic():
    spec = SweepSpec(n_grid=(10,), rank_grid=(1, 2), alpha_grid=(0.1,),
                     kappa_grid=(2.0,), trials=2, max_iters=30)
    a = run_sweep(spec)
    b = run_sweep(spec)
    for ca, cb in zip(a, b):
        assert (ca.median_rel_error, ca.median_iterations, ca.failures) == (
            cb.median_rel_error, cb.median_iterations, cb.failures)


def test_sweep_trials_do_not_add_to_the_peak():
    # each trial's instance and result are released before the next instance
    # is made: at 50^3, 3 trials read 7.07 tensors against 6.06 for 1 trial
    # while the previous trial's were still held
    def peak(trials):
        spec = SweepSpec(n_grid=(50,), rank_grid=(3,), alpha_grid=(0.1,),
                         kappa_grid=(5.0,), trials=trials, max_iters=20)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert run_sweep(spec)[0].failures == 0
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    peak(1)  # warm-up
    assert peak(3) <= peak(1) + 0.1 * 8 * 50**3


def test_sweep_counts_infeasible_cells_as_failures():
    spec = SweepSpec(n_grid=(10,), rank_grid=(2,), alpha_grid=(0.05,),
                     kappa_grid=(2.0,), trials=3, max_iters=30)
    cell = run_sweep(spec)[0]
    assert cell.failures == 3
    assert np.isnan(cell.median_rel_error)
    assert np.isnan(cell.median_iterations)
    # a kappa = 1e7 instance reports its constructed sigma_min, beyond the
    # floor of a measured spectrum, so its oracle schedule exists and it runs
    spec = SweepSpec(n_grid=(20,), rank_grid=(2,), alpha_grid=(0.1,),
                     kappa_grid=(1e7,), trials=1, max_iters=30)
    cell = run_sweep(spec)[0]
    assert cell.failures == 0
    assert np.isfinite(cell.median_rel_error)


def test_recovery_boundary_cells_at_seed_0():
    # two cells on either side of the (kappa, alpha) recovery boundary at
    # 30^3, rank 2, oracle thresholds: a change that moves the boundary shows
    # here.  At alpha 0.1 the init's radius ||x_0 - x*||_F / sigma_min passes
    # at kappa 100 and fails at 1e3, which stops through stop_tol short of
    # recovery
    cfg = SolverConfig(rank=(2, 2, 2), max_iters=400)
    errors = []
    for kappa in (100.0, 1e3):
        truth = gen_truth((30, 30, 30), 2, kappa, 0.1, seed=0)
        errors.append(solve(truth.y, cfg, reference=truth).trace.final.rel_fro_error)
    assert errors[0] <= 1e-10
    assert errors[1] > 1e-4


def test_sweep_cell_matches_direct_run():
    spec = SweepSpec(n_grid=(12,), rank_grid=(2,), alpha_grid=(1 / 12,),
                     kappa_grid=(4.0,), trials=1, max_iters=40, seed=5)
    cell = run_sweep(spec)[0]
    truth = gen_truth((12, 12, 12), 2, kappa=4.0, alpha=1 / 12,
                      seed=np.random.SeedSequence((5, 0, 0, 0, 0, 0)))
    cfg = SolverConfig(rank=(2, 2, 2), max_iters=40)
    result = solve(truth.y, cfg, reference=truth)
    assert cell.median_rel_error == result.trace.final.rel_fro_error
    assert cell.median_iterations == result.trace.final.iteration
    assert cell.failures == 0


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(n_grid=(), rank_grid=(2,), alpha_grid=(0.1,), kappa_grid=(1.0,))
    with pytest.raises(ValueError):
        SweepSpec(n_grid=(10,), rank_grid=(2,), alpha_grid=(0.1,),
                  kappa_grid=(1.0,), trials=0)
    # the solver settings are checked up front by SolverConfig, not trial by trial
    grids = dict(n_grid=(10,), rank_grid=(2,), alpha_grid=(0.1,), kappa_grid=(1.0,))
    bad = [("eta", 0.5), ("rho", 1.0), ("max_iters", -1), ("stop_tol", float("nan"))]
    for name, value in bad:
        with pytest.raises(ValueError, match=name):
            SweepSpec(**grids, **{name: value})
    # so is every grid value that no instance accepts, by gen_truth's rules
    bad = [("n_grid", 0), ("rank_grid", 0), ("rank_grid", 2.5), ("alpha_grid", 1.5),
           ("alpha_grid", -0.1), ("kappa_grid", 0.5), ("kappa_grid", float("inf"))]
    for name, value in bad:
        with pytest.raises(ValueError):
            SweepSpec(**{**grids, name: (value,)})
    assert SweepSpec(**{**grids, "rank_grid": (2.0, np.int64(3))}).rank_grid == (2, 3)


@pytest.mark.parametrize("field, value", [
    ("trials", 2.5),  # run_sweep's range raised TypeError
    ("trials", float("inf")),
    ("n_grid", (30.5,)),  # was read as 30
    ("seed", 2.5),
    ("seed", -1),  # SeedSequence raised outside the per-trial try
])
def test_sweep_spec_counts_follow_the_rank_rule(field, value):
    grids = dict(n_grid=(10,), rank_grid=(2,), alpha_grid=(0.1,), kappa_grid=(1.0,))
    with pytest.raises(ValueError, match=field):
        SweepSpec(**{**grids, field: value})
    spec = SweepSpec(**{**grids, "n_grid": (10.0,), "trials": np.int64(2), "seed": 3.0})
    assert (spec.n_grid, spec.trials, spec.seed) == ((10,), 2, 3)
    assert all(type(v) is int for v in (spec.n_grid[0], spec.trials, spec.seed))
