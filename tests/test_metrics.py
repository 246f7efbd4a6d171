"""Incoherence, condition numbers, sparsity measures, alignment, error reports."""

import types

import numpy as np
import pytest

from oracles import (
    oracle_fiber_fraction,
    random_tucker,
    rel_diff,
    suite_condition_ordering,
    suite_sparse_norm_bounds,
    suite_x_star_inf_bound,
)
from trpca.metrics import (
    align_factors,
    condition_numbers,
    error_report,
    incoherence,
    sparse_norm_bounds_check,
    sparsity_fraction,
    tensor_diagnostics,
)
from trpca.rpca import soft_shrink
from trpca.synth import gen_truth
from trpca.tensor_ops import fro_norm, multilinear_mul
from trpca.tucker import TuckerFactors, hosvd, reconstruct


def _factors(mats, core_dims=None):
    if core_dims is None:
        core_dims = tuple(m.shape[1] for m in mats)
    return TuckerFactors(list(mats), np.ones(core_dims))


# ---------------------------------------------------------------------------
# incoherence


def test_incoherence_canonical_factors():
    u = np.eye(12)[:, :3]
    assert incoherence(_factors([u, u, u])) == pytest.approx(12 / 3, rel=1e-12)


def test_incoherence_square_orthogonal_is_one():
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((7, 7)))
    assert incoherence(_factors([q, q, q])) == pytest.approx(1.0, rel=1e-12)


def test_incoherence_direct_formula():
    q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((30, 2)))
    want = 30 / 2 * max(np.sum(q[i] ** 2) for i in range(30))
    assert incoherence(_factors([q, q, q])) == pytest.approx(want, rel=1e-12)


def test_incoherence_signed_permutation_invariance():
    rng = np.random.default_rng(2)
    f = random_tucker(rng, (9, 9, 9), (3, 3, 3), orthonormal=True)
    base = incoherence(f)
    flipped = [u[:, ::-1] * np.array([1.0, -1.0, 1.0]) for u in f.factors]
    assert incoherence(_factors(flipped)) == pytest.approx(base, rel=1e-12)


def test_incoherence_rejects_non_orthonormal():
    with pytest.raises(ValueError):
        incoherence(_factors([2.0 * np.eye(4)[:, :2]] * 3))


# ---------------------------------------------------------------------------
# condition numbers


def test_condition_numbers_match_construction():
    truth = gen_truth((14, 14, 14), 2, kappa=7.0, alpha=0.0, seed=3)
    cond = condition_numbers(truth.x_star, (2, 2, 2))
    assert cond.kappa == pytest.approx(7.0, rel=1e-8)
    assert cond.kappa_s == pytest.approx(7.0, rel=1e-8)  # equal mode spectra
    assert cond.sigma_min == pytest.approx(1.0 / 7.0, rel=1e-8)
    assert truth.diagnostics.kappa == pytest.approx(7.0, rel=1e-6)


def test_condition_numbers_equal_superdiagonal():
    core = np.zeros((2, 2, 2))
    core[0, 0, 0] = core[1, 1, 1] = 3.0
    x = reconstruct(_factors([np.eye(5)[:, :2]] * 3, (2, 2, 2)))
    x = multilinear_mul([np.eye(5)[:, :2]] * 3, core)
    cond = condition_numbers(x, (2, 2, 2))
    assert cond.kappa == pytest.approx(1.0, abs=1e-12)
    assert cond.kappa_s == pytest.approx(1.0, abs=1e-12)
    assert cond.sigma_min == pytest.approx(3.0, rel=1e-12)


def test_condition_numbers_edge_cases():
    with pytest.raises(ValueError):
        condition_numbers(np.zeros((3, 3, 3)), (1, 1, 1))
    a = np.zeros((4, 4, 4))  # single entry: exactly rank one per mode
    a[0, 0, 0] = 2.0
    assert condition_numbers(a, (2, 2, 2)).kappa == np.inf
    with pytest.raises(ValueError):
        condition_numbers(a, (2, 2))
    with pytest.raises(ValueError):
        condition_numbers(a, (5, 2, 2))


def test_condition_numbers_scale_across_the_float_range():
    # the squares in a Gram matrix underflow at 2**-660 and overflow at 2**600
    truth = gen_truth((12, 12, 12), 2, kappa=5.0, alpha=0.1, seed=29)
    base = condition_numbers(truth.x_star, (2, 2, 2))
    assert base.kappa == pytest.approx(5.0, rel=1e-9)
    for c in (2.0**-660, 2.0**600):
        cond = condition_numbers(c * truth.x_star, (2, 2, 2))
        assert cond.kappa == pytest.approx(base.kappa, rel=1e-12)
        assert cond.kappa_s == pytest.approx(base.kappa_s, rel=1e-12)
        assert cond.sigma_min == pytest.approx(c * base.sigma_min, rel=1e-12)
        for s, s_base in zip(cond.singular_values, base.singular_values):
            assert rel_diff(s, c * s_base) <= 1e-12


def test_condition_ordering_suite():
    suite_condition_ordering(np.random.default_rng(4), 120)


# ---------------------------------------------------------------------------
# sparsity fraction


def test_sparsity_fraction_basics():
    assert sparsity_fraction(np.zeros((4, 5, 6))) == 0.0
    s = np.zeros((4, 5, 6))
    s[1, 2, 3] = 9.0
    assert sparsity_fraction(s) == pytest.approx(1 / 4)
    assert sparsity_fraction(np.ones((4, 5, 6))) == 1.0
    assert sparsity_fraction(np.array([0.0, 1.0, 0.0, 0.0])) == 0.25


def test_sparsity_fraction_matches_brute_force():
    rng = np.random.default_rng(5)
    for _ in range(25):
        dims = tuple(rng.integers(2, 7, size=rng.integers(2, 5)))
        s = np.where(rng.random(dims) < 0.3, rng.standard_normal(dims), 0.0)
        assert sparsity_fraction(s) == pytest.approx(oracle_fiber_fraction(s))


def test_sparsity_fraction_bernoulli_concentration():
    p, n = 0.3, 20
    rng = np.random.default_rng(6)
    s = (rng.random((n, n, n)) < p).astype(float)
    frac = sparsity_fraction(s)
    assert frac == pytest.approx(oracle_fiber_fraction(s))
    assert p - 3 * np.sqrt(p / n) <= frac <= p + 3 * np.sqrt(p / n)


def test_sparsity_fraction_shrink_monotone():
    rng = np.random.default_rng(7)
    s = np.where(rng.random((8, 8, 8)) < 0.2, rng.standard_normal((8, 8, 8)), 0.0)
    for zeta in (0.1, 0.5, 2.0):
        assert sparsity_fraction(soft_shrink(s, zeta)) <= sparsity_fraction(s)


# ---------------------------------------------------------------------------
# sparse norm bounds


def test_norm_bounds_zero_matrix():
    report = sparse_norm_bounds_check(np.zeros((5, 7)), 0.3)
    assert report.all_hold and report.ratios == (0.0, 0.0, 0.0)


def test_norm_bounds_single_entry():
    m = np.zeros((6, 9))
    m[2, 3] = 5.0
    report = sparse_norm_bounds_check(m, 1 / 6)
    assert report.all_hold
    assert report.op[0] == pytest.approx(5.0)
    assert report.l1inf[1] == pytest.approx(9 / 6 * 5.0)


def test_norm_bounds_random_sparse():
    rng = np.random.default_rng(8)
    m = np.zeros((40, 60))
    for j in range(60):  # two entries per column, spread over rows
        rows = rng.choice(40, size=2, replace=False)
        m[rows, j] = rng.standard_normal(2)
    alpha = max(np.max((m != 0).sum(axis=1)) / 60, 2 / 40)
    report = sparse_norm_bounds_check(m, alpha)
    assert report.all_hold
    val, bound = report.op
    assert val == pytest.approx(np.linalg.norm(m, 2), rel=1e-12)
    assert val <= bound


def test_norm_bounds_rejects_dense_rows():
    m = np.zeros((10, 10))
    m[0, :] = 1.0
    with pytest.raises(ValueError):
        sparse_norm_bounds_check(m, 0.2)
    with pytest.raises(ValueError):
        sparse_norm_bounds_check(np.zeros((3, 3)), 1.5)


def test_norm_bounds_ratios_are_scale_free():
    m = np.eye(6)
    m[0, 1] = 2.0
    base = sparse_norm_bounds_check(m, 1 / 3).ratios
    assert base[1] == pytest.approx(np.sqrt(5 / 8), rel=1e-15)
    for k in (-600, 600):
        ratios = sparse_norm_bounds_check(2.0**k * m, 1 / 3).ratios
        assert ratios == pytest.approx(base, rel=1e-12)


def test_norm_bounds_suite():
    suite_sparse_norm_bounds(np.random.default_rng(9), 150)


# ---------------------------------------------------------------------------
# alignment


def test_align_identical_is_zero():
    truth = gen_truth((8, 8, 8), 2, kappa=3.0, alpha=0.0, seed=10)
    result = align_factors(truth.factors, truth.factors)
    assert result.dist_upper < 1e-10
    for q in result.q:
        assert np.abs(q - np.eye(2)).max() < 1e-10


def test_align_undoes_invertible_mixing():
    truth = gen_truth((8, 8, 8), 2, kappa=3.0, alpha=0.0, seed=11)
    rng = np.random.default_rng(12)
    bs = [np.eye(2) + 0.3 * rng.standard_normal((2, 2)) for _ in range(3)]
    mixed = TuckerFactors(
        [u @ b for u, b in zip(truth.factors.factors, bs)],
        multilinear_mul([np.linalg.inv(b) for b in bs], truth.factors.core),
    )
    assert rel_diff(reconstruct(mixed), truth.x_star) < 1e-12
    result = align_factors(mixed, truth.factors)
    assert result.dist_upper <= 1e-8


def test_align_invariant_under_mixing_of_first_argument():
    truth = gen_truth((8, 8, 8), 2, kappa=3.0, alpha=0.0, seed=13)
    rng = np.random.default_rng(14)
    perturbed = truth.factors.copy()
    for u in perturbed.factors:
        u += 0.05 * rng.standard_normal(u.shape)
    base = align_factors(perturbed, truth.factors).dist_upper
    bs = [np.eye(2) + 0.3 * rng.standard_normal((2, 2)) for _ in range(3)]
    mixed = TuckerFactors(
        [u @ b for u, b in zip(perturbed.factors, bs)],
        multilinear_mul([np.linalg.inv(b) for b in bs], perturbed.core),
    )
    assert align_factors(mixed, truth.factors).dist_upper == pytest.approx(base, rel=1e-8)


def test_align_lower_bounds_reconstruction_gap():
    truth = gen_truth((8, 8, 8), 2, kappa=3.0, alpha=0.0, seed=15)
    rng = np.random.default_rng(16)
    perturbed = truth.factors.copy()
    for u in perturbed.factors:
        u += 0.1 * rng.standard_normal(u.shape)
    gap = fro_norm(reconstruct(perturbed) - truth.x_star)
    assert align_factors(perturbed, truth.factors).dist_upper >= gap / 3.0


def test_align_rejects_non_normal_form():
    truth = gen_truth((8, 8, 8), 2, kappa=3.0, alpha=0.0, seed=17)
    us = [u.copy() for u in truth.factors.factors]
    us[0] = us[0] * 2.0
    skewed = TuckerFactors(us, truth.factors.core.copy())
    with pytest.raises(ValueError):
        align_factors(truth.factors, skewed)  # reference not orthonormal
    rng = np.random.default_rng(18)
    dense_core = TuckerFactors(
        [u.copy() for u in truth.factors.factors], rng.standard_normal((2, 2, 2))
    )
    with pytest.raises(ValueError):
        align_factors(truth.factors, dense_core)  # core not all-orthogonal
    with pytest.raises(ValueError):
        align_factors(random_tucker(rng, (8, 8, 8), (3, 3, 3)), truth.factors)


def test_align_scales_across_the_float_range():
    # at 2**-600 the core Grams underflow to 0, at 2**600 the squares overflow
    truth = gen_truth((12, 12, 12), 2, kappa=5.0, alpha=0.0, seed=29)
    mix = np.array([[1.0, 0.1], [0.0, 1.0]])
    us = [u @ mix for u in truth.factors.factors]
    base = align_factors(TuckerFactors(us, truth.factors.core), truth.factors).dist_upper
    assert base == pytest.approx(0.0348, abs=1e-4)
    for k in (-600, 600):
        c = 2.0**k
        f = TuckerFactors(us, c * truth.factors.core)
        f_star = TuckerFactors(truth.factors.factors, c * truth.factors.core)
        assert align_factors(f, f_star).dist_upper == pytest.approx(c * base, rel=1e-12)


# ---------------------------------------------------------------------------
# error reports


def test_error_report_exact_reconstruction():
    truth = gen_truth((10, 10, 10), 2, kappa=4.0, alpha=0.1, seed=19)
    report = error_report(truth.factors, truth)
    assert (report.rel_fro, report.inf_error, report.inf_envelope_ratio) == (0.0, 0.0, 0.0)


def test_error_report_single_entry_offset():
    x = np.random.default_rng(20).standard_normal((3, 3, 3))
    diag = types.SimpleNamespace(mu=2.0, sigma_min=0.5)
    truth = types.SimpleNamespace(x_star=x, diagnostics=diag)
    bumped = x.copy()
    bumped[0, 0, 0] += 0.25
    f = TuckerFactors([np.eye(3)] * 3, bumped)
    report = error_report(f, truth)
    assert report.rel_fro == pytest.approx(0.25 / fro_norm(x), rel=1e-12)
    assert report.inf_error == pytest.approx(0.25, rel=1e-12)
    scale = np.sqrt(2.0**3 * 27 / 27) * 0.5
    assert report.inf_envelope_ratio == pytest.approx(0.25 / scale, rel=1e-12)


def test_error_report_rel_fro_is_scale_free():
    # at 2**-660 the squared entries underflow to 0, at 2**600 they overflow
    truth = gen_truth((12, 12, 12), 2, kappa=3.0, alpha=0.0, seed=24)
    f = truth.factors
    rels = []
    for c in (1.0, 2.0**-660, 2.0**600):
        doubled = TuckerFactors(f.factors, 2.0 * c * f.core)
        scaled = types.SimpleNamespace(x_star=c * truth.x_star, diagnostics=truth.diagnostics)
        rels.append(error_report(doubled, scaled).rel_fro)
    assert rels[0] == pytest.approx(1.0, rel=1e-12)
    assert rels[1] == rels[0] and rels[2] == rels[0]


def test_x_star_entry_bound():
    truth = gen_truth((12, 12, 12), 2, kappa=6.0, alpha=0.0, seed=21)
    d = truth.diagnostics
    bound = np.sqrt(d.mu**3 * 8 / 12**3) * d.kappa * d.sigma_min
    assert np.abs(truth.x_star).max() <= bound * (1 + 1e-9)
    suite_x_star_inf_bound(np.random.default_rng(22), 120)


# ---------------------------------------------------------------------------
# combined diagnostics


def test_tensor_diagnostics_combines_measures():
    truth = gen_truth((12, 12, 12), 2, kappa=5.0, alpha=1 / 12, seed=23)
    d = tensor_diagnostics(truth.x_star, (2, 2, 2), sparse=truth.s_star)
    assert d.kappa == pytest.approx(5.0, rel=1e-6)
    assert d.mu == pytest.approx(incoherence(hosvd(truth.x_star, (2, 2, 2))), rel=1e-12)
    assert d.alpha == pytest.approx(sparsity_fraction(truth.s_star))
    assert d.kappa <= d.kappa_s * (1 + 1e-12)
    d2 = tensor_diagnostics(truth.x_star, (2, 2, 2))
    assert d2.alpha == 0.0
