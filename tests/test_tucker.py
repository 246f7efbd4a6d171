"""Thin SVD, truncated HOSVD, and the co-factor construction."""

import numpy as np
import pytest

import trpca.metrics
import trpca.tucker
from oracles import (
    descending_kron,
    random_tucker,
    rel_diff,
    suite_all_orthogonal_core,
    suite_trunc_hosvd_identities,
)
from trpca.metrics import tensor_diagnostics
from trpca.synth import gen_truth
from trpca.tensor_ops import fro_norm, matricize, multilinear_mul
from trpca.tucker import (
    TuckerFactors,
    _spectrum,
    breve_factor,
    hosvd,
    reconstruct,
    thin_svd,
)


def spectrum(m):
    """The full descending spectrum that ``_spectrum`` reads with the triplets."""
    return _spectrum(m, 1)[0]


# ---------------------------------------------------------------------------
# thin_svd


def test_thin_svd_diagonal():
    u, s, v = thin_svd(np.diag([3.0, 2.0, 1.0]), 2)
    np.testing.assert_allclose(s, [3.0, 2.0])
    np.testing.assert_allclose(u, np.eye(3)[:, :2], atol=1e-14)
    np.testing.assert_allclose(v, np.eye(3)[:, :2], atol=1e-14)


def test_thin_svd_rank_one_outer():
    rng = np.random.default_rng(0)
    a = rng.standard_normal(5)
    b = rng.standard_normal(7)
    u, s, v = thin_svd(np.outer(a, b), 1)
    np.testing.assert_allclose(s[0], np.linalg.norm(a) * np.linalg.norm(b), rtol=1e-12)
    np.testing.assert_allclose(np.outer(a, b), s[0] * np.outer(u[:, 0], v[:, 0]),
                               rtol=1e-10, atol=1e-12)


def test_thin_svd_against_gram_eigendecomposition():
    # brute-force oracle: singular values are sqrt eigenvalues of M^T M
    rng = np.random.default_rng(1)
    m = rng.standard_normal((6, 4))
    s = thin_svd(m, 4).s
    ref = np.sqrt(np.sort(np.linalg.eigvalsh(m.T @ m))[::-1])
    np.testing.assert_allclose(s, ref, rtol=1e-9, atol=1e-9)


def test_thin_svd_wide_gram_path():
    # cols > 4*rows takes the m @ m.T eigendecomposition route
    rng = np.random.default_rng(2)
    m = rng.standard_normal((3, 30))
    u, s, v = thin_svd(m, 3)
    ref = np.linalg.svd(m, compute_uv=False)
    np.testing.assert_allclose(s, ref, rtol=1e-10)
    np.testing.assert_allclose(u.T @ u, np.eye(3), atol=1e-10)
    np.testing.assert_allclose(v.T @ v, np.eye(3), atol=1e-10)
    np.testing.assert_allclose(u * s @ v.T, m, rtol=1e-9, atol=1e-10)


def test_thin_svd_sign_convention():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = rng.standard_normal((5, 4))
        u, s, v = thin_svd(m, 3)
        for j in range(3):
            i = np.argmax(np.abs(u[:, j]))
            assert u[i, j] > 0
        # deterministic: same input, same output
        u2, s2, v2 = thin_svd(m, 3)
        assert np.array_equal(u, u2) and np.array_equal(s, s2) and np.array_equal(v, v2)


def test_thin_svd_zero_matrix_completion():
    u, s, v = thin_svd(np.zeros((4, 3)), 2)
    np.testing.assert_allclose(s, [0.0, 0.0])
    np.testing.assert_allclose(u, np.eye(4)[:, :2])
    np.testing.assert_allclose(v, np.eye(3)[:, :2])


def test_thin_svd_rank_deficient_padding_deterministic():
    m = np.outer([1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0])
    u, s, v = thin_svd(m, 3)
    assert s[0] == pytest.approx(1.0) and s[1] == 0.0 and s[2] == 0.0
    np.testing.assert_allclose(u.T @ u, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(v.T @ v, np.eye(3), atol=1e-12)
    # a rank-7 8-row matrix whose missing left direction has no entry above
    # 0.5 in magnitude, so every canonical axis keeps a residual below 0.5
    # and the completion is the axis with the largest; on the Gram path (46
    # columns) and the direct SVD (20)
    for seed in (46, 112, 141, 142, 164):
        for cols in (46, 20):
            rng = np.random.default_rng(seed)
            m = rng.standard_normal((8, 7)) @ rng.standard_normal((7, cols))
            u, s, v = thin_svd(m, 8)
            assert s[7] == 0.0
            np.testing.assert_allclose(u.T @ u, np.eye(8), atol=1e-12)
            np.testing.assert_allclose(v.T @ v, np.eye(8), atol=1e-12)
            again = thin_svd(m, 8)
            assert all(np.array_equal(a, b) for a, b in zip((u, s, v), again))


def test_thin_svd_wide_path_matches_tall_on_rank_deficient_inputs():
    # m (cols > 4*rows) takes the Gram path and m.T the direct SVD; with
    # (u, s, v) of m.T being (v, s, u) of m, both must report the missing
    # triplets as exact zeros with the same deterministic completion
    rng = np.random.default_rng(6)
    for rows, cols, true_rank, rank in [(5, 40, 1, 2), (6, 60, 2, 4), (8, 100, 3, 6),
                                        (5, 40, 0, 2)]:
        for scale in (1.0, 1e-3, 1e5):
            m = scale * rng.standard_normal((rows, true_rank)) @ rng.standard_normal(
                (true_rank, cols))
            wide = thin_svd(m, rank)
            tall = thin_svd(m.T, rank)
            assert np.all(wide.s[true_rank:] == 0.0) and np.all(tall.s[true_rank:] == 0.0)
            np.testing.assert_allclose(wide.s, tall.s, rtol=1e-10)
            for a in (wide.u, wide.v, tall.u, tall.v):
                np.testing.assert_allclose(a.T @ a, np.eye(rank), atol=1e-12)
            signs = np.sign(np.sum(wide.u * tall.v, axis=0))
            np.testing.assert_allclose(wide.u * signs, tall.v, atol=1e-10)
            np.testing.assert_allclose(wide.v * signs, tall.u, atol=1e-10)


def test_completion_takes_the_axis_the_basis_covers_least():
    # e_0 keeps a residual of norm just above 0.5 against b, e_1 one of
    # sqrt(0.74) and e_2 all of it: the completion is e_2, then e_1
    b = np.array([np.sqrt(0.74), np.sqrt(0.26), 0.0])
    u = np.column_stack((b, np.full(3, np.nan)))
    trpca.tucker._complete_columns(u, [1])
    assert np.array_equal(u[:, 1], [0.0, 0.0, 1.0])
    u = np.column_stack((b, np.full((3, 2), np.nan)))
    trpca.tucker._complete_columns(u, [1, 2])
    np.testing.assert_allclose(u[:, 2], [-np.sqrt(0.26), np.sqrt(0.74), 0.0], atol=1e-15)
    # through thin_svd, the left vector of a rank-one matrix is b
    u, s, v = thin_svd(np.outer(b, [1.0, 0.0, 0.0]), 2)
    assert s[1] == 0.0
    np.testing.assert_allclose(u[:, 1], [0.0, 0.0, 1.0], atol=1e-15)


def test_completion_cost_per_column_does_not_grow_with_n(monkeypatch):
    # one norm per completed column, whatever the dimension: the axis comes
    # from the row norms of the basis, not from a walk over the axes
    calls = []
    norm = np.linalg.norm

    def counting(*args, **kwargs):
        calls.append(1)
        return norm(*args, **kwargs)
    monkeypatch.setattr(np.linalg, "norm", counting)
    counts = []
    for n in (100, 400):
        rng = np.random.default_rng(n)
        m = rng.standard_normal((n, n - 1)) @ rng.standard_normal((n - 1, n))
        calls.clear()
        u, s, v = thin_svd(m, n)
        counts.append(len(calls))
        assert s[-1] == 0.0 and np.all(s[:-1] > 0.0)
        for a in (u, v):
            np.testing.assert_allclose(a.T @ a, np.eye(n), atol=1e-12)
    assert counts[0] == counts[1]


def test_thin_svd_right_vectors_on_the_gram_path():
    # a wide matrix's right vectors come from one product m.T @ u / s, taken
    # after the signs of u are fixed: each live one is m.T @ u_j / s_j, as
    # column by column, and a zero triplet's is a completion
    rng = np.random.default_rng(12)
    for rows, cols, true_rank, rank in [(4, 50, 4, 3), (6, 60, 6, 6), (6, 60, 2, 4),
                                        (5, 40, 0, 2)]:
        m = rng.standard_normal((rows, true_rank)) @ rng.standard_normal((true_rank, cols))
        u, s, v = thin_svd(m, rank)
        assert np.count_nonzero(s) == min(true_rank, rank)
        for j in np.flatnonzero(s):
            assert rel_diff(v[:, j], m.T @ u[:, j] / s[j]) <= 1e-12
        np.testing.assert_allclose(v.T @ v, np.eye(rank), atol=1e-10)


def test_thin_svd_kappa_1e7_resolved_directly_floored_on_the_gram_path():
    # the Gram path squares the singular values, so a wide matrix reads one
    # of 1e-7 * s_max as 0; the direct SVD of its transpose resolves it
    rng = np.random.default_rng(11)
    u = np.linalg.qr(rng.standard_normal((10, 2)))[0]
    v = np.linalg.qr(rng.standard_normal((60, 2)))[0]
    m = (u * np.array([1.0, 1e-7])) @ v.T  # 10 x 60: more than 4x wider than tall
    assert thin_svd(m, 2).s[1] == 0.0
    assert spectrum(m)[1] == 0.0
    tall = thin_svd(m.T, 2)  # 60 x 10: the direct SVD
    assert tall.s[1] == pytest.approx(1e-7, rel=1e-6)
    assert spectrum(m.T)[1] == pytest.approx(1e-7, rel=1e-6)


def test_thin_svd_validation():
    with pytest.raises(ValueError):
        thin_svd(np.zeros((3, 3)), 0)
    with pytest.raises(ValueError):
        thin_svd(np.zeros((3, 3)), 4)
    with pytest.raises(ValueError):
        thin_svd(np.full((2, 2), np.nan), 1)
    with pytest.raises(ValueError):
        thin_svd(np.zeros(3), 1)


def test_op_norm():
    # the operator norm is the first entry of the descending spectrum of
    # _spectrum, which takes a wide matrix through its Gram matrix and
    # every other one through an SVD; on both paths a numerically zero value
    # reads exactly 0
    rng = np.random.default_rng(4)
    m = rng.standard_normal((5, 6))
    assert spectrum(m)[0] == pytest.approx(np.linalg.norm(m, 2), rel=1e-12)
    wide = rng.standard_normal((2, 40))
    assert spectrum(wide)[0] == pytest.approx(np.linalg.norm(wide, 2), rel=1e-10)
    one = np.outer(rng.standard_normal(3), rng.standard_normal(40))
    for a in (m, wide, wide.T, one, one.T):
        s = spectrum(a)
        assert s.shape == (min(a.shape),) and np.all(np.diff(s) <= 0)
        assert rel_diff(s, np.linalg.svd(a, compute_uv=False)) <= 1e-10
        assert s[0] == pytest.approx(np.linalg.norm(a, 2), rel=1e-12)
    for a in (one, one.T):  # rank one: the Gram path and the direct SVD
        assert np.all(spectrum(a)[1:] == 0.0)


@pytest.mark.parametrize("k", [-660, 600])
def test_spectra_scale_across_the_float_range(k):
    # the squares in a Gram matrix underflow at 2**-660 and overflow at
    # 2**600; the results must still be the unit-scale ones scaled by 2**k
    truth = gen_truth((12, 12, 12), 2, kappa=5.0, alpha=0.1, seed=29)
    y, c = truth.y, 2.0**k
    m = matricize(y, 0)  # 12 x 144, wide enough for the Gram path
    base, scaled = thin_svd(m, 2), thin_svd(c * m, 2)
    assert rel_diff(scaled.s, c * base.s) <= 1e-12
    assert rel_diff(scaled.u, base.u) <= 1e-12
    assert rel_diff(scaled.v, base.v) <= 1e-12
    for a in (m, m.T):  # wide and tall
        top, scaled_top = spectrum(a)[0], spectrum(c * a)[0]
        assert abs(scaled_top - c * top) <= 1e-12 * c * top
    f, g = hosvd(y, (2, 2, 2)), hosvd(c * y, (2, 2, 2))
    for a, b in zip(g.factors, f.factors):
        assert rel_diff(a, b) <= 1e-12
    assert rel_diff(g.core, c * f.core) <= 1e-12


# ---------------------------------------------------------------------------
# TuckerFactors / hosvd / reconstruct


def test_tucker_factors_validation_and_props():
    f = random_tucker(np.random.default_rng(5), (4, 5, 6), (2, 3, 2))
    assert f.order == 3
    assert f.outer_dims == (4, 5, 6)
    assert f.rank == (2, 3, 2)
    c = f.copy()
    c.core[0, 0, 0] += 1.0
    assert f.core[0, 0, 0] != c.core[0, 0, 0]
    with pytest.raises(ValueError):
        TuckerFactors((np.zeros((4, 2)),), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        TuckerFactors((np.zeros((4, 3)), np.zeros((5, 2))), np.zeros((2, 2)))


def test_hosvd_zero_tensor_canonical():
    f = hosvd(np.zeros((4, 3, 5)), (2, 2, 2))
    assert fro_norm(f.core) == 0.0
    for u, n in zip(f.factors, (4, 3, 5)):
        np.testing.assert_allclose(u, np.eye(n)[:, :2])
    # deterministic across calls
    g = hosvd(np.zeros((4, 3, 5)), (2, 2, 2))
    assert all(np.array_equal(a, b) for a, b in zip(f.factors, g.factors))


def test_hosvd_orthonormal_factors_and_core_projection():
    rng = np.random.default_rng(6)
    t = rng.standard_normal((5, 6, 7))
    f = hosvd(t, (2, 3, 2))
    for u in f.factors:
        assert fro_norm(u.T @ u - np.eye(u.shape[1])) <= 1e-10
    ref_core = multilinear_mul([u.T for u in f.factors], t)
    np.testing.assert_allclose(f.core, ref_core, rtol=1e-12, atol=1e-14)


def test_hosvd_core_spectrum_kappa_10():
    # superdiagonal construction: mode-1 core singular values are {1, 1/10}
    truth = gen_truth((12, 12, 12), 2, kappa=10.0, alpha=0.0, seed=42)
    f = hosvd(truth.x_star, (2, 2, 2))
    s = np.linalg.svd(matricize(f.core, 0), compute_uv=False)
    np.testing.assert_allclose(s / s[0], [1.0, 0.1], atol=1e-9)


def test_hosvd_exact_rank_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(10):
        f = random_tucker(rng, (5, 6, 7), (2, 3, 2), orthonormal=True)
        t = reconstruct(f)
        back = reconstruct(hosvd(t, (2, 3, 2)))
        assert rel_diff(back, t) < 1e-9


def test_hosvd_rank_validation():
    with pytest.raises(ValueError):
        hosvd(np.zeros((3, 3, 3)), (4, 2, 2))
    with pytest.raises(ValueError):
        hosvd(np.zeros((3, 3, 3)), (2, 2))
    with pytest.raises(ValueError, match="integers"):  # not run at rank 1
        hosvd(np.ones((3, 3, 3)), (1.5, 1, 1))
    for bad in (np.nan, np.inf):
        t = np.zeros((3, 3, 3))
        t[1, 2, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            hosvd(t, (2, 2, 2))


@pytest.mark.parametrize("dims, rank", [
    ((8, 9, 10), (2, 3, 2)),
    ((5, 6, 4, 7), (2, 2, 3, 2)),
    ((30, 2, 3), (2, 2, 2)),  # mode 0 is tall: the direct SVD of a view
    ((4, 3, 5, 2, 3), (2, 2, 2, 1, 2)),
])
def test_hosvd_and_condition_numbers_matricize_only_the_middle_modes(monkeypatch, dims, rank):
    # mode 0 and the last mode are read as reshape views, whose columns are
    # the matricization's in another order: the factors and spectra agree
    # with the matricize route's
    t = np.random.default_rng(len(dims)).standard_normal(dims)
    middle = list(range(1, len(dims) - 1))
    calls = []

    def counting(a, mode):
        calls.append(mode)
        return matricize(a, mode)

    for module in (trpca.tucker, trpca.metrics):
        monkeypatch.setattr(module, "matricize", counting)
    f = hosvd(t, rank)
    assert calls == middle
    calls.clear()
    d = tensor_diagnostics(t, rank)  # one copy per middle mode, for both measures
    assert calls == middle
    for k, r in enumerate(rank):
        m = matricize(t, k)
        assert rel_diff(f.factors[k], thin_svd(m, r).u) <= 1e-12
        assert rel_diff(d.singular_values[k], spectrum(m)) <= 1e-12


@pytest.mark.parametrize("dims, rank, true_rank, gram_modes", [
    ((10, 11, 12), (2, 2, 2), 3, 3),  # every unfolding wide: the Gram path
    ((3, 4, 40), (2, 2, 3), 3, 2),  # mode 2 is tall: one direct SVD
    ((8, 6, 7, 9), (2, 2, 2, 2), 3, 4),
    ((10, 11, 12), (2, 3, 2), 1, 3),  # rank one: zero triplets completed
])
def test_hosvd_and_tensor_diagnostics_decompose_each_unfolding_once(
        monkeypatch, dims, rank, true_rank, gram_modes):
    # the spectrum and the factor of a mode come from one eigh of its Gram
    # matrix or one SVD of the unfolding, never from a second decomposition
    rng = np.random.default_rng(sum(dims))
    x = multilinear_mul([rng.standard_normal((n, true_rank)) for n in dims],
                        rng.standard_normal((true_rank,) * len(dims)))
    calls = dict.fromkeys(("eigh", "eigvalsh", "svd"), 0)

    def counting(name):
        real = getattr(np.linalg, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return call

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counting(name))
    want = {"eigh": gram_modes, "eigvalsh": 0, "svd": len(dims) - gram_modes}
    for measure in (tensor_diagnostics, hosvd):
        calls.update(dict.fromkeys(calls, 0))
        measure(x, rank)
        assert calls == want, measure.__name__


def test_reconstruct_identity_factors():
    rng = np.random.default_rng(8)
    g = rng.standard_normal((3, 4, 2))
    f = TuckerFactors((np.eye(3), np.eye(4), np.eye(2)), g)
    assert np.array_equal(reconstruct(f), g)


def test_reconstruct_1x1x1():
    f = TuckerFactors(
        (np.array([[2.0]]), np.array([[3.0]]), np.array([[4.0]])),
        np.full((1, 1, 1), 5.0),
    )
    assert reconstruct(f)[0, 0, 0] == 120.0


@pytest.mark.parametrize("dims, rank", [
    ((5, 4, 3), (2, 3, 1)),
    ((4, 3, 5, 2), (2, 2, 3, 1)),
    ((3, 4, 2, 3, 2), (2, 1, 2, 2, 2)),
])
def test_reconstruct_is_c_contiguous(dims, rank):
    # the solver slices the expansion into mode-0 slabs and turns each one
    # into the residual in place, which copies nothing only in C order
    f = random_tucker(np.random.default_rng(len(dims)), dims, rank)
    for core in (f.core, np.asfortranarray(f.core)):
        x = reconstruct(TuckerFactors(f.factors, core))
        assert x.shape == dims and x.flags.c_contiguous


def test_best_rank_r_matricization_residual():
    # ||(I - U U^T) M_k(t)||_op equals sigma_{r_k+1}(M_k(t))
    rng = np.random.default_rng(9)
    t = rng.standard_normal((5, 6, 7))
    f = hosvd(t, (2, 3, 2))
    for k, r in enumerate((2, 3, 2)):
        m = matricize(t, k)
        u = f.factors[k]
        resid = (np.eye(m.shape[0]) - u @ u.T) @ m
        s = np.linalg.svd(m, compute_uv=False)
        assert spectrum(resid)[0] == pytest.approx(s[r], abs=1e-9)


# ---------------------------------------------------------------------------
# breve_factor


def test_breve_identity_factors():
    rng = np.random.default_rng(10)
    g = rng.standard_normal((2, 3, 2))
    f = TuckerFactors((np.eye(2), np.eye(3), np.eye(2)), g)
    for k in range(3):
        assert np.allclose(breve_factor(f, k), matricize(g, k).T, rtol=1e-14)


def test_breve_matricization_split():
    # M_k(reconstruct(f)) == U_k @ breve^T, order 3 and order 4
    rng = np.random.default_rng(11)
    f3 = random_tucker(rng, (3, 4, 5), (2, 2, 2))
    for k in range(3):
        lhs = matricize(reconstruct(f3), k)
        assert rel_diff(lhs, f3.factors[k] @ breve_factor(f3, k).T) < 1e-12
    f4 = random_tucker(rng, (3, 4, 2, 3), (2, 2, 2, 2))
    for k in range(4):
        lhs = matricize(reconstruct(f4), k)
        assert rel_diff(lhs, f4.factors[k] @ breve_factor(f4, k).T) < 1e-12


def test_breve_explicit_kron_form():
    rng = np.random.default_rng(12)
    f = random_tucker(rng, (3, 3, 3), (2, 2, 2))
    for k in range(3):
        ref = descending_kron(f.factors, k) @ matricize(f.core, k).T
        assert rel_diff(breve_factor(f, k), ref) < 1e-12
    with pytest.raises(ValueError):
        breve_factor(f, 3)


def test_breve_gram_identity_orthonormal():
    # breve^T breve == M_k(G) M_k(G)^T when factors are orthonormal
    rng = np.random.default_rng(13)
    f = random_tucker(rng, (5, 6, 4), (2, 3, 2), orthonormal=True)
    for k in range(3):
        b = breve_factor(f, k)
        g = matricize(f.core, k)
        assert rel_diff(b.T @ b, g @ g.T) < 1e-12


def test_property_suites_reduced():
    suite_trunc_hosvd_identities(np.random.default_rng(14), 120)
    suite_all_orthogonal_core(np.random.default_rng(15), 120)
