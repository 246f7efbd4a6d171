"""Matricization convention, multilinear products, and norms."""

import numpy as np
import pytest

from oracles import (
    descending_kron,
    inner,
    l1inf_norm,
    mode_inner,
    oracle_kron,
    oracle_matricize,
    oracle_multilinear_loops,
    rel_diff,
    suite_inner_adjoint,
    suite_matricization_identities,
    suite_multilinear_composition,
    tensorize,
)
from trpca.tensor_ops import (
    _sumsq,
    _mode_product,
    as_tensor,
    check_rank,
    fro_norm,
    inf_norm,
    l2inf_norm,
    matricize,
    multilinear_mul,
)


def test_matricize_2x2x2_frozen():
    # t[i,j,k] = 4i + 2j + k; the column order (remaining modes ascending,
    # first remaining mode fastest) is pinned by these hand-enumerated values
    t = np.arange(8.0).reshape(2, 2, 2)
    assert np.array_equal(matricize(t, 0), [[0, 2, 1, 3], [4, 6, 5, 7]])
    assert np.array_equal(matricize(t, 1), [[0, 4, 1, 5], [2, 6, 3, 7]])
    assert np.array_equal(matricize(t, 2), [[0, 4, 2, 6], [1, 5, 3, 7]])


def test_matricize_matches_index_oracle():
    rng = np.random.default_rng(0)
    for _ in range(25):
        dims = tuple(rng.integers(2, 6, size=int(rng.integers(3, 5))))
        t = rng.standard_normal(dims)
        for k in range(t.ndim):
            assert np.array_equal(matricize(t, k), oracle_matricize(t, k))


def test_tensorize_round_trip_bit_exact():
    rng = np.random.default_rng(1)
    for _ in range(25):
        dims = tuple(rng.integers(2, 7, size=3))
        t = rng.standard_normal(dims)
        for k in range(3):
            back = tensorize(matricize(t, k), dims, k)
            assert np.array_equal(back, t)
            assert back.dtype == t.dtype


def test_tensorize_rejects_wrong_shape():
    with pytest.raises(ValueError):
        tensorize(np.zeros((2, 5)), (2, 2, 2), 0)
    with pytest.raises(ValueError):
        tensorize(np.zeros((2, 4)), (2, 2, 2), 5)


def test_norms_invariant_under_matricization():
    rng = np.random.default_rng(2)
    t = rng.standard_normal((4, 5, 6))
    for k in range(3):
        m = matricize(t, k)
        assert inf_norm(m) == inf_norm(t)
        assert abs(fro_norm(m) - fro_norm(t)) <= 1e-14 * fro_norm(t)


def test_kron_matches_block_oracle():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((2, 3))
    b = rng.standard_normal((4, 2))
    assert np.array_equal(np.kron(a, b), oracle_kron(a, b))


def test_kronecker_identity_all_modes():
    # matricize((U1,U2,U3).G, k) = U_k M_k(G) kron(descending, skip k)^T
    rng = np.random.default_rng(4)
    for _ in range(10):
        dims = tuple(rng.integers(2, 6, size=3))
        rank = tuple(rng.integers(1, 4, size=3))
        mats = [rng.standard_normal((n, r)) for n, r in zip(dims, rank)]
        g = rng.standard_normal(rank)
        x = multilinear_mul(mats, g)
        for k in range(3):
            rhs = mats[k] @ matricize(g, k) @ descending_kron(mats, k).T
            assert rel_diff(matricize(x, k), rhs) < 1e-10


def test_multilinear_matches_naive_sum():
    rng = np.random.default_rng(5)
    g = rng.standard_normal((2, 3, 2))
    mats = [rng.standard_normal((n, r)) for n, r in zip((3, 2, 4), (2, 3, 2))]
    np.testing.assert_allclose(
        multilinear_mul(mats, g), oracle_multilinear_loops(mats, g), rtol=1e-12
    )


# Orders 3-5 with size-1 dims (rank-1 factors in the expanding direction)
# and factors with one row (in the contracting direction).
_MODE_CASES = [
    ((3, 2, 4), (2, 3, 1)),
    ((2, 3, 1, 2), (3, 1, 2, 2)),
    ((2, 1, 3, 2, 2), (1, 2, 2, 3, 1)),
]


def _layouts(t):
    """``t`` in C order, as a view with permuted axes (neither C- nor
    F-contiguous) and in Fortran order, all with the values of ``t``."""
    permuted = np.moveaxis(np.ascontiguousarray(np.moveaxis(t, 0, -1)), -1, 0)
    assert not (permuted.flags.c_contiguous or permuted.flags.f_contiguous)
    return [t, permuted, np.asfortranarray(t)]


@pytest.mark.parametrize("dims, rows", _MODE_CASES)
def test_mode_product_matches_nested_sums(dims, rows):
    rng = np.random.default_rng(len(dims))
    t = rng.standard_normal(dims)
    for k, m in enumerate(rows):
        a = rng.standard_normal((m, dims[k]))
        want = oracle_multilinear_loops([a if j == k else None for j in range(t.ndim)], t)
        q = rng.standard_normal(dims[:k] + (m,) + dims[k + 1:])
        want_inner = oracle_matricize(t, k) @ oracle_matricize(q, k).T
        for view in _layouts(t):
            got = _mode_product(view, a, k)
            assert got.shape == want.shape and got.flags.c_contiguous
            assert rel_diff(got, want) <= 1e-12
            assert rel_diff(mode_inner(view, q, k), want_inner) <= 1e-12


@pytest.mark.parametrize("dims, rows", _MODE_CASES)
def test_multilinear_mul_matches_nested_sums_with_none_slots(dims, rows):
    rng = np.random.default_rng(10 + len(dims))
    t = rng.standard_normal(dims)
    full = [rng.standard_normal((m, n)) for m, n in zip(rows, dims)]
    order = len(dims)
    for keep in ([True] * order, [k % 2 == 0 for k in range(order)],
                 [k % 2 == 1 for k in range(order)], [k == order - 1 for k in range(order)]):
        mats = [a if kept else None for a, kept in zip(full, keep)]
        want = oracle_multilinear_loops(mats, t)
        for view in _layouts(t):
            got = multilinear_mul(mats, view)
            assert got.shape == want.shape and got.flags.c_contiguous
            assert rel_diff(got, want) <= 1e-12


def test_multilinear_identity_placeholder():
    rng = np.random.default_rng(6)
    t = rng.standard_normal((3, 4, 5))
    a = rng.standard_normal((2, 4))
    out = multilinear_mul([None, a, None], t)
    ref = multilinear_mul([np.eye(3), a, np.eye(5)], t)
    assert np.allclose(out, ref, rtol=1e-14)
    assert out.shape == (3, 2, 5)


def test_multilinear_shape_errors():
    t = np.zeros((2, 2, 2))
    with pytest.raises(ValueError):
        multilinear_mul([np.eye(2), np.eye(2)], t)
    with pytest.raises(ValueError):
        multilinear_mul([np.eye(3), np.eye(2), np.eye(2)], t)


def test_operator_norm_product_bound():
    # ||(Q1,Q2,Q3).G||_F <= ||Q1||op ||Q2||op ||Q3||op ||G||_F
    rng = np.random.default_rng(7)
    for _ in range(20):
        g = rng.standard_normal((3, 3, 3))
        qs = [rng.standard_normal((4, 3)) for _ in range(3)]
        lhs = fro_norm(multilinear_mul(qs, g))
        rhs = np.prod([np.linalg.norm(q, 2) for q in qs]) * fro_norm(g)
        assert lhs <= rhs * (1 + 1e-12)


def test_inner_is_entrywise_dot():
    a = np.arange(8.0).reshape(2, 2, 2)
    b = np.ones((2, 2, 2))
    assert inner(a, b) == 28.0
    with pytest.raises(ValueError):
        inner(a, np.ones((2, 2)))


def test_row_norms():
    m = np.array([[3.0, 4.0], [0.0, 1.0]])
    assert l2inf_norm(m) == 5.0
    assert l1inf_norm(m) == 7.0
    assert l1inf_norm(np.array([[1.0, -2.0], [3.0, 0.0]])) == 3.0
    with pytest.raises(ValueError):
        l2inf_norm(np.zeros(3))


def test_as_tensor_validation():
    with pytest.raises(ValueError):
        as_tensor(np.zeros((0, 2)))
    with pytest.raises(ValueError):
        as_tensor(np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        as_tensor(np.zeros((2, 2)), min_order=3)
    out = as_tensor([[1, 2], [3, 4]])
    assert out.dtype == np.float64 and out.flags["C_CONTIGUOUS"]


def test_check_rank():
    assert check_rank((4, 5, 6), [2, 5, 3]) == (2, 5, 3)
    assert check_rank((2, 3, 20), (2, 3, 6)) == (2, 3, 6)  # r_k <= prod(n) // n_k
    for shape, rank in [((4, 5, 6), (2, 2)), ((4, 5, 6), (0, 2, 2)),
                        ((4, 5, 6), (5, 2, 2)), ((2, 3, 20), (2, 3, 7)),
                        ((0, 3, 3), (1, 1, 1)), ((5, 5, 5), (2.9, 2, 1.5)),
                        ((5, 5, 5), (2, 2, 1.0000001))]:
        with pytest.raises(ValueError):
            check_rank(shape, rank)
    # integer values of any numeric type pass, as ints
    rank = check_rank((5, 5, 5), (2.0, np.int32(3), np.float64(1.0)))
    assert rank == (2, 3, 1) and all(type(r) is int for r in rank)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_a_non_finite_rank_entry_is_a_value_error(bad):
    # an infinite entry raised OverflowError from int()
    with pytest.raises(ValueError, match="rank entries must be integers"):
        check_rank((5, 5, 5), (2, bad, 2))


def test_inf_norm_values():
    assert inf_norm(np.array([[-3.5, 2.0]])) == 3.5
    assert inf_norm(np.zeros((2, 2))) == 0.0
    assert np.copysign(1.0, inf_norm(np.array([-0.0, -0.0]))) == 1.0
    assert inf_norm(np.array([-np.inf, 1.0])) == np.inf
    assert np.isnan(inf_norm(np.array([1.0, np.nan, -np.inf])))


def test_fro_norm_across_the_float_range():
    rng = np.random.default_rng(40)
    t = rng.standard_normal((5, 6, 7))
    base = fro_norm(t)
    assert base == float(np.linalg.norm(t.reshape(-1)))  # the common path is the plain one
    for k in (-1000, -660, -500, 500, 600, 1000):
        assert fro_norm(np.ldexp(t, k)) == np.ldexp(base, k)
    assert fro_norm(np.array([3e-200, 4e-200])) == pytest.approx(5e-200, rel=1e-15)
    assert fro_norm(np.array([3e200, 4e200])) == pytest.approx(5e200, rel=1e-15)
    assert fro_norm(np.zeros((2, 3))) == 0.0
    assert fro_norm(np.array([1.0, np.inf])) == np.inf
    assert np.isnan(fro_norm(np.array([1.0, np.nan, np.inf])))


def test_sums_of_squares_raise_no_floating_point_error():
    # the plain sum of squares that the norms and the solver's per-slab sums
    # start from may overflow or underflow; that is caught by its range check
    # and retaken on a rescaled copy, and never raises or warns, even where
    # every floating-point error is made to raise
    rng = np.random.default_rng(41)
    t = rng.standard_normal((4, 5, 6))
    v, m = t.reshape(-1), t.reshape(4, -1)
    with np.errstate(all="raise"):
        assert _sumsq(t, 3) == float(np.ldexp(np.dot(v, v), -6))
        for k in (-600, 600):
            scaled = np.ldexp(t, k)
            assert _sumsq(scaled, k) == float(np.dot(v, v))
            assert _sumsq(scaled, 0) == (0.0 if k < 0 else np.inf)
            assert fro_norm(scaled) == np.ldexp(fro_norm(t), k)
            assert l2inf_norm(np.ldexp(m, k)) == np.ldexp(l2inf_norm(m), k)


def test_l2inf_norm_across_the_float_range():
    # the squared entries underflow to 0 at 2**-600 and overflow at 2**600
    m = np.eye(6)
    m[0, 1] = 2.0
    assert l2inf_norm(m) == np.sqrt(5.0)
    for k in (-600, 600):
        assert l2inf_norm(2.0**k * m) == 2.0**k * l2inf_norm(m)


def test_property_suites_reduced():
    suite_multilinear_composition(np.random.default_rng(10), 150)
    suite_matricization_identities(np.random.default_rng(11), 150)
    suite_inner_adjoint(np.random.default_rng(12), 150)
