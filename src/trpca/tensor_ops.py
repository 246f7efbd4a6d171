"""Dense tensor algebra: matricization, multilinear products, and norms.

Tensors are plain float64 numpy arrays stored in C (row-major) order.  The
mode-``k`` matricization puts mode ``k`` on the rows and linearizes the
remaining modes in *ascending* mode order with the first remaining mode
varying fastest.  Under that column convention the matricized multilinear
product satisfies

    matricize((A1, ..., AN) . G, k) = Ak @ matricize(G, k) @ kron(AN, ..., A_{k+1}, A_{k-1}, ..., A1).T

i.e. the Kronecker factors appear in descending mode order with mode ``k``
skipped.  All routines in this module rely on that identity.

Every mode product goes through one routine, :func:`_mode_product`, and every
contraction over all modes but one through its partner :func:`_mode_inner`.
Both read a C-contiguous tensor as ``(prod(dims before k), n_k, prod(dims
after k))`` without copying it, so each is one matrix product, and the mode
product's result is C-contiguous again: a chain of them, such as
:func:`multilinear_mul`, never copies a strided view.  A tensor in any other
layout gives the same result, after one copy.  :func:`multilinear_mul`
orders its modes so that the largest product of the chain is the mode-0
form ``a @ t.reshape(n_0, -1)``: last mode first when the product grows the
tensor, first mode first otherwise.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

# Below this norm, squares of the smaller entries may have underflowed by
# enough to change the sum of squares, so fro_norm rescales instead.
_FRO_TINY = 2.0**-450


def as_tensor(values, min_order: int = 1) -> np.ndarray:
    """Coerce ``values`` to a validated float64, C-contiguous ndarray.

    Raises ValueError for empty arrays, order below ``min_order``, or
    non-finite entries.  This is the single validation gate used by every
    public entry point that accepts tensor data.
    """
    a = np.ascontiguousarray(values, dtype=np.float64)
    if a.ndim < min_order:
        raise ValueError(f"expected order >= {min_order}, got order {a.ndim}")
    if a.size == 0:
        raise ValueError("tensor must have at least one element in every mode")
    if not np.all(np.isfinite(a)):
        raise ValueError("tensor entries must be finite")
    return a


def _rank_entries(values) -> tuple[int, ...]:
    """The entries of a rank as ints; ValueError for one with a fractional part."""
    values = np.atleast_1d(values)
    ints = tuple(int(v) for v in values)
    if any(i != v for i, v in zip(ints, values)):
        raise ValueError(f"rank entries must be integers, got {tuple(values.tolist())}")
    return ints


def check_rank(shape: Sequence[int], rank) -> tuple[int, ...]:
    """The multilinear rank ``rank`` of a tensor of ``shape``, as a tuple of ints.

    Raises ValueError unless it has one entry per mode and each entry is an
    integer (of any numeric type) with ``1 <= r_k <= min(n_k, prod(n) // n_k)``,
    at most the rank the mode-k matricization can have.  The one rank rule
    of every entry point.
    """
    rank = _rank_entries(rank)
    if len(rank) != len(shape):
        raise ValueError(f"rank {rank} does not match tensor order {len(shape)}")
    size = math.prod(shape)
    for k, (n, r) in enumerate(zip(shape, rank)):
        if not 1 <= r <= n or r * n > size:
            raise ValueError(
                f"rank[{k}]={r} invalid for shape {tuple(shape)}: "
                f"needs 1 <= r_k <= min(n_k, prod(n) // n_k)"
            )
    return rank


def _check_mode(order: int, mode: int) -> None:
    if not 0 <= mode < order:
        raise ValueError(f"mode {mode} out of range for order-{order} tensor")


def matricize(t: np.ndarray, mode: int) -> np.ndarray:
    """Unfold tensor ``t`` along ``mode`` into an ``n_mode x prod(rest)`` matrix.

    Columns run over the remaining modes in ascending order, first remaining
    mode fastest.
    """
    t = np.asarray(t)
    _check_mode(t.ndim, mode)
    return np.reshape(np.moveaxis(t, mode, 0), (t.shape[mode], -1), order="F")


def _mode_product(t: np.ndarray, a: np.ndarray, mode: int) -> np.ndarray:
    """The mode product ``t x_mode a``: mode ``mode`` of ``t`` is multiplied by
    ``a``, which has ``t.shape[mode]`` columns, and grows to ``a.shape[0]``.

    ``t`` is read as ``(prod(dims before mode), n_mode, prod(dims after
    mode))``, a view when it is C-contiguous (else a copy).  Mode 0 and the
    last mode are one 2-D ``@``, any other mode one ``np.matmul`` broadcast
    over the leading dims; the result is C-contiguous either way.
    """
    shape = t.shape
    n = shape[mode]
    if mode == t.ndim - 1:
        out = t.reshape(-1, n) @ a.T
    elif mode == 0:
        out = a @ t.reshape(n, -1)
    else:
        out = np.matmul(a, t.reshape(math.prod(shape[:mode]), n, -1))
    return out.reshape(shape[:mode] + (a.shape[0],) + shape[mode + 1:])


def _mode_inner(p: np.ndarray, q: np.ndarray, mode: int) -> np.ndarray:
    """``matricize(p, mode) @ matricize(q, mode).T``, for tensors whose other dims agree.

    The partner of :func:`_mode_product`, with the same ``(before, n_mode,
    after)`` reading of both tensors: mode 0 and the last mode are one 2-D
    ``@``, any other mode one broadcast ``np.matmul`` summed over the leading
    dims.
    """
    n, m = p.shape[mode], q.shape[mode]
    if mode == p.ndim - 1:
        return p.reshape(-1, n).T @ q.reshape(-1, m)
    if mode == 0:
        return p.reshape(n, -1) @ q.reshape(m, -1).T
    lead = math.prod(p.shape[:mode])
    q3 = q.reshape(lead, m, -1)
    return np.matmul(p.reshape(lead, n, -1), q3.transpose(0, 2, 1)).sum(axis=0)


def multilinear_mul(mats: Sequence[np.ndarray | None], t: np.ndarray) -> np.ndarray:
    """Multilinear (Tucker) product ``(B1, ..., BN) . t``.

    ``mats[k]`` multiplies mode ``k``; a ``None`` entry leaves that mode
    untouched (an identity factor without materializing it).  Each ``mats[k]``
    must have ``t.shape[k]`` columns.  Each mode is applied by
    :func:`_mode_product`, so unless every entry is None the result is
    C-contiguous.  The order puts mode 0, the 2-D form ``a @ t.reshape(n,
    -1)``, where the tensor is largest: a product that grows the tensor (as
    :func:`~trpca.tucker.reconstruct` does) applies the last mode first and
    mode 0 last, on the largest result; any other applies the modes in
    ascending order, mode 0 first, on the largest input.
    """
    t = np.asarray(t)
    if len(mats) != t.ndim:
        raise ValueError(f"got {len(mats)} factor matrices for an order-{t.ndim} tensor")
    steps = []
    for mode, b in enumerate(mats):
        if b is None:
            continue
        b = np.asarray(b)
        if b.ndim != 2 or b.shape[1] != t.shape[mode]:
            raise ValueError(
                f"factor for mode {mode} has shape {b.shape}, "
                f"needs {t.shape[mode]} columns"
            )
        steps.append((mode, b))
    if math.prod(m.shape[0] for _, m in steps) > math.prod(m.shape[1] for _, m in steps):
        steps.reverse()  # the product grows the tensor
    out = t
    for mode, b in steps:
        out = _mode_product(out, b, mode)
    return out


def _scale_safe(t: np.ndarray, sq) -> tuple[float, int]:
    """``sq(t)`` as a pair ``(q, e)`` with ``sq(t) == q * 4**e``, accurate for
    finite entries anywhere in the float range.

    ``sq`` is a sum of squared entries, or the largest of several such sums.
    Its plain value comes back with e = 0 when it lies in
    (``_FRO_TINY**2``, inf).  Otherwise the squares may have overflowed, or
    underflowed enough to lose bits, and ``sq`` is taken again on ``t``
    divided by ``2**e``, a power of two near the largest entry.  Non-finite
    entries give inf or nan.
    """
    with np.errstate(over="ignore", under="ignore"):
        q = sq(t)
        if _FRO_TINY * _FRO_TINY < q < math.inf:
            return q, 0
        m = inf_norm(t)
        if not 0.0 < m < math.inf:
            return m * m, 0
        e = int(np.frexp(m)[1])
        return sq(np.ldexp(t, -e)), e


def _ldexp_up(q: float | None, n: int) -> float | None:
    """``q * 2**n`` for a float ``q >= 0``, inf beyond the float range; None
    for None."""
    if q is None:
        return None
    try:
        return math.ldexp(q, n)
    except OverflowError:
        return math.inf


def _root(q: float, e: int) -> float:
    """``sqrt(q) * 2**e``, inf beyond the float range."""
    return _ldexp_up(math.sqrt(q), e)


def _dot_self(v: np.ndarray) -> float:
    # np.vdot gives np.dot's bits, but unlike np.dot it does not read the
    # floating-point flags: an overflow or underflow in it warns of nothing
    return float(np.vdot(v, v))


def _sumsq(t: np.ndarray, e: int) -> float:
    """Sum of squares of a contiguous array's entries, divided by ``4**e``.

    The plain dot product when it lies in (``_FRO_TINY**2``, inf), else the
    dot product of the array divided by ``2**e``, where the squares neither
    overflow nor lose bits to underflow (see :func:`_scale_safe`).  The
    plain case is taken here, without the ``np.errstate`` that
    :func:`_dot_self` does not need: the solver loop calls this on every
    slab, where a call's overhead is of the order of its dot product.
    """
    v = t.reshape(-1)
    q = _dot_self(v)
    if _FRO_TINY * _FRO_TINY < q < math.inf:
        return _ldexp_up(q, -2 * e)
    with np.errstate(over="ignore", under="ignore"):
        return _dot_self(np.ldexp(v, -e))


def fro_norm(t: np.ndarray) -> float:
    """Frobenius norm, accurate for finite entries anywhere in the float range.

    The plain ``sqrt(sum of squares)`` when the sum is finite and above
    ``_FRO_TINY**2``, else the same on the rescaled tensor (see
    :func:`_scale_safe`).  Non-finite entries give inf or nan.
    """
    v = np.asarray(t, dtype=np.float64).reshape(-1)
    return _root(*_scale_safe(v, _dot_self))


def inf_norm(t: np.ndarray) -> float:
    """Largest entry magnitude (nan if any entry is nan).

    Taken from the largest and smallest entries, so no ``abs`` copy of the
    tensor is made.
    """
    t = np.asarray(t)
    return abs(float(np.maximum(t.max(), -t.min()))) if t.size else 0.0


def l2inf_norm(m: np.ndarray) -> float:
    """Largest row 2-norm of a matrix, accurate anywhere in the float range.

    Rescaled like :func:`fro_norm` when the largest row's squares may have
    overflowed or underflowed.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("l2inf_norm expects a matrix")
    return _root(*_scale_safe(m, lambda w: float((w * w).sum(axis=1).max())))
