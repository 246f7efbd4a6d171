"""Dense tensor algebra: matricization, multilinear products, and norms.

Tensors are plain float64 numpy arrays stored in C (row-major) order.  The
mode-``k`` matricization puts mode ``k`` on the rows and linearizes the
remaining modes in *ascending* mode order with the first remaining mode
varying fastest.  Under that column convention the matricized multilinear
product satisfies

    matricize((A1, ..., AN) . G, k) = Ak @ matricize(G, k) @ kron(AN, ..., A_{k+1}, A_{k-1}, ..., A1).T

i.e. the Kronecker factors appear in descending mode order with mode ``k``
skipped.  All routines in this module rely on that identity.
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


def _check_mode(order: int, mode: int) -> None:
    if not 0 <= mode < order:
        raise ValueError(f"mode {mode} out of range for order-{order} tensor")


def matricize(t: np.ndarray, mode: int) -> np.ndarray:
    """Unfold tensor ``t`` along ``mode`` into an ``n_mode x prod(rest)`` matrix.

    Columns run over the remaining modes in ascending order, first remaining
    mode fastest.  Inverse of :func:`tensorize`.
    """
    t = np.asarray(t)
    _check_mode(t.ndim, mode)
    return np.reshape(np.moveaxis(t, mode, 0), (t.shape[mode], -1), order="F")


def tensorize(m: np.ndarray, dims: Sequence[int], mode: int) -> np.ndarray:
    """Fold a matricization back into a tensor of shape ``dims``.

    ``m`` must have shape ``(dims[mode], prod of the other dims)``; the
    column linearization must match :func:`matricize`.
    """
    m = np.asarray(m)
    dims = tuple(int(d) for d in dims)
    _check_mode(len(dims), mode)
    rest = tuple(d for i, d in enumerate(dims) if i != mode)
    expected = (dims[mode], int(np.prod(rest)) if rest else 1)
    if m.shape != expected:
        raise ValueError(f"matricization has shape {m.shape}, expected {expected}")
    return np.moveaxis(np.reshape(m, (dims[mode], *rest), order="F"), 0, mode)


def multilinear_mul(mats: Sequence[np.ndarray | None], t: np.ndarray) -> np.ndarray:
    """Multilinear (Tucker) product ``(B1, ..., BN) . t``.

    ``mats[k]`` multiplies mode ``k``; a ``None`` entry leaves that mode
    untouched (an identity factor without materializing it).  Each ``mats[k]``
    must have ``t.shape[k]`` columns.
    """
    t = np.asarray(t)
    if len(mats) != t.ndim:
        raise ValueError(f"got {len(mats)} factor matrices for an order-{t.ndim} tensor")
    out = t
    for mode, b in enumerate(mats):
        if b is None:
            continue
        b = np.asarray(b)
        if b.ndim != 2 or b.shape[1] != out.shape[mode]:
            raise ValueError(
                f"factor for mode {mode} has shape {b.shape}, "
                f"needs {out.shape[mode]} columns"
            )
        if mode == t.ndim - 1:
            # With the tensor first, the new axis lands last, where it
            # belongs: a full expansion such as a reconstruction comes out
            # C-contiguous instead of as a transposed view.
            out = np.tensordot(out, b, axes=(mode, 1))
        else:
            out = np.moveaxis(np.tensordot(b, out, axes=(1, mode)), 0, mode)
    return out


def _scale_safe(t: np.ndarray, norm) -> float:
    """``norm(t)``, accurate for finite entries anywhere in the float range.

    ``norm`` is a square root of sums of squared entries.  Its plain value is
    returned when it is finite and above ``_FRO_TINY``.  Otherwise the
    squares may have overflowed, or underflowed enough to lose bits, and it
    is taken again on ``t`` divided by a power of two near its largest
    entry.  Non-finite entries give inf or nan.
    """
    with np.errstate(over="ignore", under="ignore"):
        n = norm(t)
        if _FRO_TINY < n < math.inf:
            return n
        m = inf_norm(t)
        if not 0.0 < m < math.inf:
            return m
        e = int(np.frexp(m)[1])
        return float(np.ldexp(norm(np.ldexp(t, -e)), e))


def fro_norm(t: np.ndarray) -> float:
    """Frobenius norm, accurate for finite entries anywhere in the float range.

    The plain ``sqrt(sum of squares)`` when it is finite and above
    ``_FRO_TINY``, else the same on the rescaled tensor (see
    :func:`_scale_safe`).  Non-finite entries give inf or nan.
    """
    v = np.asarray(t, dtype=np.float64).reshape(-1)
    return _scale_safe(v, lambda w: math.sqrt(np.dot(w, w)))


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
    return _scale_safe(m, lambda w: math.sqrt((w * w).sum(axis=1).max()))


def l1inf_norm(m: np.ndarray) -> float:
    """Largest row 1-norm of a matrix."""
    m = np.asarray(m)
    if m.ndim != 2:
        raise ValueError("l1inf_norm expects a matrix")
    return float(np.abs(m).sum(axis=1).max())
