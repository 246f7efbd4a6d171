"""Truncated higher-order SVD and Tucker factor utilities."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .tensor_ops import (
    _FRO_TINY,
    _mode_product,
    check_rank,
    inf_norm,
    matricize,
    multilinear_mul,
)

# Relative cutoff below which a singular triplet counts as numerically zero
# and its vectors are replaced by a deterministic orthonormal completion.
_RANK_TOL = 100 * np.finfo(np.float64).eps


class SvdResult(NamedTuple):
    """Leading singular triplets: ``u`` (rows x r), ``s`` (r,), ``v`` (cols x r)."""

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray


def _complete_columns(u: np.ndarray, cols: list[int]) -> None:
    """Fill the listed columns of ``u`` with canonical-basis completions.

    With ``B`` the orthonormal columns so far, the residual of the canonical
    axis ``e_i`` against them has squared norm ``1 - ||B[i, :]||**2``.  Each
    listed column takes the axis with the smallest row norm of ``B`` (the
    largest residual), the lowest index on a tie: ``e_i - B @ B[i, :]``,
    orthogonalized against ``B`` once more, normalized and appended to
    ``B``.  With ``d`` directions missing from R^n that residual is at least
    ``sqrt(d / n)``.  Deterministic, so rank-deficient inputs always produce
    the same basis.
    """
    basis = u[:, [j for j in range(u.shape[1]) if j not in cols]]
    for j in cols:
        i = int(np.argmin(np.einsum("ij,ij->i", basis, basis)))
        cand = -(basis @ basis[i])
        cand[i] += 1.0
        cand -= basis @ (basis.T @ cand)
        cand /= np.linalg.norm(cand)
        u[:, j] = cand
        basis = np.column_stack((basis, cand))


def _fix_signs(u: np.ndarray) -> None:
    """Flip columns so the largest-magnitude entry of each is positive.

    Ties break to the lowest index (argmax order).
    """
    flip = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])] < 0
    u[:, flip] = -u[:, flip]


def _right_vectors(m: np.ndarray, u: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The right vectors of ``m``'s triplets ``(u, s)``: ``m.T @ u / s`` in
    one product, re-orthonormalized, and a completion wherever ``s`` is 0.

    The product loses orthonormality as the square of ``s_max / s_j``, so its
    live columns go through one QR, each column keeping its sign (the
    diagonal of R made positive).  The columns come in descending ``s``, so
    the QR keeps the most accurate ones first.  A zero triplet's column is
    completed as its left vector is (:func:`_complete_columns`).
    """
    live = s > 0.0
    v = np.zeros((m.shape[1], len(s)))
    q, r = np.linalg.qr((m.T @ u[:, live]) / s[live])
    v[:, live] = q * np.where(np.diagonal(r) < 0.0, -1.0, 1.0)
    _complete_columns(v, np.flatnonzero(~live).tolist())
    return v


def _spectrum(m: np.ndarray, rank: int) -> tuple[np.ndarray, np.ndarray]:
    """Descending singular values of a matrix, 0 where numerically zero, and
    its top-``rank`` left singular vectors, with the signs and completions
    :func:`thin_svd` documents, from one decomposition; no right vector.

    A matrix more than 4x wider than tall goes through one ``eigh`` of its
    small Gram matrix ``a @ a.T`` of ``a = m / 2**e``: the singular values
    are ``sqrt(w) * 2**e`` for its eigenvalues ``w`` and its eigenvectors are
    the left vectors.  ``e`` is 0 when the plain ``m @ m.T`` is finite with a
    trace above ``_FRO_TINY**2``; otherwise its squares may have overflowed,
    or underflowed enough to lose bits, and ``2**e`` is a power of two near
    the largest entry, as in :func:`~trpca.tensor_ops.fro_norm`.  Any other
    matrix goes to one direct SVD.  A value is numerically zero unless the
    decomposition's output (an eigenvalue, or a singular value) exceeds
    ``_RANK_TOL`` times the largest.  An eigenvalue is a square, whose
    rounding floor is a singular value of ~sqrt(eps) * s_max, so the Gram
    path resolves none below ~1.5e-7 * s_max.
    """
    rows, cols = m.shape
    e = None
    if cols > 4 * rows:
        e = 0
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            g = m @ m.T
            if not _FRO_TINY**2 < np.trace(g) < np.inf:
                e = int(np.frexp(inf_norm(m))[1])
                a = np.ldexp(m, -e)
                g = a @ a.T
        w, vecs = np.linalg.eigh(g)
        order = np.argsort(w)[::-1]
        raw = w[order]
        u = vecs[:, order[:rank]].copy()
    else:
        uu, raw = np.linalg.svd(m, full_matrices=False)[:2]
        u = uu[:, :rank].copy()
    dead = ~((raw > _RANK_TOL * raw[0]) & (raw > 0.0))
    values = raw if e is None else np.ldexp(np.sqrt(np.maximum(raw, 0.0)), e)
    values[dead] = 0.0
    _complete_columns(u, np.flatnonzero(dead[:rank]).tolist())
    _fix_signs(u)
    return values, u


def thin_svd(m: np.ndarray, rank: int) -> SvdResult:
    """Top-``rank`` singular triplets of a matrix with deterministic signs.

    Parameters
    ----------
    m : ndarray
        Matrix with finite entries.
    rank : int
        Number of leading triplets, ``1 <= rank <= min(m.shape)``.

    Returns
    -------
    SvdResult
        ``u`` and ``v`` have orthonormal columns; ``s`` is nonincreasing and
        nonnegative.  Each left vector's largest-magnitude entry is positive
        (ties to the lowest index).  Numerically zero triplets have ``s``
        exactly 0, and each of their ``u`` and ``v`` columns is the canonical
        axis the columns before it cover least (the lowest index on a tie),
        orthogonalized against them (:func:`_complete_columns`), so the
        output never depends on backend behavior for degenerate subspaces.
        ``u`` and ``s`` come from one ``eigh`` or one SVD (:func:`_spectrum`),
        at any scale; a very wide matrix cannot resolve singular values
        below ~1.5e-7 * s_max.  ``v`` is :func:`_right_vectors`' on both
        paths, the package's only right vectors.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("thin_svd expects a matrix")
    rank = check_rank(m.shape, (rank, rank))[0]
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    values, u = _spectrum(m, rank)
    return SvdResult(u, values[:rank], _right_vectors(m, u, values[:rank]))


@dataclass
class TuckerFactors:
    """A Tucker pair: per-mode factor matrices and a core tensor.

    ``factors[k]`` has shape ``(n_k, r_k)`` and ``core`` has shape
    ``(r_1, ..., r_N)``.  Factors are not required to be orthonormal; the
    iterative solver deliberately works with non-orthonormal factors.
    """

    factors: tuple[np.ndarray, ...]
    core: np.ndarray

    def __post_init__(self):
        self.factors = tuple(np.asarray(u, dtype=np.float64) for u in self.factors)
        self.core = np.asarray(self.core, dtype=np.float64)
        if len(self.factors) != self.core.ndim:
            raise ValueError(
                f"{len(self.factors)} factors for an order-{self.core.ndim} core"
            )
        for k, u in enumerate(self.factors):
            if u.ndim != 2 or u.shape[1] != self.core.shape[k]:
                raise ValueError(
                    f"factor {k} has shape {u.shape}, core wants {self.core.shape[k]} columns"
                )

    @classmethod
    def _unchecked(cls, factors: tuple[np.ndarray, ...], core: np.ndarray) -> "TuckerFactors":
        """A pair from arrays that already pass :meth:`__post_init__`'s checks.

        For the solver loop, whose iterates are float64 arrays of the shapes
        of the checked pair they were made from; it skips the checks.
        """
        f = object.__new__(cls)
        f.factors, f.core = factors, core
        return f

    @property
    def order(self) -> int:
        return self.core.ndim

    @property
    def outer_dims(self) -> tuple[int, ...]:
        return tuple(u.shape[0] for u in self.factors)

    @property
    def rank(self) -> tuple[int, ...]:
        return self.core.shape

    def copy(self) -> "TuckerFactors":
        return TuckerFactors(tuple(u.copy() for u in self.factors), self.core.copy())


def _unfolding(t: np.ndarray, mode: int) -> np.ndarray:
    """A matrix with the left singular vectors and singular values of ``matricize(t, mode)``.

    For mode 0 and the last mode that is a reshape of ``t`` (a view when
    ``t`` is C-contiguous), whose columns are those of the matricization in
    another order; any other mode is :func:`~trpca.tensor_ops.matricize`, a copy.
    """
    if mode == 0:
        return t.reshape(t.shape[0], -1)
    if mode == t.ndim - 1:
        return t.reshape(-1, t.shape[-1]).T
    return matricize(t, mode)


def _hosvd(y: np.ndarray, rank, bound: float, e: int) -> TuckerFactors:
    """``hosvd(clip(y, -bound, bound) / 2**e, rank)`` with the core times
    ``2**e``, bit for bit, for a finite ``y`` and a rank that fits it.

    One full tensor is held at a time besides ``y``: the clip serves mode 0
    and the last mode from views (:func:`_unfolding`) and the core's first
    product, and is released before each middle unfolding, in turn, is copied
    from ``y`` by :func:`~trpca.tensor_ops.matricize` and clipped and scaled
    in place.  Where ``matricize`` returns a view of ``y``, as for some
    shapes with size-1 modes such as (1, 12, 40), the clip goes into a new
    array, so ``y`` is never written.  The core's other products follow in
    ascending mode order, as :func:`~trpca.tensor_ops.multilinear_mul` takes
    a product that shrinks.
    """
    c = np.clip(y, -bound, bound)
    np.ldexp(c, -e, out=c)
    u0, u_last = (_spectrum(_unfolding(c, k), rank[k])[1] for k in (0, y.ndim - 1))
    p = _mode_product(c, u0.T, 0)
    del c
    middle = []
    for k in range(1, y.ndim - 1):
        m = matricize(y, k)
        m = np.clip(m, -bound, bound, out=None if np.may_share_memory(m, y) else m)
        middle.append(_spectrum(np.ldexp(m, -e, out=m), rank[k])[1])
        del m
    factors = (u0, *middle, u_last)[: y.ndim]  # order 1: mode 0 is the last mode
    for k in range(1, y.ndim):
        p = _mode_product(p, factors[k].T, k)
    return TuckerFactors(factors, np.ldexp(p, e))


def hosvd(t: np.ndarray, rank) -> TuckerFactors:
    """Rank-truncated higher-order SVD.

    Each factor holds the top-``rank[k]`` left singular vectors of the mode-k
    matricization, :func:`thin_svd`'s ``u``, formed without a right vector.
    The core is the projection of ``t`` onto those subspaces.  A factor
    column whose singular value is numerically zero is the canonical axis
    the columns before it cover least, orthogonalized against them, so a
    zero tensor yields the leading canonical axes and a zero core, and the
    output is deterministic for every input.

    This is the spectral initialization's routine (:func:`_hosvd`) at a bound
    that clips nothing, so mode 0 and the last mode are read from one copy
    of ``t`` and each middle mode from its ``matricize`` copy: one more
    pass, and a peak of one tensor above ``t``, which for order 1 and 2,
    with no middle mode to copy, is one tensor more than views of ``t``
    would hold.
    """
    t = np.asarray(t, dtype=np.float64)
    rank = check_rank(t.shape, rank)
    bound = inf_norm(t)
    if not math.isfinite(bound):
        raise ValueError("tensor entries must be finite")
    return _hosvd(t, rank, bound, 0)


def reconstruct(f: TuckerFactors) -> np.ndarray:
    """Expand a Tucker pair back into a dense tensor."""
    return multilinear_mul(f.factors, f.core)


def breve_factor(f: TuckerFactors, mode: int) -> np.ndarray:
    """Co-factor of ``mode``: the matrix B with matricize(X, mode) = U_mode @ B.T.

    Equals ``kron(U_N, ..., skipping mode, ..., U_1) @ matricize(core, mode).T``
    but is computed as a multilinear product with an identity slot at ``mode``,
    which avoids materializing the Kronecker product.  Shape is
    ``(prod of other outer dims, r_mode)``.

    The solver never forms B: :func:`~trpca.rpca.scaled_step` computes the
    products it needs with B in r-space.  This function stays as the
    reference those products are tested against.
    """
    if not 0 <= mode < f.order:
        raise ValueError(f"mode {mode} out of range for order-{f.order} factors")
    mats = [u if k != mode else None for k, u in enumerate(f.factors)]
    return matricize(multilinear_mul(mats, f.core), mode).T
