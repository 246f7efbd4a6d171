"""Truncated higher-order SVD and Tucker factor utilities."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .tensor_ops import _FRO_TINY, check_rank, inf_norm, matricize, multilinear_mul

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


def _fix_signs(u: np.ndarray, v: np.ndarray | None = None) -> None:
    """Flip columns so the largest-magnitude entry of each left vector is positive.

    Ties break to the lowest index (argmax order).  ``v`` columns flip in step
    so u @ diag(s) @ v.T is unchanged.
    """
    flip = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])] < 0
    u[:, flip] = -u[:, flip]
    if v is not None:
        v[:, flip] = -v[:, flip]


def _right_vectors(m: np.ndarray, u: np.ndarray, s: np.ndarray) -> np.ndarray:
    """``m.T @ u / s`` in one product, with a zero column wherever ``s`` is 0."""
    live = s > 0.0
    v = np.zeros((m.shape[1], len(s)))
    v[:, live] = (m.T @ u[:, live]) / s[live]
    return v


def _spectrum(m: np.ndarray, rank: int) -> tuple[np.ndarray, SvdResult]:
    """Descending singular values of a matrix, 0 where numerically zero, and
    its top-``rank`` triplets as :func:`thin_svd` gives them, except that
    ``v`` is None on the Gram path unless a triplet is zero; both from one
    decomposition.

    A matrix more than 4x wider than tall goes through one ``eigh`` of its
    small Gram matrix ``a @ a.T`` of ``a = m / 2**e``: the singular values
    are ``sqrt(w) * 2**e`` for its eigenvalues ``w`` and its eigenvectors are
    the left vectors.  ``e`` is 0 when the plain ``m @ m.T`` is finite with a
    trace above ``_FRO_TINY**2``; otherwise its squares may have overflowed,
    or underflowed enough to lose bits, and ``2**e`` is a power of two near
    the largest entry, as in :func:`~trpca.tensor_ops.fro_norm`.  The right
    vectors ``m.T @ u / s`` take one more pass over ``m``, so the Gram path
    leaves them to the caller that wants them (:func:`thin_svd`; not
    :func:`hosvd`), and forms them itself only when a zero triplet needs
    them for its completion.  Any other matrix goes to one direct SVD.  A
    value is numerically zero unless the decomposition's output (an
    eigenvalue, or a singular value) exceeds ``_RANK_TOL`` times the
    largest.  An eigenvalue is a square, whose rounding floor is a singular
    value of ~sqrt(eps) * s_max, so the Gram path resolves none below
    ~1.5e-7 * s_max.
    """
    rows, cols = m.shape
    v = e = None
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
        uu, raw, vt = np.linalg.svd(m, full_matrices=False)
        u, v = uu[:, :rank].copy(), vt[:rank].T.copy()
    dead = ~((raw > _RANK_TOL * raw[0]) & (raw > 0.0))
    values = raw if e is None else np.ldexp(np.sqrt(np.maximum(raw, 0.0)), e)
    values[dead] = 0.0
    s, dead = values[:rank].copy(), np.flatnonzero(dead[:rank]).tolist()
    if dead:
        if v is None:
            v = _right_vectors(m, u, s)
        _complete_columns(u, dead)
        _complete_columns(v, dead)
    _fix_signs(u, v)
    return values, SvdResult(u, s, v)


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
        :func:`_spectrum` computes them from one ``eigh`` or one SVD, at
        any scale; a very wide matrix cannot resolve singular values below
        ~1.5e-7 * s_max.  On its Gram path the right vectors are
        ``m.T @ u / s``, formed here in one product after the signs of
        ``u`` are fixed.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("thin_svd expects a matrix")
    rank = check_rank(m.shape, (rank, rank))[0]
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    u, s, v = _spectrum(m, rank)[1]
    return SvdResult(u, s, _right_vectors(m, u, s) if v is None else v)


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


def hosvd(t: np.ndarray, rank) -> TuckerFactors:
    """Rank-truncated higher-order SVD.

    Each factor holds the top-``rank[k]`` left singular vectors of the mode-k
    matricization, as :func:`thin_svd` gives them, read from
    :func:`_unfolding` (no copy for mode 0 and the last mode) without
    forming right vectors; the core is the projection of ``t`` onto those
    subspaces.  A factor column whose singular value is numerically zero is
    the canonical axis the columns before it cover least, orthogonalized
    against them, so a zero tensor yields the leading canonical axes and a
    zero core, and the output is deterministic for every input.
    """
    t = np.asarray(t, dtype=np.float64)
    rank = check_rank(t.shape, rank)
    if not math.isfinite(inf_norm(t)):
        raise ValueError("tensor entries must be finite")
    factors = tuple(_spectrum(_unfolding(t, k), r)[1].u for k, r in enumerate(rank))
    core = multilinear_mul([u.T for u in factors], t)
    return TuckerFactors(factors, core)


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
