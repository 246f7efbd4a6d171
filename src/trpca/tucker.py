"""Truncated higher-order SVD and Tucker factor utilities."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .tensor_ops import _FRO_TINY, inf_norm, matricize, multilinear_mul

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

    Walks e_0, e_1, ... in order, orthogonalizes against all current columns,
    and accepts the first candidate with significant residual.  Deterministic,
    so rank-deficient inputs always produce the same basis.
    """
    n = u.shape[0]
    keep = [j for j in range(u.shape[1]) if j not in cols]
    basis = [u[:, j] for j in keep]
    next_axis = 0
    for j in cols:
        while True:
            if next_axis >= n:
                raise np.linalg.LinAlgError("could not complete an orthonormal basis")
            cand = np.zeros(n)
            cand[next_axis] = 1.0
            next_axis += 1
            for b in basis:
                cand -= np.dot(b, cand) * b
            norm = np.linalg.norm(cand)
            if norm > 0.5:
                break
        cand /= np.linalg.norm(cand)
        u[:, j] = cand
        basis.append(cand)


def _fix_signs(u: np.ndarray, v: np.ndarray | None = None) -> None:
    """Flip columns so the largest-magnitude entry of each left vector is positive.

    Ties break to the lowest index (argmax order).  ``v`` columns flip in step
    so u @ diag(s) @ v.T is unchanged.
    """
    for j in range(u.shape[1]):
        i = int(np.argmax(np.abs(u[:, j])))
        if u[i, j] < 0:
            u[:, j] = -u[:, j]
            if v is not None:
                v[:, j] = -v[:, j]


def _wide_spectrum(m: np.ndarray, vectors: bool = False):
    """Spectrum of a matrix more than 4x wider than tall, from its small Gram matrix.

    Returns None for any other shape; callers take those to a direct SVD.
    Otherwise returns ``(w, u, s)``: the ascending eigenvalues ``w`` of the
    Gram matrix ``a @ a.T`` of ``a = m / 2**e``, its eigenvectors ``u`` (the
    left singular vectors; None unless ``vectors``) and the singular values
    ``s = sqrt(w) * 2**e``.  ``e`` is 0 when the plain ``m @ m.T`` is finite
    with a trace above ``_FRO_TINY**2``; otherwise its squares may have
    overflowed, or underflowed enough to lose bits, and ``2**e`` is a power of
    two near the largest entry, as in :func:`~trpca.tensor_ops.fro_norm`.
    """
    rows, cols = m.shape
    if cols <= 4 * rows:
        return None
    e = 0
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        g = m @ m.T
        if not _FRO_TINY**2 < np.trace(g) < np.inf:
            e = int(np.frexp(inf_norm(m))[1])
            a = np.ldexp(m, -e)
            g = a @ a.T
    if vectors:
        w, u = np.linalg.eigh(g)
    else:
        w, u = np.linalg.eigvalsh(g), None
    s = np.maximum(w, 0.0)
    np.sqrt(s, out=s)
    return w, u, np.ldexp(s, e, out=s)


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
        (ties to the lowest index).  Numerically zero triplets get a
        deterministic canonical-basis completion so the output never depends
        on backend behavior for degenerate subspaces.

    Notes
    -----
    Very wide matrices go through the small Gram matrix of
    :func:`_wide_spectrum`, and the right vectors are recovered as
    ``m.T @ u / s``.  That path works at any scale but cannot resolve
    singular values below ~1.5e-7 * s_max, which come out as 0.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("thin_svd expects a matrix")
    rows, cols = m.shape
    if not 1 <= rank <= min(rows, cols):
        raise ValueError(f"rank {rank} out of range 1..{min(rows, cols)} for shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")

    spectrum = _wide_spectrum(m, vectors=True)
    if spectrum is not None:
        w, vecs, s = spectrum
        order = np.argsort(w)[::-1][:rank]
        u = vecs[:, order].copy()
        w, s = w[order], s[order]
        v = np.zeros((cols, rank))
        # The Gram matrix holds the squared singular values, and its rounding
        # floor (~eps * s_max**2) is a singular value of ~sqrt(eps) * s_max, so
        # the relative cutoff applies to the eigenvalues, not to their roots.
        dead = []
        for j in range(rank):
            if w[j] > _RANK_TOL * w[0] and w[j] > 0.0:
                v[:, j] = m.T @ u[:, j] / s[j]
            else:
                dead.append(j)
    else:
        uu, ss, vt = np.linalg.svd(m, full_matrices=False)
        u = uu[:, :rank].copy()
        s = ss[:rank].copy()
        v = vt[:rank].T.copy()
        smax = ss[0] if ss.size else 0.0
        dead = [j for j in range(rank) if not (s[j] > _RANK_TOL * smax and s[j] > 0.0)]

    if dead:
        s[dead] = 0.0
        _complete_columns(u, dead)
        _complete_columns(v, dead)
    _fix_signs(u, v)
    return SvdResult(u, s, v)


def op_norm(m: np.ndarray) -> float:
    """Spectral norm (largest singular value) of a matrix."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("op_norm expects a matrix")
    spectrum = _wide_spectrum(m)
    if spectrum is None:
        spectrum = _wide_spectrum(m.T)
    if spectrum is not None:
        return float(spectrum[2][-1])
    return float(np.linalg.svd(m, compute_uv=False)[0])


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


def hosvd(t: np.ndarray, rank) -> TuckerFactors:
    """Rank-truncated higher-order SVD.

    Each factor holds the top-``rank[k]`` left singular vectors of the mode-k
    matricization; the core is the projection of ``t`` onto those subspaces.
    A zero (or rank-deficient) tensor yields canonical-basis factors and a
    zero core, so the output is deterministic for every input.
    """
    t = np.asarray(t, dtype=np.float64)
    rank = tuple(int(r) for r in np.atleast_1d(rank))
    if len(rank) != t.ndim:
        raise ValueError(f"rank {rank} does not match tensor order {t.ndim}")
    size = t.size
    for k, r in enumerate(rank):
        if not 1 <= r <= min(t.shape[k], size // t.shape[k]):
            raise ValueError(f"rank[{k}]={r} invalid for shape {t.shape}")
    factors = tuple(thin_svd(matricize(t, k), rank[k]).u for k in range(t.ndim))
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
