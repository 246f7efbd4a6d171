"""Diagnostics: incoherence, condition numbers, sparsity, and error measures."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .tensor_ops import fro_norm, inf_norm, l1inf_norm, l2inf_norm, matricize, multilinear_mul
from .rpca import GRAM_CONDITION_LIMIT, _checked_gram
from .tucker import TuckerFactors, _wide_spectrum, hosvd, op_norm, reconstruct

_ORTHO_TOL = 1e-8


@dataclass
class Diagnostics:
    """Summary statistics of a low-rank + sparse instance.

    ``mu`` is the factor incoherence, ``kappa``/``kappa_s`` the joint and
    worst-case condition numbers, ``sigma_min`` the smallest matricization
    singular value read at the declared rank, ``alpha`` the measured
    per-fiber sparsity fraction of the sparse part, and
    ``singular_values`` the per-mode matricization spectra.
    """

    mu: float
    kappa: float
    kappa_s: float
    sigma_min: float
    alpha: float
    singular_values: tuple[np.ndarray, ...]


class ConditionNumbers(NamedTuple):
    kappa: float
    kappa_s: float
    sigma_min: float
    singular_values: tuple[np.ndarray, ...]


def incoherence(f: TuckerFactors) -> float:
    """Incoherence max_k (n_k / r_k) * ||U_k||_{2,inf}^2 of orthonormal factors.

    1 for perfectly spread factors, n_k / r_k for a spiky one.  Raises if any
    factor is not orthonormal to 1e-8.
    """
    worst = 0.0
    for k, u in enumerate(f.factors):
        gram = u.T @ u
        if np.abs(gram - np.eye(u.shape[1])).max() > _ORTHO_TOL:
            raise ValueError(f"factor {k} is not orthonormal (tolerance {_ORTHO_TOL})")
        n, r = u.shape
        worst = max(worst, n / r * l2inf_norm(u) ** 2)
    return worst


def condition_numbers(x: np.ndarray, rank) -> ConditionNumbers:
    """Joint and worst-case condition numbers of a tensor at a declared rank.

    With ``s_k`` the mode-k matricization spectrum, the smallest relevant
    singular value per mode is ``s_k[rank[k] - 1]``.  Then

        kappa   = min_k s_k[0] / min_k s_k[rank[k] - 1]
        kappa_s = max_k s_k[0] / min_k s_k[rank[k] - 1]

    so ``kappa <= kappa_s`` always.  ``sigma_min`` is the denominator.
    Raises on an all-zero tensor; a tensor that is rank-deficient at the
    declared rank yields infinite condition numbers.  Wide matricizations
    take their spectra from the small Gram matrix of
    :func:`~trpca.tucker._wide_spectrum`, the rest from a direct SVD; both
    work at any scale.
    """
    x = np.asarray(x, dtype=np.float64)
    rank = tuple(int(r) for r in np.atleast_1d(rank))
    if len(rank) != x.ndim:
        raise ValueError(f"rank {rank} does not match tensor order {x.ndim}")
    if fro_norm(x) == 0.0:
        raise ValueError("condition numbers are undefined for the zero tensor")
    spectra = []
    tops, bottoms = [], []
    for k, r in enumerate(rank):
        m = matricize(x, k)
        spectrum = _wide_spectrum(m)
        s = np.linalg.svd(m, compute_uv=False) if spectrum is None else spectrum[2][::-1]
        if not 1 <= r <= s.size:
            raise ValueError(f"rank[{k}]={r} out of range for shape {x.shape}")
        spectra.append(s)
        tops.append(s[0])
        bottoms.append(s[r - 1])
    sigma_min = min(bottoms)
    if sigma_min == 0.0:
        kappa = kappa_s = float("inf")
    else:
        kappa = min(tops) / sigma_min
        kappa_s = max(tops) / sigma_min
    return ConditionNumbers(float(kappa), float(kappa_s), float(sigma_min), tuple(spectra))


def sparsity_fraction(s: np.ndarray) -> float:
    """Largest fraction of nonzeros in any fiber, over all fiber directions.

    A fiber along mode k fixes every other index and varies the mode-k one;
    the mode-k fraction is the worst fiber's nonzero count over ``n_k``.
    Returns 0 for the all-zero tensor.
    """
    s = np.asarray(s)
    if s.ndim < 1:
        raise ValueError("expected an array of order >= 1")
    mask = s != 0
    if not mask.any():
        return 0.0
    worst = 0.0
    for k in range(s.ndim):
        counts = mask.sum(axis=k)
        worst = max(worst, float(np.max(counts)) / s.shape[k])
    return worst


@dataclass
class NormBoundsReport:
    """Measured norms of a sparse matrix against their sparsity bounds.

    Each pair is (measured value, bound); all ratios must be <= 1 for a
    matrix whose rows and columns are alpha-fraction sparse.
    """

    op: tuple[float, float]
    l2inf: tuple[float, float]
    l1inf: tuple[float, float]

    @staticmethod
    def _ratio(pair):
        val, bound = pair
        if bound == 0.0:
            return 0.0 if val == 0.0 else float("inf")
        return val / bound

    @property
    def ratios(self) -> tuple[float, float, float]:
        return (self._ratio(self.op), self._ratio(self.l2inf), self._ratio(self.l1inf))

    @property
    def all_hold(self) -> bool:
        return all(r <= 1.0 + 1e-12 for r in self.ratios)


def sparse_norm_bounds_check(m: np.ndarray, alpha: float) -> NormBoundsReport:
    """Check the three operator-type norm bounds of an alpha-sparse matrix.

    For an ``m x n`` matrix whose every row has at most ``alpha * n`` and
    every column at most ``alpha * m`` nonzeros:

        ||S||_op    <= alpha * sqrt(m * n) * ||S||_inf
        ||S||_{2,inf} <= sqrt(alpha * n) * ||S||_inf
        ||S||_{1,inf} <= alpha * n * ||S||_inf

    Raises if the input is not alpha-fraction sparse in that sense.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("expected a matrix")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    rows, cols = m.shape
    mask = m != 0
    tol = 1e-9
    if mask.sum(axis=1).max(initial=0) > alpha * cols + tol:
        raise ValueError("a row exceeds the alpha-fraction sparsity cap")
    if mask.sum(axis=0).max(initial=0) > alpha * rows + tol:
        raise ValueError("a column exceeds the alpha-fraction sparsity cap")
    entry = inf_norm(m)
    return NormBoundsReport(
        op=(op_norm(m), alpha * np.sqrt(rows * cols) * entry),
        l2inf=(l2inf_norm(m), np.sqrt(alpha * cols) * entry),
        l1inf=(l1inf_norm(m), alpha * cols * entry),
    )


@dataclass
class AlignmentResult:
    """Per-mode alignment matrices and the resulting scaled distance bound."""

    q: tuple[np.ndarray, ...]
    dist_upper: float


def align_factors(f: TuckerFactors, f_star: TuckerFactors) -> AlignmentResult:
    """Align ``f`` to a ground truth in normal form and bound their distance.

    ``f_star`` must be in truncated-HOSVD normal form: orthonormal factors
    and an all-orthogonal core (the mode-k core matricizations have
    orthogonal rows), so the row norms of the core matricizations are the
    tensor's singular values.  Each mode is aligned by the least-squares
    matrix ``Q_k = (U_k^T U_k)^{-1} U_k^T U*_k``; the returned value is

        sqrt( sum_k ||(U_k Q_k - U*_k) Sigma*_k||_F^2
              + ||(Q_1^{-1}, ..., Q_N^{-1}) . G - G*||_F^2 )

    an upper bound on the jointly minimized scaled distance (the per-mode
    minimizers are evaluated on a common objective rather than jointly).
    Zero iff the two factorizations describe the same tensor with the same
    subspaces, up to the alignment.  A numerically singular factor Gram
    matrix ``U_k^T U_k`` raises :class:`~trpca.rpca.SingularGramError`, a
    ``ValueError``.
    """
    if f.order != f_star.order or f.outer_dims != f_star.outer_dims or f.rank != f_star.rank:
        raise ValueError("factorizations have mismatched shapes")
    # The distance is homogeneous of degree 1 in the two cores, so it is
    # taken on both divided by 2**e near their largest entry, where the core
    # Grams and the squared norms neither overflow nor underflow.
    e = int(np.frexp(max(inf_norm(f.core), inf_norm(f_star.core)))[1])
    core, core_star = np.ldexp(f.core, -e), np.ldexp(f_star.core, -e)
    sigmas = []
    for k, u in enumerate(f_star.factors):
        if np.abs(u.T @ u - np.eye(u.shape[1])).max() > _ORTHO_TOL:
            raise ValueError(f"reference factor {k} is not orthonormal")
        g = matricize(core_star, k)
        gram = g @ g.T
        off = gram - np.diag(np.diag(gram))
        if np.abs(off).max() > _ORTHO_TOL * np.diag(gram).max():
            raise ValueError("reference core is not all-orthogonal")
        sigmas.append(np.sqrt(np.maximum(np.diag(gram), 0.0)))

    qs, inv_qs = [], []
    total = 0.0
    for k, (u, u_star) in enumerate(zip(f.factors, f_star.factors)):
        q = np.linalg.solve(_checked_gram(u.T @ u, k, "factor"), u.T @ u_star)
        if np.linalg.cond(q) > GRAM_CONDITION_LIMIT:
            raise ValueError(f"alignment matrix for mode {k} is numerically singular")
        qs.append(q)
        inv_qs.append(np.linalg.inv(q))
        total += fro_norm((u @ q - u_star) * sigmas[k][None, :]) ** 2
    total += fro_norm(multilinear_mul(inv_qs, core) - core_star) ** 2
    return AlignmentResult(q=tuple(qs), dist_upper=float(np.ldexp(np.sqrt(total), e)))


@dataclass
class ErrorReport:
    """Reconstruction error of a factorization against ground truth.

    ``inf_envelope_ratio`` rescales the entrywise error by
    ``sqrt(mu^3 * prod(rank) / prod(dims)) * sigma_min``, the natural
    entrywise scale of an incoherent low-rank tensor; along a successful
    run it tracks the same geometric decay as the Frobenius error.
    """

    rel_fro: float
    inf_error: float
    inf_envelope_ratio: float


def error_report(f: TuckerFactors, truth) -> ErrorReport:
    """Compare a factorization with a ground-truth instance."""
    x_star = np.asarray(truth.x_star, dtype=np.float64)
    diff = reconstruct(f) - x_star
    denom = fro_norm(x_star)
    rel = fro_norm(diff) / denom if denom > 0 else fro_norm(diff)
    err_inf = inf_norm(diff)
    d = truth.diagnostics
    scale = np.sqrt(d.mu ** 3 * np.prod(f.rank) / x_star.size) * d.sigma_min
    ratio = err_inf / scale if scale > 0 else float("inf") if err_inf > 0 else 0.0
    return ErrorReport(float(rel), float(err_inf), float(ratio))


def tensor_diagnostics(x: np.ndarray, rank, sparse: np.ndarray | None = None) -> Diagnostics:
    """Full diagnostics of a tensor at a declared rank.

    The incoherence is measured on the truncated-HOSVD factors of ``x``;
    ``alpha`` is the per-fiber sparsity fraction of ``sparse`` when given,
    else 0.
    """
    cond = condition_numbers(x, rank)
    mu = incoherence(hosvd(x, rank))
    alpha = sparsity_fraction(sparse) if sparse is not None else 0.0
    return Diagnostics(
        mu=float(mu),
        kappa=cond.kappa,
        kappa_s=cond.kappa_s,
        sigma_min=cond.sigma_min,
        alpha=float(alpha),
        singular_values=cond.singular_values,
    )
