"""Diagnostics: incoherence, sparsity, and the one measure of a tensor at a
declared rank, :func:`tensor_diagnostics`."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor_ops import check_rank, inf_norm, l2inf_norm
from .tucker import TuckerFactors, _spectrum, _unfolding

_ORTHO_TOL = 1e-8


@dataclass
class Diagnostics:
    """Summary statistics of a low-rank + sparse instance.

    ``mu`` is the factor incoherence, ``kappa``/``kappa_s`` the joint and
    worst-case condition numbers, ``sigma_min`` the smallest matricization
    singular value read at the declared rank, ``alpha`` the per-fiber
    sparsity fraction of the sparse part, and ``singular_values`` the
    per-mode matricization spectra, exactly 0 where numerically zero.
    :func:`tensor_diagnostics` measures them on a tensor;
    :func:`~trpca.synth.gen_truth` reports the values its construction
    fixes.
    """

    mu: float
    kappa: float
    kappa_s: float
    sigma_min: float
    alpha: float
    singular_values: tuple[np.ndarray, ...]


def incoherence(f: TuckerFactors) -> float:
    """Incoherence max_k (n_k / r_k) * ||U_k||_{2,inf}^2 of orthonormal factors.

    1 for perfectly spread factors, n_k / r_k for a spiky one.  Raises if any
    factor is not orthonormal to 1e-8.
    """
    return _incoherence(f.factors)


def _incoherence(factors) -> float:
    """:func:`incoherence` of the factor matrices alone."""
    worst = 0.0
    for k, u in enumerate(factors):
        gram = u.T @ u
        if np.abs(gram - np.eye(u.shape[1])).max() > _ORTHO_TOL:
            raise ValueError(f"factor {k} is not orthonormal (tolerance {_ORTHO_TOL})")
        n, r = u.shape
        worst = max(worst, n / r * l2inf_norm(u) ** 2)
    return worst


def sparsity_fraction(s: np.ndarray) -> float:
    """Largest fraction of nonzeros in any fiber, over all fiber directions.

    A fiber along mode k fixes every other index and varies the mode-k one;
    the mode-k fraction is the worst fiber's nonzero count over ``n_k``.
    Returns 0 for the all-zero tensor.  A boolean array is read as the
    support itself, without a copy.
    """
    s = np.asarray(s)
    if s.ndim < 1:
        raise ValueError("expected an array of order >= 1")
    mask = s if s.dtype == bool else s != 0
    if not mask.any():
        return 0.0
    worst = 0.0
    for k in range(s.ndim):
        counts = mask.sum(axis=k)
        worst = max(worst, float(np.max(counts)) / s.shape[k])
    return worst


def tensor_diagnostics(x: np.ndarray, rank, sparse: np.ndarray | None = None) -> Diagnostics:
    """Full diagnostics of a tensor at a declared rank, measured on the tensor.

    With ``s_k`` the mode-k matricization spectrum, the smallest relevant
    singular value per mode is ``s_k[rank[k] - 1]``.  Then

        sigma_min = min_k s_k[rank[k] - 1]
        kappa     = min_k s_k[0] / sigma_min
        kappa_s   = max_k s_k[0] / sigma_min

    so ``kappa <= kappa_s`` always.  ``mu`` is the incoherence of the
    truncated-HOSVD factors of ``x``, with the bits of
    :func:`~trpca.tucker.hosvd`'s.  Each mode's spectrum and factor come
    from one decomposition, :func:`~trpca.tucker._spectrum` of the
    unfolding that ``hosvd`` reads (a reshape view for mode 0 and the last
    mode, whose columns are the matricization's in another order); the
    HOSVD core, which ``mu`` does not read, is never formed.  The spectra
    are exact at any scale and read 0 where numerically zero, so a tensor
    that is rank-deficient at the declared rank yields ``sigma_min`` 0 and
    infinite condition numbers, as does one with ``sigma_min`` below
    ~1.5e-7 * s_max in a wide unfolding.  ``alpha`` is the per-fiber
    sparsity fraction of ``sparse`` when given, else 0.  Raises on an
    all-zero or non-finite tensor.
    """
    x = np.asarray(x, dtype=np.float64)
    rank = check_rank(x.shape, rank)
    top = inf_norm(x)
    if top == 0.0:
        raise ValueError("condition numbers are undefined for the zero tensor")
    if not math.isfinite(top):
        raise ValueError("tensor entries must be finite")
    spectra, factors = zip(*(_spectrum(_unfolding(x, k), r) for k, r in enumerate(rank)))
    tops = [s[0] for s in spectra]
    sigma_min = min(s[r - 1] for s, r in zip(spectra, rank))
    if sigma_min == 0.0:
        kappa = kappa_s = math.inf
    else:
        kappa, kappa_s = min(tops) / sigma_min, max(tops) / sigma_min
    alpha = sparsity_fraction(sparse) if sparse is not None else 0.0
    return Diagnostics(
        mu=float(_incoherence(factors)),
        kappa=float(kappa),
        kappa_s=float(kappa_s),
        sigma_min=float(sigma_min),
        alpha=float(alpha),
        singular_values=spectra,
    )
