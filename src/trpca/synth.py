"""Synthetic low-rank + sparse instances and parameter sweeps.

Ground-truth tensors are built from orthonormal factors (QR of standard
Gaussians with a deterministic sign convention) and a superdiagonal core
whose entries decay geometrically from 1 down to ``1/kappa``, so every
mode-k matricization has singular values exactly ``kappa**(-(i)/(r-1))``
and the instance hits the requested condition number by construction.

Corruption is alpha-fraction sparse: no fiber along mode k holds more
than its cap ``c_k = floor(alpha * n_k)`` entries.  One randomized cyclic
design meets every cap for every shape.  It picks the mode k with the
smallest ``c_k / n_k`` (the last such mode on ties), puts an entry wherever
``(i_k - sum_{j != k} i_j) mod n_k`` is one of ``c_k`` shifts, and permutes
every axis uniformly at random.  Each mode-k fiber meets every residue
once, so it holds exactly ``c_k`` entries and the support is exactly
``c_k / n_k`` of the tensor.  A fiber along another mode j sees ``n_j``
consecutive residues.  When ``n_k`` divides every dim those cover each
residue ``n_j / n_k`` times, so any ``c_k`` distinct random shifts do.
Otherwise the shifts are the evenly spread residues ``m * n_k // c_k``
under one random offset, and any window of ``n_j`` consecutive residues
holds at most ``ceil(n_j * c_k / n_k) <= c_j`` of them.  Either way every
cap holds.

When ``alpha * n_k < 1`` for some mode, any corruption at all would break
that mode's cap; the generator refuses such alphas (except alpha = 0).
The achieved entry fraction, ``min_k c_k / n_k``, is reported on the result.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .metrics import Diagnostics, incoherence, sparsity_fraction
from .rpca import SolverConfig, solve
from .tensor_ops import _rank_entries, check_rank
from .tucker import TuckerFactors, _fix_signs, reconstruct


@dataclass
class GroundTruth:
    """A generated instance: truth tensors, factors, and their statistics.

    ``diagnostics`` holds the statistics the construction fixes, not a
    measurement: every spectrum is the core diagonal padded with zeros, so
    ``kappa = kappa_s`` is its first entry over its last and ``sigma_min``
    its last, exactly, at any kappa.  ``mu`` is the incoherence of the
    orthonormal factors and ``alpha`` the per-fiber sparsity fraction of the
    drawn support.  A measurement of ``x_star``
    (:func:`~trpca.metrics.tensor_diagnostics`) agrees to rounding while the
    spectra are resolved, and reads ``sigma_min`` 0 below its floor.

    ``entry_fraction`` is the achieved fraction of corrupted entries,
    exactly ``min_k floor(alpha * n_k) / n_k``: the requested alpha when
    every ``alpha * n_k`` is an integer, below it when a cap rounds down
    (see the module docstring).
    """

    x_star: np.ndarray
    s_star: np.ndarray
    factors: TuckerFactors
    diagnostics: Diagnostics
    seed: object
    entry_fraction: float

    @property
    def y(self) -> np.ndarray:
        """The observation: low-rank truth plus corruption."""
        return self.x_star + self.s_star


def _as_rng(seed) -> tuple[np.random.Generator, object]:
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed), seed.entropy
    seed = int(seed)
    return np.random.default_rng(np.random.SeedSequence(seed)), seed


def sample_support(dims, alpha: float, rng: np.random.Generator) -> np.ndarray:
    """Boolean corruption support meeting every per-fiber cap, at an exact fraction.

    No fiber along any mode ever holds more than ``floor(alpha * n_k)``
    entries, and the support holds exactly ``min_k floor(alpha * n_k) / n_k``
    of all entries (see the module docstring for the construction).  Raises
    for an alpha outside [0, 1] and when alpha > 0 permits no entries at all
    in some mode.
    """
    dims = tuple(int(d) for d in dims)
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    if alpha == 0.0:
        return np.zeros(dims, dtype=bool)
    caps = [int(np.floor(alpha * d + 1e-9)) for d in dims]
    if any(c == 0 for c in caps):
        k = caps.index(0)
        raise ValueError(
            f"alpha={alpha} allows no corrupted entries per length-{dims[k]} fiber "
            f"(cap floor(alpha*n)=0); use alpha >= 1/min(dims) or alpha = 0"
        )
    k = 0  # the mode with the smallest caps[k] / dims[k], the last on ties
    for j in range(len(dims)):
        if caps[j] * dims[k] <= caps[k] * dims[j]:
            k = j
    n, cap = dims[k], caps[k]
    if all(d % n == 0 for d in dims):
        shifts = rng.choice(n, size=cap, replace=False)
    else:
        shifts = (np.arange(cap) * n // cap + rng.integers(n)) % n
    perms = [rng.permutation(d) for d in dims]
    others = [j for j in range(len(dims)) if j != k]
    idx = np.indices([dims[j] for j in others])
    total = idx.sum(axis=0)
    coords = [None] * len(dims)
    for pos, j in enumerate(others):
        coords[j] = perms[j][idx[pos]]
    mask = np.zeros(dims, dtype=bool)
    for shift in shifts:
        coords[k] = perms[k][(total + shift) % n]
        mask[tuple(coords)] = True
    return mask


def _check_args(dims, rank, kappa: float, alpha: float) -> tuple[tuple[int, ...], int]:
    """:func:`gen_truth`'s rules for each argument on its own; returns the
    dims and the rank as ints.  Whether an alpha leaves an entry to corrupt
    depends on the dims too, which :func:`sample_support` checks."""
    dims = tuple(int(d) for d in np.atleast_1d(dims))
    if len(dims) < 3:
        raise ValueError(f"expected order >= 3, got dims {dims}")
    r = check_rank(dims, (rank,) * len(dims))[0]
    if not 1.0 <= kappa < math.inf:  # an infinite one zeroes a core entry
        raise ValueError(f"kappa must be finite and >= 1, got {kappa}")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    return dims, r


def gen_truth(
    dims,
    rank: int,
    kappa: float,
    alpha: float,
    corruption_scale="mean-abs",
    seed=0,
) -> GroundTruth:
    """Generate a random low-rank + sparse instance with known statistics.

    The statistics on the result are the constructed ones (see
    :class:`GroundTruth`); none is measured on the dense tensors.

    Parameters
    ----------
    dims : sequence of int
        Tensor shape, order >= 3.  Every dim must be >= rank.
    rank : int
        Common multilinear rank r of every mode.  The superdiagonal core
        construction needs the same rank in all modes; unequal target
        ranks would silently degenerate to the smallest one.
    kappa : float
        Condition number, finite and >= 1.  Core entries are
        kappa**(-(i)/(r-1)).
    alpha : float
        Per-fiber corruption fraction in [0, 1]: every fiber along mode k
        holds at most ``floor(alpha * n_k)`` corrupted entries, and the
        entry fraction is exactly the smallest of those caps over ``n_k``
        (see the module docstring).
    corruption_scale : "mean-abs" or float
        Corruption values are uniform on [-m, m] with m the mean entry
        magnitude of the low-rank truth ("mean-abs"), or the given value,
        which must be finite and positive.
    seed : int or numpy.random.SeedSequence
        Source of all randomness; equal seeds give bit-identical output.
    """
    dims, r = _check_args(dims, rank, kappa, alpha)
    if corruption_scale != "mean-abs" and not 0.0 < float(corruption_scale) < math.inf:
        raise ValueError(f"corruption scale must be finite and positive, got {corruption_scale}")
    rng, seed_record = _as_rng(seed)

    factors = []
    for d in dims:
        q, _ = np.linalg.qr(rng.standard_normal((d, r)))
        q = np.ascontiguousarray(q)
        _fix_signs(q)
        factors.append(q)
    diag = np.ones(r) if r == 1 else kappa ** (-np.arange(r) / (r - 1))
    core = np.zeros((r,) * len(dims))
    core[tuple(np.arange(r) for _ in dims)] = diag
    f_star = TuckerFactors(tuple(factors), core)
    x_star = reconstruct(f_star)

    mask = sample_support(dims, alpha, rng)
    count = int(mask.sum())
    s_star = np.zeros(dims)
    if count:
        if corruption_scale == "mean-abs":
            m = float(np.abs(x_star).mean())
        else:
            m = float(corruption_scale)
        s_star[mask] = rng.uniform(-m, m, size=count)

    # every unfolding's spectrum is the core diagonal, padded with zeros to
    # the unfolding's rank bound
    cond = float(diag[0] / diag[-1])
    diagnostics = Diagnostics(
        mu=float(incoherence(f_star)),
        kappa=cond,
        kappa_s=cond,
        sigma_min=float(diag[-1]),
        alpha=sparsity_fraction(mask),
        singular_values=tuple(np.pad(diag, (0, min(d, x_star.size // d) - r)) for d in dims),
    )
    return GroundTruth(
        x_star=x_star,
        s_star=s_star,
        factors=f_star,
        diagnostics=diagnostics,
        seed=seed_record,
        entry_fraction=count / x_star.size,
    )


@dataclass
class SweepSpec:
    """Grid definition for :func:`run_sweep`.

    Cells are the cross product of the four grids, visited in the order
    (n, rank, alpha, kappa) with the last grid varying fastest.  Every
    trial derives its own seed from ``(seed, cell indices, trial)``, so
    identical specs reproduce bit-identical results and individual cells
    are independent of the rest of the grid.
    """

    n_grid: tuple[int, ...]
    rank_grid: tuple[int, ...]
    alpha_grid: tuple[float, ...]
    kappa_grid: tuple[float, ...]
    trials: int = 3
    eta: float = SolverConfig.eta
    rho: float | None = None
    max_iters: int = SolverConfig.max_iters
    stop_tol: float = SolverConfig.stop_tol
    seed: int = 0

    def __post_init__(self):
        self.n_grid = tuple(int(v) for v in np.atleast_1d(self.n_grid))
        self.rank_grid = _rank_entries(self.rank_grid)
        self.alpha_grid = tuple(float(v) for v in np.atleast_1d(self.alpha_grid))
        self.kappa_grid = tuple(float(v) for v in np.atleast_1d(self.kappa_grid))
        for name in ("n_grid", "rank_grid", "alpha_grid", "kappa_grid"):
            if not getattr(self, name):
                raise ValueError(f"{name} must be non-empty")
        # each grid value is checked on its own, with every other argument
        # at a value any instance admits; combinations that fail, such as r
        # above n, stay per-cell failures
        for n in self.n_grid:
            _check_args((n,) * 3, 1, 1.0, 0.0)
        for r in self.rank_grid:
            _check_args((r,) * 3, r, 1.0, 0.0)
        for alpha in self.alpha_grid:
            _check_args((1,) * 3, 1, 1.0, alpha)
        for kappa in self.kappa_grid:
            _check_args((1,) * 3, 1, kappa, 0.0)
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        # the solver settings are checked by the config every trial builds
        SolverConfig(rank=(1,), eta=self.eta, rho=self.rho,
                     max_iters=self.max_iters, stop_tol=self.stop_tol)


@dataclass
class SweepCell:
    """Aggregated result of one grid cell (medians over successful trials)."""

    n: int
    rank: int
    alpha: float
    kappa: float
    median_rel_error: float
    median_iterations: float
    seconds: float
    failures: int


def run_sweep(spec: SweepSpec) -> list[SweepCell]:
    """Run the solver over a synthetic parameter grid.

    Each trial generates a fresh instance, solves it with oracle
    thresholds (the ground truth is available, so the schedule uses the
    true incoherence and smallest singular value), and records the final
    relative error and the number of iterations executed.  Trial failures
    (infeasible generation, singular Gram matrices, divergence) are
    counted per cell, never raised.
    """
    cells = []
    for i_n, n in enumerate(spec.n_grid):
        for i_r, r in enumerate(spec.rank_grid):
            for i_a, alpha in enumerate(spec.alpha_grid):
                for i_k, kappa in enumerate(spec.kappa_grid):
                    start = time.perf_counter()
                    rels, iters, failures = [], [], 0
                    for trial in range(spec.trials):
                        cell_seed = np.random.SeedSequence(
                            (spec.seed, i_n, i_r, i_a, i_k, trial)
                        )
                        try:
                            truth = gen_truth((n,) * 3, r, kappa, alpha, seed=cell_seed)
                            cfg = SolverConfig(
                                rank=(r,) * 3,
                                eta=spec.eta,
                                rho=spec.rho,
                                max_iters=spec.max_iters,
                                stop_tol=spec.stop_tol,
                            )
                            result = solve(truth.y, cfg, reference=truth)
                            rels.append(result.trace.final.rel_fro_error)
                            iters.append(result.trace.final.iteration)
                        except (ValueError, np.linalg.LinAlgError, RuntimeError):
                            failures += 1
                    cells.append(
                        SweepCell(
                            n=n,
                            rank=r,
                            alpha=alpha,
                            kappa=kappa,
                            median_rel_error=float(np.median(rels)) if rels else float("nan"),
                            median_iterations=float(np.median(iters)) if iters else float("nan"),
                            seconds=time.perf_counter() - start,
                            failures=failures,
                        )
                    )
    return cells
