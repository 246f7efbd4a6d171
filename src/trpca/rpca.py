"""Low-rank + sparse tensor separation by scaled gradient descent.

The observed tensor ``y`` is modeled as ``x + s`` where ``x`` has low
multilinear rank and ``s`` is entrywise sparse.  Each iteration first
re-estimates the sparse part by soft-shrinking the residual with a
geometrically decaying threshold, then takes one preconditioned gradient
step on the squared-error loss

    L(F, S) = 0.5 * ||reconstruct(F) + S - y||_F^2

in the factor parametrization.  The per-mode preconditioners are the
inverse Gram matrices of the co-factors, which is what keeps the step
well-scaled regardless of how ill-conditioned the underlying tensor is.

Each phase has one implementation.  :func:`solve` and :func:`make_schedule`
share one set-up, which validates the inputs, runs the spectral
initialization and resolves the thresholds.  :func:`scaled_step` is the
step the loop takes, from two contractions of the clipped residual, and
:func:`soft_shrink` forms every sparse part: the initialization's and the
returned one, slab by slab.  :func:`solve` expands each iterate once (the
last one only when a reference needs its errors) and makes one pass over it
in mode-0 slabs, which turns it into the next residual and clips that at the
next threshold; the step reads only the clip, and gives the iterate's norm
from its own Grams.  The trace's loss is the loss at which each step is
taken, the stop rule's relative change is taken from the factors and cores
of the two iterates, in r-space, before the new one is expanded, and the
sparse part is formed once, at the end, in the last residual's buffer: every
phase holds one full tensor besides ``y``.
"""

from __future__ import annotations

import copy
import math
import time
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .tensor_ops import (
    _count,
    _ldexp_up,
    _rank_entries,
    _sumsq,
    as_tensor,
    check_rank,
    inf_norm,
)
from .tucker import TuckerFactors, _hosvd, reconstruct

# Gram matrices with a worse condition estimate than this are treated as
# numerically singular instead of being inverted.
GRAM_CONDITION_LIMIT = 1e12

# Target size in bytes of the mode-0 slabs that each solver iteration streams
# through: small enough that a slab stays in a core's L2 cache between the ops
# applied to it.  A slab always holds at least one mode-0 row.
_SLAB_BYTES = 1 << 20


class SingularGramError(np.linalg.LinAlgError):
    """A factor or co-factor Gram matrix is numerically singular."""

    def __init__(self, mode: int, cond: float, which: str):
        self.mode = mode
        self.cond = cond
        super().__init__(
            f"{which} Gram matrix for mode {mode} is numerically singular "
            f"(condition estimate {cond:.3e})"
        )


class DivergenceError(RuntimeError):
    """The iteration produced non-finite values."""


def soft_shrink(t: np.ndarray, zeta: float) -> np.ndarray:
    """Entrywise soft shrinkage sgn(x) * max(|x| - zeta, 0).

    Computed as ``t - clip(t, -zeta, zeta)`` in one new array; the values
    are the same bits as the formula above except that shrunk entries are
    always +0.0.
    """
    if not zeta >= 0:
        raise ValueError(f"shrinkage threshold must be >= 0, got {zeta}")
    t = np.asarray(t)
    out = np.clip(t, -zeta, zeta)
    return np.subtract(t, out, out=out)


class Reference(NamedTuple):
    """Ground-truth handle for error tracking and oracle thresholds.

    ``diagnostics`` may be None; it only needs ``mu`` and ``sigma_min``
    attributes when oracle thresholds are wanted.
    """

    x_star: np.ndarray
    diagnostics: object = None


@dataclass
class SolverConfig:
    """Knobs for :func:`solve`.

    Parameters
    ----------
    rank : tuple of int
        Target multilinear rank, one entry per mode.
    eta : float
        Step size; the code accepts ``0 < eta <= 0.25`` and rejects any
        other value.  The range the paper's convergence theorem assumes is
        not checked here: nothing in this repository states it.
    rho : float or None
        Threshold decay factor in (0, 1).  None means ``1 - 0.45 * eta``.
    zeta0, zeta1 : float or None
        Initialization / iteration shrinkage thresholds.  None selects a
        rule automatically, see :func:`make_schedule`.
    max_iters : int
        Iteration budget, an integer >= 0 of any numeric type.
    stop_tol : float
        Early exit once the relative Frobenius change of the low-rank
        iterate drops below this.  0 disables early stopping; use that for
        slow decay factors, where the iteration can sit still for many
        steps while the threshold is still above the corruption scale.
    active_modes : tuple of bool or None
        Which factor matrices to update each iteration (the core and the
        sparse part always update), each entry 0, 1, False or True.  None
        means all modes.
    alpha_estimate : float
        Corruption-fraction guess used by the automatic zeta0 rule.
    """

    rank: tuple[int, ...]
    eta: float = 0.25
    rho: float | None = None
    zeta0: float | None = None
    zeta1: float | None = None
    max_iters: int = 200
    stop_tol: float = 1e-12
    active_modes: tuple[bool, ...] | None = None
    alpha_estimate: float = 0.1

    def __post_init__(self):
        self.rank = _rank_entries(self.rank)
        if any(r < 1 for r in self.rank):
            raise ValueError(f"rank entries must be >= 1, got {self.rank}")
        if not 0.0 < self.eta <= 0.25:
            raise ValueError(f"eta must be in (0, 0.25], got {self.eta}")
        if self.rho is not None and not 0.0 < self.rho < 1.0:
            raise ValueError(f"rho must be in (0, 1), got {self.rho}")
        for name in ("zeta0", "zeta1"):
            z = getattr(self, name)
            if z is not None and not z >= 0.0:
                raise ValueError(f"{name} must be >= 0, got {z}")
        self.max_iters = _count(self.max_iters, "max_iters")
        if not self.stop_tol >= 0.0:
            raise ValueError(f"stop_tol must be >= 0, got {self.stop_tol}")
        if self.active_modes is not None:
            if any(b not in (0, 1) for b in self.active_modes):
                raise ValueError(f"active_modes entries must be 0 or 1, got {self.active_modes}")
            self.active_modes = tuple(bool(b) for b in self.active_modes)
        if not 0.0 <= self.alpha_estimate < 1.0:
            raise ValueError(f"alpha_estimate must be in [0, 1), got {self.alpha_estimate}")

    @property
    def effective_rho(self) -> float:
        return self.rho if self.rho is not None else 1.0 - 0.45 * self.eta

    def modes_mask(self, order: int) -> tuple[bool, ...]:
        if self.active_modes is None:
            return (True,) * order
        if len(self.active_modes) != order:
            raise ValueError(
                f"active_modes has {len(self.active_modes)} entries "
                f"for an order-{order} tensor"
            )
        return self.active_modes


@dataclass
class TraceRow:
    """One iteration record.  Error fields are None without a reference.

    ``zeta``, ``rel_fro_error`` and ``inf_error`` belong to iterate
    ``iteration``.  ``loss`` is ``L(F, S) = 0.5 * ||y - reconstruct(F) - S||**2``
    at the point where the step into this iterate was taken: for row t >= 1
    the previous iterate's factors with the sparse part
    ``S_t = soft_shrink(y - x_{t-1}, zeta_t)``, that is
    ``0.5 * ||clip(y - x_{t-1}, -zeta_t, zeta_t)||**2``; for row 0 the
    spectral initialization.  Being a squared norm, it alone can overflow to
    inf or underflow to 0 for inputs near the ends of the float range.
    """

    iteration: int
    zeta: float
    rel_fro_error: float | None
    inf_error: float | None
    loss: float
    seconds: float


@dataclass
class IterationTrace:
    """Per-iteration history of a solve."""

    rows: list[TraceRow] = field(default_factory=list)

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def final(self) -> TraceRow:
        if not self.rows:
            raise ValueError("empty trace")
        return self.rows[-1]

    def rel_errors(self) -> np.ndarray:
        """Relative Frobenius errors as an array (nan where unavailable)."""
        return np.array(
            [np.nan if r.rel_fro_error is None else r.rel_fro_error for r in self.rows]
        )

    def iterations_to(self, tol: float) -> int | None:
        """First iteration whose relative error is <= tol, or None."""
        for r in self.rows:
            if r.rel_fro_error is not None and r.rel_fro_error <= tol:
                return r.iteration
        return None


class SolveResult(NamedTuple):
    factors: TuckerFactors
    sparse: np.ndarray
    trace: IterationTrace


def _as_reference(reference, shape: tuple[int, ...]) -> Reference | None:
    """``reference`` as a :class:`Reference` whose ``x_star`` is a validated
    tensor of ``shape``, or None."""
    if reference is None:
        return None
    x = getattr(reference, "x_star", None)
    diag = None if x is None else getattr(reference, "diagnostics", None)
    try:
        x_star = as_tensor(reference if x is None else x)
    except ValueError as exc:
        raise ValueError(f"reference: {exc}") from None
    if x_star.shape != shape:
        raise ValueError(f"reference shape {x_star.shape} does not match {shape}")
    return Reference(x_star, diag)


def _resolve_zeta0(cfg: SolverConfig, y: np.ndarray, y_inf: float, ref: Reference | None) -> float:
    """zeta0 in the units of ``y``, whose sup norm is ``y_inf``."""
    if cfg.zeta0 is not None:
        return cfg.zeta0
    if ref is not None:
        return inf_norm(ref.x_star)
    if cfg.alpha_estimate == 0.0:
        return y_inf
    return _abs_quantile(y, 1.0 - cfg.alpha_estimate)


def _abs_quantile(y: np.ndarray, q: float) -> float:
    """``np.quantile(np.abs(y), q)``, bit for bit, from one partition of one ``|y|`` buffer.

    numpy's default (linear) rule reads the order statistics ``k`` and
    ``k + 1`` of the ``n`` values, for ``k = floor(v)`` and ``v = (n - 1) * q``
    (the largest value once ``v >= n - 1``), and takes ``lo + d * t`` for
    ``t = v - k < 0.5``, else ``hi - d * (1 - t)``, with ``d = hi - lo``.
    ``np.quantile`` partitions at four indices (0, k, k + 1, n - 1); here one
    partition at ``k`` leaves statistic ``k + 1`` as the least value after it.
    """
    a = np.abs(y).reshape(-1)
    n = a.size
    v = (n - 1) * q
    if v >= n - 1:
        return float(a.max())
    k = math.floor(v)
    a.partition(k)
    lo, hi = float(a[k]), float(a[k + 1:].min())
    t, d = v - k, hi - lo
    return lo + d * t if t < 0.5 else hi - d * (1.0 - t)


def _oracle_zeta1(cfg: SolverConfig, y: np.ndarray, ref: Reference) -> float | None:
    diag = ref.diagnostics
    mu = getattr(diag, "mu", None)
    sigma_min = getattr(diag, "sigma_min", None)
    if mu is None or sigma_min is None:
        return None
    ratio = np.prod(cfg.rank) / y.size
    zeta1 = float(8.0 * np.sqrt(mu ** 3 * ratio) * sigma_min)
    if not zeta1 > 0.0:
        raise ValueError(
            f"the oracle zeta1 is {zeta1}, from the reference's sigma_min {sigma_min} "
            f"and mu {mu}; pass zeta1 (--zeta1) explicitly"
        )
    return zeta1


def make_schedule(cfg: SolverConfig, y: np.ndarray, reference=None) -> SolverConfig:
    """``cfg`` with the thresholds and decay :func:`solve` resolves for ``y`` made explicit.

    The returned config has ``zeta0`` and ``zeta1`` in the units of ``y`` and
    ``rho = cfg.effective_rho``; its thresholds are ``zeta0`` at the
    initialization and ``zeta1 * rho**(t - 1)`` at iteration ``t >= 1``.
    ``solve(y, make_schedule(cfg, y, reference), reference)`` is bit for bit
    ``solve(y, cfg, reference)``, and ``make_schedule`` of its own result
    returns it unchanged.  The two share one set-up, so they accept and
    reject the same inputs: a finite ``y`` of order >= 3, a rank and
    ``active_modes`` that fit it, and a reference, if any, that is finite
    and of the shape of ``y``.

    zeta0 precedence: explicit config value, then ``||x_star||_inf`` when a
    reference is given, then the ``1 - alpha_estimate`` quantile of ``|y|``
    (falling back to ``||y||_inf`` when alpha_estimate is 0).

    zeta1 precedence: explicit config value, then the oracle value
    ``8 * sqrt(mu^3 * prod(rank) / prod(dims)) * sigma_min`` when the
    reference carries diagnostics (a ValueError unless it is > 0, as for a
    reference whose ``sigma_min`` reads 0), else twice the sup-norm residual
    of the spectral initialization.  Like :func:`solve`, this takes that
    initialization's HOSVD on ``y`` divided by a power of two, so the schedule
    of ``2.0**k * y`` is exactly ``2.0**k`` times the schedule of ``y``.
    """
    st = _start(y, cfg, reference)
    return replace(cfg, zeta0=_ldexp_up(st.zeta0, st.e), zeta1=_ldexp_up(st.zeta1, st.e),
                   rho=cfg.effective_rho)


def spectral_init(y: np.ndarray, cfg: SolverConfig,
                  zeta0: float) -> tuple[TuckerFactors, np.ndarray]:
    """Initial iterate ``(factors, sparse)``: shrink ``y`` at zeta0, then rank-truncate the rest.

    The sparse part is ``s0 = soft_shrink(y, zeta0)``.  The factors are the
    truncated higher-order SVD of ``clip(y, -zeta0, zeta0)``, which equals
    ``y - s0`` up to rounding, taken on that clip divided by ``2**e``, a
    power of two near ``||y||_inf``: this divides exactly, so the init of
    ``2.0**k * y`` at ``2.0**k * zeta0`` is exactly ``2.0**k`` times the init
    of ``y`` at ``zeta0``.  The HOSVD is :func:`~trpca.tucker.hosvd`'s
    routine, which holds one full tensor at a time (see
    :func:`~trpca.tucker._hosvd`), and ``s0`` is formed after it.  The
    threshold :func:`solve` would use is ``make_schedule(cfg, y, reference).zeta0``.
    """
    y = as_tensor(y, min_order=3)
    check_rank(y.shape, cfg.rank)
    if not zeta0 >= 0:
        raise ValueError(f"shrinkage threshold must be >= 0, got {zeta0}")
    return _hosvd(y, cfg.rank, zeta0, int(np.frexp(inf_norm(y))[1])), soft_shrink(y, zeta0)


def _spd_inverses(grams, labels) -> list[np.ndarray]:
    """``inv(g)`` for each Gram matrix ``g`` of ``grams``, or raise if one is numerically singular.

    ``labels[i]`` is the ``(mode, which)`` of ``grams[i]``.  The first Gram in
    list order whose condition estimate ``w_max / w_min`` (inf unless
    ``w_min > 0``) exceeds :data:`GRAM_CONDITION_LIMIT` raises
    :class:`SingularGramError` with its label.  Grams of one size are stacked,
    so each distinct size takes one ``eigvalsh`` and one ``inv``: on r x r
    matrices a linalg call costs its overhead, not its flops.
    """
    by_size: dict[int, tuple[int, ...]] = {}
    for i, g in enumerate(grams):
        n = g.shape[0]
        by_size[n] = by_size[n] + (i,) if n in by_size else (i,)
    stacks = [(idx, np.array([grams[i] for i in idx])) for idx in by_size.values()]
    first = None
    for idx, stack in stacks:
        w = np.linalg.eigvalsh(stack)
        for i, (lo, hi) in zip(idx, w[:, [0, -1]].tolist()):
            if hi <= 0.0 or lo <= 0.0 or hi / lo > GRAM_CONDITION_LIMIT:
                if first is None or i < first[0]:
                    first = i, math.inf if lo <= 0.0 else hi / lo
                break
    if first is not None:
        mode, which = labels[first[0]]
        raise SingularGramError(mode, first[1], which)
    inverses = [None] * len(grams)
    for idx, stack in stacks:
        for i, m in zip(idx, np.linalg.inv(stack)):
            inverses[i] = m
    return inverses


def _contractions(t: np.ndarray, mats, core: np.ndarray, first: int):
    """``unfold(t x_{j>=first, j!=k} mats_j.T, k) @ unfold(core, k).T`` for each ``k >= first``,
    and ``t x_{first<=j<N-1} mats_j.T``; ``prefix`` shares the products before each ``k``.

    ``t`` is C-contiguous, with the core's dims before mode ``first`` and
    ``mats_j``'s row count at every mode ``j >= first``; ``out[k]`` is None
    for ``k < first``.  Each mode product is the one matrix product of
    :func:`~trpca.tensor_ops._mode_product`, on a reshaped C-ordered view,
    and each final contraction the one of its partner, a 2-D ``@`` at mode 0
    and the last mode and a broadcast ``@`` summed over the leading dims at
    any other; the tests check the bits against those two.  They are written
    out because this runs twice per solver iteration on r-space arrays,
    where a call costs more than its flops: a product's C-contiguous result
    is reshaped once, for the next product, from the running size ``lead``
    of the dims before the mode it reads, and never to its tensor shape.
    The returned prefix stops short of the last mode, whose product only one
    caller needs.
    """
    order, rank = core.ndim, core.shape
    out = [None] * order
    prefix, lead = t, 1  # lead: the size of the dims of prefix before mode k
    for j in range(first):
        lead *= rank[j]
    for k in range(first, order):
        n = mats[k].shape[0]
        part, part_lead = prefix, lead * n
        for j in range(k + 1, order):
            u = mats[j]
            if j == order - 1:
                part = part.reshape(-1, u.shape[0]) @ u
            else:
                part = u.T @ part.reshape(part_lead, u.shape[0], -1)
                part_lead *= rank[j]
        # part has the dims of core but at mode k, where it has n
        if k == order - 1:
            out[k] = part.reshape(-1, n).T @ core.reshape(-1, rank[k])
            break
        if k == 0:
            out[k] = part.reshape(n, -1) @ core.reshape(rank[0], -1).T
            prefix = mats[0].T @ prefix.reshape(n, -1)
        else:
            q = core.reshape(lead, rank[k], -1).transpose(0, 2, 1)
            out[k] = np.add.reduce(part.reshape(lead, n, -1) @ q, 0)
            prefix = mats[k].T @ prefix.reshape(lead, n, -1)
        lead *= rank[k]
    return out, prefix


def _grams(f: TuckerFactors) -> tuple[list[np.ndarray], list[np.ndarray], float]:
    """The factor Grams ``M_j = U_j.T @ U_j``, the co-factor Grams ``C_k``
    (see :func:`scaled_step`) and ``||reconstruct(f)||**2 = vdot(C_0, M_0)``.

    The norm is exact in r-space: with ``B_0`` the co-factor of mode 0,
    ``matricize(x, 0) = U_0 @ B_0.T``, so ``||x||**2 = trace(M_0 @ C_0)`` for
    ``C_0 = B_0.T @ B_0``, in the units of the squared core.
    """
    # an iterate that overflows here reads inf, for the caller to refuse
    with np.errstate(over="ignore", invalid="ignore"):
        grams = [u.T @ u for u in f.factors]
        cograms, _ = _contractions(f.core, grams, f.core, 0)
    return grams, cograms, float(np.vdot(cograms[0], grams[0]))


def scaled_step(factors: TuckerFactors, head: np.ndarray, tail: np.ndarray,
                cfg: SolverConfig) -> tuple[TuckerFactors, float]:
    """One preconditioned gradient step on the factors and core, from two contractions of ``c``.

    Returns the new factors and core, and ``||reconstruct(factors)||**2``,
    the squared norm of the iterate the step is taken from, which the
    step's own Grams give for free (see :func:`_grams`).  When that norm is
    not finite, a factor or the core is not, and the step raises
    :class:`DivergenceError` before it inverts a Gram.

    ``c = y - reconstruct(factors) - s_next`` is the residual left by the
    new sparse part, and the loss gradient tensor is ``x + s_next - y = -c``;
    inside :func:`solve`, where ``s_next = soft_shrink(r, zeta)`` for the
    residual ``r = y - x``, that is ``-clip(r, -zeta, zeta)``.  The step reads
    ``c`` only through ``head = c x_0 U_0.T`` and ``tail = c x_{N-1}
    U_{N-1}.T``, which :func:`solve` accumulates slab by slab in the pass that
    forms the residual.  With core ``G``, factor Grams ``M_j = U_j.T @ U_j``
    and ``unfold(., k)`` the mode-k matricization, every active mode gets

        U_k <- U_k + eta * R_k @ inv(C_k)
        R_k  = unfold(c x_{j!=k} U_j.T, k) @ unfold(G, k).T
        C_k  = unfold(G x_{j!=k} M_j, k) @ unfold(G, k).T

    and the core gets

        G <- G + eta * (c x_all U_j.T) x_all inv(M_j).

    ``R_k`` and ``C_k`` are ``matricize(c, k) @ B_k`` and ``B_k.T @ B_k`` for
    the co-factor ``B_k`` of :func:`~trpca.tucker.breve_factor`, computed in
    r-space without forming ``B_k``: ``R_0`` comes from ``tail``, every other
    ``R_k`` and the core gradient from ``head``, by small partial contractions
    (:func:`_contractions`), and ``inv(M_j)`` is applied mode by mode in
    ascending order, as :func:`~trpca.tensor_ops.multilinear_mul` applies
    it: one matrix product each on a reshaped C-ordered view.  Only the Grams
    that are solved, the active modes' ``C_k`` and every ``M_j``, are checked
    for singularity, so a frozen mode's ``C_k`` is never checked.
    :func:`_spd_inverses` checks and inverts them stacked by size, one
    ``eigvalsh`` and one ``inv`` per distinct size; the first singular one, in
    the order active ``C_k`` by mode, then ``M_j`` by mode, raises
    :class:`SingularGramError`.  All updates read the pre-step factors, so
    the order of modes is irrelevant, and a frozen mode keeps its array.

    ``c`` enters only through ``R_k`` and the core gradient, each linear in
    it and multiplied by ``eta`` last, so ``head`` and ``tail`` may be given
    ``2**m`` times too large with ``cfg.eta`` divided by ``2**m``: for a power
    of two the scale cancels exactly.  :func:`solve` passes its slab pass's
    contractions that way, in the loop's units, instead of rescaling them.
    """
    eta, us, core = cfg.eta, factors.factors, factors.core
    order, rank = core.ndim, core.shape
    dims = tuple([u.shape[0] for u in us])
    if head.shape != rank[:1] + dims[1:] or tail.shape != dims[:-1] + rank[-1:]:
        raise ValueError(f"contractions of shapes {head.shape} and {tail.shape} do not "
                         f"match factors of outer dims {dims} and rank {rank}")
    grams, cograms, x_sq = _grams(factors)
    if not math.isfinite(x_sq):
        raise DivergenceError("non-finite factors or core")
    rhs, part = _contractions(head, us, core, 1)
    grad = part.reshape(-1, dims[-1]) @ us[-1]  # c x_all U_j.T
    lead = dims[0]
    for j in range(1, order - 1):  # R_0: tail times U_j.T for modes 1..N-2, ascending
        tail = us[j].T @ tail.reshape(lead, dims[j], -1)
        lead *= rank[j]
    rhs[0] = tail.reshape(dims[0], -1) @ core.reshape(rank[0], -1).T
    active = [k for k, on in enumerate(cfg.modes_mask(order)) if on]
    inverses = _spd_inverses(
        [cograms[k] for k in active] + grams,
        [(k, "co-factor") for k in active] + [(k, "factor") for k in range(order)],
    )
    new_factors = list(us)
    for k, inv_cogram in zip(active, inverses):
        new_factors[k] = us[k] + eta * (rhs[k] @ inv_cogram)
    # grad x_all inv(M_j), ascending, as multilinear_mul orders a product
    # that keeps the shape
    inv_grams = inverses[len(active):]
    step, lead = inv_grams[0] @ grad.reshape(rank[0], -1), rank[0]
    for j in range(1, order - 1):
        step = inv_grams[j] @ step.reshape(lead, rank[j], -1)
        lead *= rank[j]
    step = (step.reshape(-1, rank[-1]) @ inv_grams[-1].T).reshape(rank)
    return TuckerFactors._unchecked(tuple(new_factors), core + eta * step), x_sq


def _change_sq(old: TuckerFactors, new: TuckerFactors) -> float:
    """``||reconstruct(new) - reconstruct(old)||**2``, computed in r-space.

    With ``U_j``, ``G`` the factors and core of ``old`` and ``V_j``, ``H``
    those of ``new``, the difference is ``D x_j W_j`` for ``W_j = [U_j, V_j -
    U_j]`` and the block core ``D`` whose block 0 is ``H - G`` and whose
    other blocks are all ``H``: the sum of the ``2**N - 1`` terms of the
    expansion, each first order in the increments.  Its squared norm is
    ``vdot(D x_j W_j.T W_j, D)``, so every term of that sum is second order
    and nothing cancels, which a difference of the two expansions cannot
    avoid.  A factor that did not move (``new``'s is ``old``'s array, as
    :func:`scaled_step` leaves a frozen mode) keeps ``W_j = U_j`` and one block.
    The result is in the units of the squared cores.  The mode products are
    :func:`~trpca.tensor_ops._mode_product`'s, written out as in
    :func:`_contractions`.
    """
    g, h = old.core, new.core
    # an iterate that overflows here reads inf, for the caller to refuse
    with np.errstate(over="ignore", invalid="ignore"):
        grams, blocks, lift, sizes = [], (), (), ()
        for u, v in zip(old.factors, new.factors):
            moved = v is not u
            w = np.concatenate((u, v - u), axis=1) if moved else u
            grams += (w.T @ w,)
            r = u.shape[1]
            blocks += (1 + moved, r)
            lift += (1, r)
            sizes += (w.shape[1],)
        d = np.empty(blocks)  # mode j's index is (block, row of G or H)
        d[...] = h.reshape(lift)
        np.subtract(h, g, out=d[(0, slice(None)) * h.ndim])
        d = d.reshape(sizes)
        t, lead = d, 1
        for k in range(h.ndim - 2):
            t = grams[k] @ t.reshape(lead, sizes[k], -1)
            lead *= sizes[k]
        # the Grams are symmetric: the last two modes are one broadcast product
        return float(np.vdot(grams[-2] @ t.reshape(-1, sizes[-2], sizes[-1]) @ grams[-1], d))


# The loop keeps its full tensors in the units of y, unless ||y||_inf is
# above 2**960, where a residual or a reference error could overflow, or
# below 2**-960, where the step's r-space products, taken in the loop's units
# (see solve), could lose bits to underflow; there they are kept in the
# units of y / 2**e instead.
_LOOP_EXP_LIMIT = 960


class _Start(NamedTuple):
    """What every solve starts from; thresholds in the units of ``y / 2**e``."""

    e: int
    el: int  # the loop's full tensors are in the units of y / 2**(e - el)
    zeta0: float
    zeta1: float
    factors: TuckerFactors
    y: np.ndarray  # the observation, in the loop's units
    x: np.ndarray  # the initial iterate, in the loop's units
    loss: float  # 0.5 * ||y - x - s0||**2 / 4**e, for the initial sparse part s0
    x_star: np.ndarray | None  # the reference, in the loop's units


def _slabs(shape: tuple[int, ...]):
    """Mode-0 slices of a C-ordered tensor of ``shape``, each about
    ``_SLAB_BYTES`` and at least one row, and a buffer that holds one."""
    n0 = shape[0]
    rows = max(1, _SLAB_BYTES // (8 * math.prod(shape[1:])))
    slabs = [slice(a, min(a + rows, n0)) for a in range(0, n0, rows)]
    return slabs, np.empty((min(rows, n0),) + shape[1:])


def _start(y, cfg: SolverConfig, reference) -> _Start:
    """Validate the inputs, scale ``y``, run the spectral initialization and resolve the thresholds.

    The one set-up and threshold resolver, for :func:`make_schedule` and
    :func:`solve`; the returned ``zeta0`` and ``zeta1`` are in the units of
    ``y / 2**e``, and the decay is ``cfg.effective_rho``.  It checks that ``y`` is a finite tensor of order >= 3,
    that ``cfg.rank`` and ``cfg.active_modes`` fit it, and that the
    reference, if any, is a finite tensor of the same shape.  The scale
    ``2**e`` is a power of two near ``||y||_inf``, so it is exact, and Gram
    matrices and norms of tiny or huge inputs neither underflow nor
    overflow.  Explicit and oracle thresholds are resolved in the units of
    ``y`` and scaled; the automatic zeta1 comes from the scaled
    initialization.  The initialization runs in the loop's units, on ``y``
    itself unless the loop needs a copy of ``y / 2**e``; its factors are the
    same either way, since the HOSVD (:func:`~trpca.tucker._hosvd`, as in
    :func:`spectral_init`) is taken in the units of ``y / 2**e``.  The sup
    norm of ``y`` is taken once, here: the clip the HOSVD reads is finite
    by construction.  The initial iterate is expanded through ``reconstruct``
    in the loop's units, like every later one, and the gap ``y - x - s0``
    that gives zeta1 and the row-0 loss is taken slab by slab, each slab of
    ``s0 = soft_shrink(y, zeta0)`` formed on its own.

    Besides ``y``, at most one full tensor is held at a time: the ``|y|``
    buffer of the automatic zeta0, then the clip and the middle-mode
    unfoldings of the HOSVD, one after the other (see
    :func:`~trpca.tucker._hosvd`), then the initial iterate, which is returned.
    """
    y = as_tensor(y, min_order=3)
    check_rank(y.shape, cfg.rank)
    cfg.modes_mask(y.ndim)  # checks the length of active_modes
    ref = _as_reference(reference, y.shape)
    y_inf = inf_norm(y)
    e = int(np.frexp(y_inf)[1])
    el = e if -_LOOP_EXP_LIMIT <= e <= _LOOP_EXP_LIMIT else 0
    zeta0 = _resolve_zeta0(cfg, y, y_inf, ref)
    zeta1 = cfg.zeta1
    if zeta1 is None and ref is not None:
        zeta1 = _oracle_zeta1(cfg, y, ref)
    y_l = y if el == e else np.ldexp(y, el - e)
    # the sup norm of y_l is ||y||_inf / 2**(e - el), whose exponent is el
    zeta0_l = _ldexp_up(zeta0, el - e)
    f0 = _hosvd(y_l, cfg.rank, zeta0_l, el)
    zeta0, zeta1 = _ldexp_up(zeta0, -e), _ldexp_up(zeta1, -e)
    x = reconstruct(f0)
    # the gap is taken in the loop's units, where y - x cannot overflow, and
    # its sup norm and sum of squares are scaled to the units of y / 2**e
    gap_inf = loss2 = 0.0
    slabs, buf = _slabs(y.shape)
    for sl in slabs:
        gap = np.subtract(y_l[sl], x[sl], out=buf[: sl.stop - sl.start])
        gap -= soft_shrink(y_l[sl], zeta0_l)
        gap_inf = max(gap_inf, inf_norm(gap))
        loss2 += _sumsq(gap, el)
    if zeta1 is None:
        zeta1 = 2.0 * _ldexp_up(gap_inf, -el)
    f = TuckerFactors(f0.factors, np.ldexp(f0.core, -el))
    x_star = None if ref is None else ref.x_star if el == e else np.ldexp(ref.x_star, el - e)
    return _Start(e, el, zeta0, zeta1, f, y_l, x, 0.5 * loss2, x_star)


def solve(y: np.ndarray, cfg: SolverConfig, reference=None) -> SolveResult:
    """Separate a tensor of any order N >= 3 into low-multilinear-rank plus sparse parts.

    The iteration runs on ``y`` divided by a power of two near its largest
    entry (see :func:`make_schedule`), so ``solve(2.0**k * y)`` is exactly
    ``2.0**k * solve(y)``.  Each iteration calls :func:`scaled_step` on the
    two contractions of the clipped residual; the step also gives the norm
    of the iterate it starts from, from its own Grams.  With a stop
    tolerance, the change ``||x_t - x_{t-1}||`` of the stop rule is taken
    right after the step, in r-space from the two iterates' factors and
    cores, and divided by that norm.  The stop is decided before iterate
    ``t`` is expanded.  When the run goes on, the new iterate is expanded
    once through ``reconstruct`` and streamed once through its mode-0
    slabs: each slab becomes the next residual in place, and its clip at the
    next threshold gives the loss and the next step's contractions.  The
    last iterate, where the stop rule or ``max_iters`` ends the run, takes no
    step and is expanded only when a reference needs its errors.  The sparse
    part is formed once, at the end: :func:`soft_shrink` of the last
    residual (of ``y`` itself when no step was taken), written slab by slab
    into that residual's buffer.  For ``||y||_inf`` above ``2**960`` the
    loop's tensors are kept in the units of ``y / 2**e``, so that no
    residual overflows, and below ``2**-960`` too, so that the step's
    products lose no bits to underflow.

    Memory: besides ``y`` (and the reference), every phase holds at most one
    full tensor, plus buffers of a mode-0 slab and of ``r_k / n_k`` of the
    tensor.  The set-up holds one at a time (see :func:`_start`); the loop
    holds the buffer that is each iterate and then its residual, released
    before the next iterate is expanded; the end shrinks the last residual
    in place.  A solve with a reference also expands the last iterate beside
    the sparse part, two tensors at the end.

    Divergence: :class:`DivergenceError` names the iterate ``t`` at fault.
    A NaN in an expanded iterate shows in the sum of its clipped residual,
    or in that of its reference error.  A non-finite factor or core is
    found right after the step that made it, in r-space, before any product
    reads it: an ``inf * 0`` there would make numpy warn before anything
    raised.  The iterate's norm ``||x_t||`` from the Grams is checked when
    the step from it is taken, which is after its expansion and its pass,
    or, for the last iterate, at the end, without a step.  It fails an
    iterate whose norm, in the loop's units, reaches ``2**1022``, where a
    later residual could overflow, and one whose squared norm overflows in
    the Gram products, which then read inf instead of warning.  No other
    pass over the tensor looks for non-finite values.

    Parameters
    ----------
    y : ndarray
        Observation of order >= 3, finite entries.  It, ``cfg.rank``,
        ``cfg.active_modes`` and the reference are validated by the set-up
        :func:`make_schedule` shares, which raises ValueError.
    cfg : SolverConfig
        Rank (one entry per mode), step size, threshold schedule, and budget.
        :func:`make_schedule` returns it with its thresholds resolved, a
        config this runs bit for bit like ``cfg``: the threshold of
        iterate ``t >= 1`` is ``zeta1 * rho**(t - 1)``.
    reference : optional
        Ground truth for per-iteration error reporting; either an object
        with ``x_star`` (and optionally ``diagnostics``) attributes or a
        plain array, finite and of the shape of ``y``.  When diagnostics
        are present the oracle threshold rules kick in, see
        :func:`make_schedule`.

    Returns
    -------
    SolveResult
        Final factors, sparse estimate, and the iteration trace, all in the
        units of ``y``.  Row ``t >= 1`` of the trace holds the loss at which
        step ``t - 1`` was taken (see :class:`TraceRow`).
    """
    start = time.perf_counter()
    # The factors, the core and the thresholds are in the units of
    # y_n = y / 2**e; every tensor the loop holds is in the units of
    # y_n * 2**el, which are those of y unless ||y||_inf lies outside
    # [2**-960, 2**960] (see _start), and every sum of squares is divided by
    # 4**el.  With |el| <= 960, 2**el is a float and scaling by it is exact.
    e, el, zeta0, zeta1, f, y, x, loss, x_star = _start(y, cfg, reference)
    rho = cfg.effective_rho
    x_star_fro = math.sqrt(_sumsq(x_star, el)) if x_star is not None else None
    scale = 2.0**el
    # head and tail stay in the loop's units: the step's size carries their
    # 2**-el instead (see scaled_step), a config the set-up has checked
    step_cfg = copy.copy(cfg)
    step_cfg.eta = math.ldexp(cfg.eta, -el)
    # an iterate with ||x_n||**2 below this is below 2**1022 in the loop's
    # units, so its residual and its clip stay finite; the check comes with
    # the step from it, after its expansion
    x_sq_limit = _ldexp_up(1.0, 2 * (1022 - el))
    # (zeta_t, err2, err_inf, loss, clock) of each iterate t, as the loop has
    # them; the trace's rows are formed from these at the end
    raw = []

    # One pass per expanded iterate over mode-0 slabs of about _SLAB_BYTES,
    # so that every slab stays in cache between the ops applied to it.  With
    # c = clip(r, -zeta, zeta) for the residual r = y - x, the next sparse
    # part is r - c and the loss gradient tensor x + s - y is -c, so the step
    # reads only c, and c lives only in the slab buffer.
    # head and tail are the step's, allocated only when a step is taken.
    row = y.size // y.shape[0]
    slabs, buf = _slabs(y.shape)
    n_last, r_last = y.shape[-1], cfg.rank[-1]
    if cfg.max_iters > 0:
        head = np.empty((cfg.rank[0], row))
        head_t = head.reshape((-1,) + y.shape[1:])  # the step reads it as a tensor
        tail = np.empty(y.shape[:-1] + (r_last,))

    def sweep(x, t, f, zeta):
        """The pass over iterate ``t`` with factors ``f``.

        Returns its reference errors and, when the next threshold ``zeta``
        is given, the loss ``0.5 * ||c||**2``; then ``x`` holds the residual
        and ``head`` and ``tail`` the contractions of ``c`` with ``U_0`` and
        ``U_{N-1}``, in the loop's units.  A NaN in ``x`` raises.
        """
        err2 = err_inf = loss2 = 0.0
        u0, u_last = f.factors[0], f.factors[-1]
        # each slab's term of head, allocated per pass so that it is not
        # held beside the next expansion
        if zeta is not None:
            z = zeta * scale
            part = np.empty_like(head)
        for sl in slabs:
            xb = x[sl]
            d = buf[: sl.stop - sl.start]
            if x_star is not None:
                np.subtract(xb, x_star[sl], out=d)
                err2 += _sumsq(d, el)
                err_inf = max(err_inf, inf_norm(d))
            if zeta is None:
                continue
            c = np.subtract(y[sl], xb, out=xb).clip(-z, z, out=d)
            loss2 += _sumsq(c, el)
            c_rows = c.reshape(c.shape[0], row)
            if sl.start == 0:
                np.matmul(u0[sl].T, c_rows, out=head)
            else:
                np.add(head, np.matmul(u0[sl].T, c_rows, out=part), out=head)
            # a mode-0 slice of tail reshapes as a view
            np.matmul(c.reshape(-1, n_last), u_last, out=tail[sl].reshape(-1, r_last))
        # the clip keeps a NaN, and the sums of squares are never -inf
        if math.isnan(err2 + loss2):
            raise DivergenceError(f"non-finite iterate at iteration {t}")
        return err2, err_inf, 0.5 * loss2

    def expand(f):
        return reconstruct(TuckerFactors._unchecked(f.factors, f.core * scale))

    # x is the one full tensor of the loop: each iterate's buffer, which
    # becomes its residual.  Before any step the residual that gives the
    # sparse part is y itself: x_0's part is soft_shrink(y, zeta_0).
    # zeta_t is the threshold of iterate t, zeta that of the next one
    zeta_t, zeta = zeta0, (zeta1 if cfg.max_iters > 0 else None)
    err2, err_inf, next_loss = sweep(x, 0, f, zeta)
    raw.append((zeta_t, err2, err_inf, loss, time.perf_counter()))
    t = 0
    for t in range(1, cfg.max_iters + 1):
        f_prev = f
        try:
            f, x_sq = scaled_step(f, head_t, tail, step_cfg)
        except DivergenceError:
            raise DivergenceError(f"non-finite iterate at iteration {t - 1}") from None
        if not x_sq < x_sq_limit:
            raise DivergenceError(f"non-finite iterate at iteration {t - 1}")
        # iterate t, in r-space, before any product reads it: the change,
        # the expansion and the Grams of the next step would take inf * 0,
        # which numpy warns of before anything raises
        for a in (*f.factors, f.core):
            if not np.logical_and.reduce(np.isfinite(a), None):
                raise DivergenceError(f"non-finite iterate at iteration {t}")
        loss, zeta_t = next_loss, zeta
        # the change and ||x_{t-1}|| are both in the units of y_n
        if t == cfg.max_iters or (
                cfg.stop_tol > 0
                and math.sqrt(_change_sq(f_prev, f)) / max(math.sqrt(x_sq), 1e-300)
                < cfg.stop_tol):
            break
        del x  # the residual r_{t-1}, whose buffer the expansion may take
        x = expand(f)
        zeta = zeta1 * rho ** t
        err2, err_inf, next_loss = sweep(x, t, f, zeta)
        raw.append((zeta_t, err2, err_inf, loss, time.perf_counter()))
    if t > 0:  # the last iterate takes no step: its norm from its own Grams
        if not _grams(f)[2] < x_sq_limit:
            raise DivergenceError(f"non-finite iterate at iteration {t}")
        del head, head_t, tail  # before the shrink takes its slabs
    # s = soft_shrink(r_{t-1}, zeta_t) overwrites r_{t-1}; with no step
    # taken, r is y and s overwrites x_0
    z = zeta_t * scale
    r, s = (x if t > 0 else y), x
    for sl in slabs:
        s[sl] = soft_shrink(r[sl], z)
    if t > 0:
        err2 = err_inf = None
        if x_star is not None:
            err2, err_inf, _ = sweep(expand(f), t, f, None)
        raw.append((zeta_t, err2, err_inf, loss, time.perf_counter()))
    if el != e:
        np.ldexp(s, e - el, out=s)
    trace = _trace(raw, e, el, x_star_fro, start)
    return SolveResult(TuckerFactors(f.factors, np.ldexp(f.core, e)), s, trace)


def _trace(raw, e: int, el: int, x_star_fro: float | None, start: float) -> IterationTrace:
    """The trace of a solve from the raw rows ``(zeta_t, err2, err_inf, loss, clock)``
    of iterates 0, 1, ... in order.

    ``zeta_t``, ``err2`` and ``loss`` are in the units of ``y_n = y / 2**e``
    (the last two squared), ``err_inf`` in the loop's, ``2**el`` times those;
    the errors are None without a reference.  Each column is scaled in one
    ``np.ldexp``, exact and the same bits as one :func:`math.ldexp` per row,
    and inf where the value leaves the float range: the loss, a squared
    norm, may overflow, and so may the early thresholds and errors of an
    input near the float maximum.
    """
    zeta, err2, err_inf, loss, clock = zip(*raw)
    with np.errstate(over="ignore", under="ignore"):
        zeta = np.ldexp(zeta, e).tolist()
        loss = np.ldexp(loss, 2 * e).tolist()
        rel = inf = (None,) * len(raw)
        if x_star_fro is not None:
            err = np.sqrt(err2)
            rel = (err / x_star_fro if x_star_fro > 0 else np.ldexp(err, e)).tolist()
            inf = np.ldexp(err_inf, e - el).tolist()
    return IterationTrace([TraceRow(t, *row, c - start)
                           for t, (*row, c) in enumerate(zip(zeta, rel, inf, loss, clock))])


# The former order-N entry point, kept as an alias because the benchmark's
# tracer (perfbench/tracer.py) looks the name up.
solve_orderN = solve
