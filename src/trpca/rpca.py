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
returned one.  :func:`solve` expands each iterate once and makes one pass
over it in mode-0 slabs, which turns it into the next residual and clips
that at the next threshold; the step reads only the clip.  The trace's loss
is the loss at which each step is taken, the stop rule's relative change is
taken from the factors and cores of the two iterates, in r-space, before
the new one is expanded, and the sparse part is formed once, at the end.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .tensor_ops import (
    _ldexp_up,
    _mode_inner,
    _mode_product,
    _rank_entries,
    _sumsq,
    as_tensor,
    check_rank,
    inf_norm,
    multilinear_mul,
)
from .tucker import TuckerFactors, hosvd, reconstruct

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
        Step size in (0, 0.25].  The analysis behind the default schedule
        assumes eta in [1/7, 1/4].
    rho : float or None
        Threshold decay factor in (0, 1).  None means ``1 - 0.45 * eta``.
    zeta0, zeta1 : float or None
        Initialization / iteration shrinkage thresholds.  None selects a
        rule automatically, see :func:`make_schedule`.
    max_iters : int
        Iteration budget.
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
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")
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
class ThresholdSchedule:
    """Shrinkage threshold sequence: zeta0 at init, then zeta1 * rho**(t-1)."""

    zeta0: float
    zeta1: float
    rho: float

    def __post_init__(self):
        if not (self.zeta0 >= 0 and self.zeta1 >= 0):
            raise ValueError(f"thresholds must be >= 0, got {self.zeta0} and {self.zeta1}")
        if not 0.0 < self.rho < 1.0:
            raise ValueError(f"rho must be in (0, 1), got {self.rho}")

    def value(self, t: int) -> float:
        if t < 0:
            raise ValueError("iteration index must be >= 0")
        if t == 0:
            return self.zeta0
        return self.zeta1 * self.rho ** (t - 1)


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


def make_schedule(cfg: SolverConfig, y: np.ndarray, reference=None) -> ThresholdSchedule:
    """Resolve the full shrinkage schedule for ``y``, exactly as :func:`solve` does.

    The two share one set-up, so they accept and reject the same inputs: a
    finite ``y`` of order >= 3, a rank and ``active_modes`` that fit it, and
    a reference, if any, that is finite and of the shape of ``y``.

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
    sched = st.sched
    return ThresholdSchedule(_ldexp_up(sched.zeta0, st.e), _ldexp_up(sched.zeta1, st.e),
                             sched.rho)


def spectral_init(y: np.ndarray, cfg: SolverConfig,
                  zeta0: float) -> tuple[TuckerFactors, np.ndarray]:
    """Initial iterate ``(factors, sparse)``: shrink ``y`` at zeta0, then rank-truncate the rest.

    The sparse part is ``s0 = soft_shrink(y, zeta0)``.  The factors are the
    truncated higher-order SVD of ``clip(y, -zeta0, zeta0)``, which equals
    ``y - s0`` up to rounding, taken on that clip divided by ``2**e``, a
    power of two near ``||y||_inf``: this divides exactly, so the init of
    ``2.0**k * y`` at ``2.0**k * zeta0`` is exactly ``2.0**k`` times the init
    of ``y`` at ``zeta0``.  The clip's buffer is released before ``s0`` is
    formed, so at most one of the two is held.  The threshold :func:`solve`
    would use is ``make_schedule(cfg, y, reference).zeta0``.
    """
    y = as_tensor(y, min_order=3)
    return _spectral_init(y, cfg, zeta0, int(np.frexp(inf_norm(y))[1]))


def _spectral_init(y: np.ndarray, cfg: SolverConfig, zeta0: float,
                   e: int) -> tuple[TuckerFactors, np.ndarray]:
    """:func:`spectral_init` for ``y`` whose sup norm has the binary exponent ``e``."""
    c = np.clip(y, -zeta0, zeta0)
    f0 = hosvd(np.ldexp(c, -e, out=c), cfg.rank)
    del c
    return TuckerFactors(f0.factors, np.ldexp(f0.core, e)), soft_shrink(y, zeta0)


def _spd_inverses(grams, labels) -> list[np.ndarray]:
    """``inv(g)`` for each Gram matrix ``g`` of ``grams``, or raise if one is numerically singular.

    ``labels[i]`` is the ``(mode, which)`` of ``grams[i]``.  The first Gram in
    list order whose condition estimate ``w_max / w_min`` (inf unless
    ``w_min > 0``) exceeds :data:`GRAM_CONDITION_LIMIT` raises
    :class:`SingularGramError` with its label.  Grams of one size are stacked,
    so each distinct size takes one ``eigvalsh`` and one ``inv``: on r x r
    matrices a linalg call costs its overhead, not its flops.
    """
    by_size: dict[int, list[int]] = {}
    for i, g in enumerate(grams):
        by_size.setdefault(len(g), []).append(i)
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

    Each mode product is one :func:`~trpca.tensor_ops._mode_product` and each
    final contraction one :func:`~trpca.tensor_ops._mode_inner`, so every
    intermediate stays C-contiguous and is read without a copy.  The returned
    prefix stops short of the last mode, whose product only one caller needs.
    """
    order = core.ndim
    out, prefix = [], t
    for k in range(first, order):
        part = prefix
        for j in range(k + 1, order):
            part = _mode_product(part, mats[j].T, j)
        out.append(_mode_inner(part, core, k))
        if k < order - 1:
            prefix = _mode_product(prefix, mats[k].T, k)
    return out, prefix


def scaled_step(factors: TuckerFactors, head: np.ndarray, tail: np.ndarray,
                cfg: SolverConfig) -> TuckerFactors:
    """One preconditioned gradient step on the factors and core, from two contractions of ``c``.

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
    ``R_k`` and the core gradient from ``head``, by small partial contractions.
    Every contraction is a :func:`~trpca.tensor_ops._mode_product` or, for
    ``R_k`` and ``C_k`` themselves, a :func:`~trpca.tensor_ops._mode_inner`:
    one matrix product each on a reshaped C-ordered view.  Only the Grams
    that are solved, the active modes' ``C_k`` and every ``M_j``, are checked
    for singularity, so a frozen mode's ``C_k`` is never checked.
    :func:`_spd_inverses` checks and inverts them stacked by size, one
    ``eigvalsh`` and one ``inv`` per distinct size; the first singular one, in
    the order active ``C_k`` by mode, then ``M_j`` by mode, raises
    :class:`SingularGramError`.  All updates read the pre-step factors, so
    the order of modes is irrelevant, and a frozen mode keeps its array.
    """
    eta, us, core, order = cfg.eta, factors.factors, factors.core, factors.order
    dims = factors.outer_dims
    if head.shape != core.shape[:1] + dims[1:] or tail.shape != dims[:-1] + core.shape[-1:]:
        raise ValueError(f"contractions of shapes {head.shape} and {tail.shape} do not "
                         f"match factors of outer dims {dims} and rank {core.shape}")
    grams = [u.T @ u for u in us]
    cograms, _ = _contractions(core, grams, core, 0)
    rhs, part = _contractions(head, us, core, 1)
    grad = _mode_product(part, us[-1].T, order - 1)  # c x_all U_j.T
    for j in range(1, order - 1):  # R_0: tail times U_j.T for modes 1..N-2, ascending
        tail = _mode_product(tail, us[j].T, j)
    rhs.insert(0, _mode_inner(tail, core, 0))
    active = [k for k, on in enumerate(cfg.modes_mask(order)) if on]
    inverses = _spd_inverses(
        [cograms[k] for k in active] + grams,
        [(k, "co-factor") for k in active] + [(k, "factor") for k in range(order)],
    )
    new_factors = list(us)
    for k, inv_cogram in zip(active, inverses):
        new_factors[k] = us[k] + eta * (rhs[k] @ inv_cogram)
    inv_grams = inverses[len(active):]
    return TuckerFactors(tuple(new_factors), core + eta * multilinear_mul(inv_grams, grad))


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
    The result is in the units of the squared cores.
    """
    g, h = old.core, new.core
    grams, blocks = [], []
    for u, v in zip(old.factors, new.factors):
        moved = v is not u
        w = np.concatenate((u, v - u), axis=1) if moved else u
        grams.append(w.T @ w)
        blocks += (1 + moved, u.shape[1])
    d = np.empty(blocks)  # mode j's index is (block, row of G or H)
    d[...] = h.reshape([n for r in h.shape for n in (1, r)])
    np.subtract(h, g, out=d[(0, slice(None)) * h.ndim])
    d = d.reshape([len(m) for m in grams])
    t = d
    for k in range(h.ndim - 2):
        t = _mode_product(t, grams[k], k)
    # the Grams are symmetric: the last two modes are one broadcast product
    return float(np.vdot(grams[-2] @ t @ grams[-1], d))


# The loop keeps its full tensors in the units of y, unless ||y||_inf is
# above 2**960, where a residual or a reference error could overflow; there
# they are kept in the units of y / 2**e instead.
_LOOP_EXP_LIMIT = 960


class _Start(NamedTuple):
    """What every solve starts from; thresholds in the units of ``y / 2**e``."""

    e: int
    el: int  # the loop's full tensors are in the units of y / 2**(e - el)
    sched: ThresholdSchedule
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
    """Validate the inputs, scale ``y``, run the spectral initialization and resolve the schedule.

    The one set-up and threshold resolver, for :func:`make_schedule` and
    :func:`solve`.  It checks that ``y`` is a finite tensor of order >= 3,
    that ``cfg.rank`` and ``cfg.active_modes`` fit it, and that the
    reference, if any, is a finite tensor of the same shape.  The scale
    ``2**e`` is a power of two near ``||y||_inf``, so it is exact, and Gram
    matrices and norms of tiny or huge inputs neither underflow nor
    overflow.  Explicit and oracle thresholds are resolved in the units of
    ``y`` and scaled; the automatic zeta1 comes from the scaled
    initialization.  The initialization runs in the loop's units, on ``y``
    itself unless the loop needs a copy of ``y / 2**e``; its factors are the
    same either way, since :func:`spectral_init` takes its HOSVD in the units
    of ``y / 2**e``.  The initial iterate is expanded through ``reconstruct``
    in the loop's units, like every later one, and the gap ``y - x - s0``
    that gives zeta1 and the row-0 loss is taken slab by slab.
    """
    y = as_tensor(y, min_order=3)
    check_rank(y.shape, cfg.rank)
    cfg.modes_mask(y.ndim)  # checks the length of active_modes
    ref = _as_reference(reference, y.shape)
    y_inf = inf_norm(y)
    e = int(np.frexp(y_inf)[1])
    el = e if e <= _LOOP_EXP_LIMIT else 0
    zeta0 = _resolve_zeta0(cfg, y, y_inf, ref)
    zeta1 = cfg.zeta1
    if zeta1 is None and ref is not None:
        zeta1 = _oracle_zeta1(cfg, y, ref)
    y_l = y if el == e else np.ldexp(y, el - e)
    # the sup norm of y_l is ||y||_inf / 2**(e - el), whose exponent is el
    f0, s0 = _spectral_init(y_l, cfg, _ldexp_up(zeta0, el - e), el)
    zeta0, zeta1 = _ldexp_up(zeta0, -e), _ldexp_up(zeta1, -e)
    x = reconstruct(f0)
    # the gap is taken in the loop's units, where y - x cannot overflow, and
    # its sup norm and sum of squares are scaled to the units of y / 2**e
    gap_inf = loss2 = 0.0
    slabs, buf = _slabs(y.shape)
    for sl in slabs:
        gap = np.subtract(y_l[sl], x[sl], out=buf[: sl.stop - sl.start])
        gap -= s0[sl]
        gap_inf = max(gap_inf, inf_norm(gap))
        loss2 += _sumsq(gap, el)
    del s0  # before a scaled copy of the reference is made
    if zeta1 is None:
        zeta1 = 2.0 * _ldexp_up(gap_inf, -el)
    sched = ThresholdSchedule(zeta0=zeta0, zeta1=zeta1, rho=cfg.effective_rho)
    f = TuckerFactors(f0.factors, np.ldexp(f0.core, -el))
    x_star = None if ref is None else ref.x_star if el == e else np.ldexp(ref.x_star, el - e)
    return _Start(e, el, sched, f, y_l, x, 0.5 * loss2, x_star)


def solve(y: np.ndarray, cfg: SolverConfig, reference=None) -> SolveResult:
    """Separate a tensor of any order N >= 3 into low-multilinear-rank plus sparse parts.

    The iteration runs on ``y`` divided by a power of two near its largest
    entry (see :func:`make_schedule`), so ``solve(2.0**k * y)`` is exactly
    ``2.0**k * solve(y)``.  Each iteration calls :func:`scaled_step` on the
    two contractions of the clipped residual, expands the new iterate
    once through ``reconstruct`` and streams once through its mode-0 slabs:
    each slab's sum of squares is the divergence check and the iterate's
    norm, then the slab becomes the next residual in place, and its clip at
    the next threshold gives the loss and the next step's contractions.  With
    a stop tolerance, the change ``||x_t - x_{t-1}||`` of the stop rule is
    taken right after the step, in r-space from the two iterates' factors and
    cores (no pass over the tensor), and the stop is decided before iterate
    ``t`` is expanded: the pass over the last iterate of a run that stops
    early, like that over iterate ``max_iters``, only sums its squares and
    reference errors.  The sparse part is formed once, at the end, by
    :func:`soft_shrink` of the last residual (of ``y`` itself when no step
    was taken), after the last iterate's buffer is released.  For
    ``||y||_inf`` above ``2**960`` the loop's tensors are kept in the units
    of ``y / 2**e``, so that no residual overflows.

    Parameters
    ----------
    y : ndarray
        Observation of order >= 3, finite entries.  It, ``cfg.rank``,
        ``cfg.active_modes`` and the reference are validated by the set-up
        :func:`make_schedule` shares, which raises ValueError.
    cfg : SolverConfig
        Rank (one entry per mode), step size, threshold schedule, and budget.
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
    # y_n * 2**el, which are those of y except near the top of the float
    # range (see _start), and every sum of squares is divided by 4**el.
    e, el, sched, f, y, x, loss, x_star = _start(y, cfg, reference)
    x_star_fro = math.sqrt(_sumsq(x_star, el)) if x_star is not None else None
    trace = IterationTrace()

    def record(t, err2, err_inf, loss):
        # err2 and loss are in the units of y_n, err_inf in the loop's.  The
        # loss, a squared norm, may overflow to inf, and so may the early
        # thresholds and errors of an input near the float maximum.
        errs = (None, None)
        if x_star is not None:
            err = math.sqrt(err2)
            errs = (err / x_star_fro if x_star_fro > 0 else _ldexp_up(err, e),
                    _ldexp_up(err_inf, e - el))
        values = (_ldexp_up(sched.value(t), e), *errs, _ldexp_up(loss, 2 * e))
        trace.rows.append(TraceRow(t, *values, time.perf_counter() - start))

    # One pass per iterate over mode-0 slabs of about _SLAB_BYTES, so that
    # every slab stays in cache between the ops applied to it.  With
    # c = clip(r, -zeta, zeta) for the residual r = y - x, the next sparse
    # part is r - c and the loss gradient tensor x + s - y is -c, so the step
    # reads only c, and c lives only in the slab buffer.
    # head, part and tail are the step's, allocated only when a step is taken.
    row = y.size // y.shape[0]
    slabs, buf = _slabs(y.shape)
    n_last, r_last = y.shape[-1], cfg.rank[-1]
    if cfg.max_iters > 0:
        head = np.empty((cfg.rank[0], row))
        part = np.empty_like(head)
        tail = np.empty(y.shape[:-1] + (r_last,))

    def sweep(x, t, f, zeta):
        """The pass over iterate ``t`` with factors ``f``.

        Returns its sum of squares and its reference errors; when the next
        threshold ``zeta`` is given, also the loss ``0.5 * ||c||**2``, and
        then ``x`` holds the residual and ``head`` and ``tail`` the
        contractions of ``c`` with ``U_0`` and ``U_{N-1}``, in the loop's
        units.
        """
        x_sq = err2 = err_inf = loss2 = 0.0
        u0, u_last = f.factors[0], f.factors[-1]
        z = _ldexp_up(zeta, el)
        for sl in slabs:
            xb = x[sl]
            d = buf[: sl.stop - sl.start]
            if x_star is not None:
                np.subtract(xb, x_star[sl], out=d)
                err2 += _sumsq(d, el)
                err_inf = max(err_inf, inf_norm(d))
            q = _sumsq(xb, el)
            # A finite sum proves every entry finite; look closer only otherwise.
            if not math.isfinite(q) and not np.all(np.isfinite(xb)):
                raise DivergenceError(f"non-finite iterate at iteration {t}")
            x_sq += q
            if z is None:
                continue
            c = np.clip(np.subtract(y[sl], xb, out=xb), -z, z, out=d)
            loss2 += _sumsq(c, el)
            c_rows = c.reshape(c.shape[0], row)
            if sl.start == 0:
                np.matmul(u0[sl].T, c_rows, out=head)
            else:
                np.add(head, np.matmul(u0[sl].T, c_rows, out=part), out=head)
            # a mode-0 slice of tail reshapes as a view
            np.matmul(c.reshape(-1, n_last), u_last, out=tail[sl].reshape(-1, r_last))
        return x_sq, err2, err_inf, 0.5 * loss2

    # Besides y (and x_star), the loop holds two full tensors: r_prev and x,
    # the buffer of each iterate, which becomes its residual.  The last
    # iterate, where the stop rule or the budget ends the run, is not turned
    # into a residual.  Before any step the residual that gives the sparse
    # part is y itself: x_0's part is soft_shrink(y, zeta_0).
    zeta = sched.value(1) if cfg.max_iters > 0 else None
    x_sq, err2, err_inf, next_loss = sweep(x, 0, f, zeta)
    record(0, err2, err_inf, loss)
    r_prev = y
    t = 0
    for t in range(1, cfg.max_iters + 1):
        np.ldexp(head, -el, out=head)
        np.ldexp(tail, -el, out=tail)
        f_prev, f = f, scaled_step(f, head.reshape((-1,) + y.shape[1:]), tail, cfg)
        # the change and ||x_{t-1}|| are both in the units of y_n
        stop = t == cfg.max_iters or (
            cfg.stop_tol > 0
            and math.sqrt(_change_sq(f_prev, f)) / max(math.sqrt(x_sq), 1e-300) < cfg.stop_tol)
        zeta = None if stop else sched.value(t + 1)
        loss, r_prev = next_loss, x
        x = reconstruct(TuckerFactors(f.factors, np.ldexp(f.core, el)))
        x_sq, err2, err_inf, next_loss = sweep(x, t, f, zeta)
        record(t, err2, err_inf, loss)
        if stop:
            break
    del x  # the last iterate's buffer, released before the shrink allocates s
    s = soft_shrink(r_prev, _ldexp_up(sched.value(t), el))
    if el != e:
        np.ldexp(s, e - el, out=s)
    return SolveResult(TuckerFactors(f.factors, np.ldexp(f.core, e)), s, trace)


# The former order-N entry point, kept as an alias because the benchmark's
# tracer (perfbench/tracer.py) looks the name up.
solve_orderN = solve
