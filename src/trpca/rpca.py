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
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .tensor_ops import as_tensor, fro_norm, inf_norm, multilinear_mul
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
    if zeta < 0:
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
        sparse part always update).  None means all modes.
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
        self.rank = tuple(int(r) for r in np.atleast_1d(self.rank))
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
        if self.stop_tol < 0:
            raise ValueError("stop_tol must be >= 0")
        if self.active_modes is not None:
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
class SolverState:
    """Iterate: current factors, sparse estimate, threshold, and counter."""

    factors: TuckerFactors
    sparse: np.ndarray
    zeta: float
    iteration: int


@dataclass
class ThresholdSchedule:
    """Shrinkage threshold sequence: zeta0 at init, then zeta1 * rho**(t-1)."""

    zeta0: float
    zeta1: float
    rho: float

    def __post_init__(self):
        if self.zeta0 < 0 or self.zeta1 < 0:
            raise ValueError("thresholds must be >= 0")
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
    """One iteration record.  Error fields are None without a reference."""

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


def _as_reference(reference) -> Reference | None:
    if reference is None:
        return None
    x = getattr(reference, "x_star", None)
    if x is not None:
        return Reference(np.asarray(x, dtype=np.float64),
                         getattr(reference, "diagnostics", None))
    return Reference(np.asarray(reference, dtype=np.float64), None)


def _resolve_zeta0(cfg: SolverConfig, y: np.ndarray, ref: Reference | None) -> float:
    if cfg.zeta0 is not None:
        return cfg.zeta0
    if ref is not None:
        return inf_norm(ref.x_star)
    if cfg.alpha_estimate == 0.0:
        return inf_norm(y)
    return float(np.quantile(np.abs(y), 1.0 - cfg.alpha_estimate))


def _oracle_zeta1(cfg: SolverConfig, y: np.ndarray, ref: Reference) -> float | None:
    diag = ref.diagnostics
    mu = getattr(diag, "mu", None)
    sigma_min = getattr(diag, "sigma_min", None)
    if mu is None or sigma_min is None:
        return None
    ratio = np.prod(cfg.rank) / y.size
    return float(8.0 * np.sqrt(mu ** 3 * ratio) * sigma_min)


def make_schedule(cfg: SolverConfig, y: np.ndarray, reference=None) -> ThresholdSchedule:
    """Resolve the full shrinkage schedule for ``y``, exactly as :func:`solve` does.

    zeta0 precedence: explicit config value, then ``||x_star||_inf`` when a
    reference is given, then the ``1 - alpha_estimate`` quantile of ``|y|``
    (falling back to ``||y||_inf`` when alpha_estimate is 0).

    zeta1 precedence: explicit config value, then the oracle value
    ``8 * sqrt(mu^3 * prod(rank) / prod(dims)) * sigma_min`` when the
    reference carries diagnostics, else twice the sup-norm residual of the
    spectral initialization.  Like :func:`solve`, this runs that
    initialization on ``y`` divided by a power of two, so the schedule of
    ``2.0**k * y`` is exactly ``2.0**k`` times the schedule of ``y``.
    """
    y = as_tensor(y, min_order=3)
    st = _start(y, cfg, _as_reference(reference))
    sched = st.sched
    return ThresholdSchedule(_ldexp(sched.zeta0, st.e), _ldexp(sched.zeta1, st.e), sched.rho)


def spectral_init(
    y: np.ndarray, cfg: SolverConfig, zeta0: float | None = None, reference=None
) -> SolverState:
    """Initial iterate: shrink ``y`` at zeta0, then rank-truncate the rest.

    The sparse part is ``soft_shrink(y, zeta0)``; the factors are the
    truncated higher-order SVD of ``y`` minus that sparse part.
    """
    y = as_tensor(y, min_order=3)
    if zeta0 is None:
        zeta0 = _resolve_zeta0(cfg, y, _as_reference(reference))
    s0 = soft_shrink(y, zeta0)
    f0 = hosvd(y - s0, cfg.rank)
    return SolverState(factors=f0, sparse=s0, zeta=zeta0, iteration=0)


def _checked_gram(gram: np.ndarray, mode: int, which: str) -> np.ndarray:
    """Return the Gram matrix ``gram``, or raise if it is numerically singular."""
    w = np.linalg.eigvalsh(gram)
    if w[-1] <= 0.0 or w[0] <= 0.0 or w[-1] / w[0] > GRAM_CONDITION_LIMIT:
        cond = np.inf if w[0] <= 0.0 else w[-1] / w[0]
        raise SingularGramError(mode, cond, which)
    return gram


def _mode_dot(t: np.ndarray, u: np.ndarray, mode: int) -> np.ndarray:
    """Mode-``mode`` product of ``t`` with ``u.T`` (that mode shrinks to ``u.shape[1]``)."""
    return np.moveaxis(np.tensordot(t, u, axes=(mode, 0)), -1, mode)


def _step(f: TuckerFactors, head: np.ndarray, tail: np.ndarray | None, cfg) -> TuckerFactors:
    """The r-space update of :func:`scaled_step` from two contractions of ``c``.

    ``head`` is ``c x_0 U_0.T`` and ``tail`` is ``c x_{N-1} U_{N-1}.T``
    (only read, and only needed, when mode 0 is active).
    """
    eta = cfg.eta
    us, core, order = f.factors, f.core, f.order
    mask = cfg.modes_mask(order)

    def others(k):
        return [j for j in range(order) if j != k]

    grams = [u.T @ u for u in us]
    cograms = {}
    for k in range(order):
        if mask[k]:
            h = core
            for j in others(k):
                h = _mode_dot(h, grams[j], j)
            gram = np.tensordot(h, core, axes=(others(k), others(k)))
            cograms[k] = _checked_gram(gram, k, "co-factor")
    inv_grams = [np.linalg.inv(_checked_gram(m, k, "factor")) for k, m in enumerate(grams)]

    rhs = {}
    if mask[0]:  # c x_{j!=0} U_j.T, contracted from the last mode down
        part = tail
        for j in range(1, order - 1):
            part = _mode_dot(part, us[j], j)
        rhs[0] = np.tensordot(part, core, axes=(others(0), others(0)))
    # prefix is c x_{j<k} U_j.T; contracting its modes after k gives
    # c x_{j!=k} U_j.T
    prefix = head
    for k in range(1, order):
        if mask[k]:
            part = prefix
            for j in range(k + 1, order):
                part = _mode_dot(part, us[j], j)
            rhs[k] = np.tensordot(part, core, axes=(others(k), others(k)))
        prefix = _mode_dot(prefix, us[k], k)
    # prefix is now c x_all U_j.T, the negated core gradient

    new_factors = tuple(
        u + eta * np.linalg.solve(cograms[k], rhs[k].T).T if mask[k] else u
        for k, u in enumerate(us)
    )
    new_core = core + eta * multilinear_mul(inv_grams, prefix)
    return TuckerFactors(new_factors, new_core)


def scaled_step(factors: TuckerFactors, c: np.ndarray, cfg: SolverConfig) -> TuckerFactors:
    """One preconditioned gradient step on the factors and core.

    ``c = y - reconstruct(factors) - s_next`` is the residual left by the
    new sparse part.  The loss gradient tensor is ``x + s_next - y = -c``;
    inside :func:`solve`, where ``s_next = soft_shrink(r, zeta)`` for the
    residual ``r = y - x``, that is ``-clip(r, -zeta, zeta)``.  With core
    ``G``, factor Grams ``M_j = U_j.T @ U_j`` and ``unfold(., k)`` the mode-k
    matricization, every active mode gets

        U_k <- U_k + eta * R_k @ inv(C_k)
        R_k  = unfold(c x_{j!=k} U_j.T, k) @ unfold(G, k).T
        C_k  = unfold(G x_{j!=k} M_j, k) @ unfold(G, k).T

    and the core gets

        G <- G + eta * (c x_all U_j.T) x_all inv(M_j).

    ``R_k`` and ``C_k`` are ``matricize(c, k) @ B_k`` and ``B_k.T @ B_k`` for
    the co-factor ``B_k`` of :func:`~trpca.tucker.breve_factor`, computed in
    r-space without forming ``B_k``: ``c`` is read by two contractions only,
    ``c x_0 U_0.T`` and (when mode 0 is active) ``c x_{N-1} U_{N-1}.T``, and
    every ``R_k`` and the core gradient come from small partial contractions
    built on those two.  All updates read the pre-step factors, so the order
    of modes is irrelevant.
    """
    c = np.asarray(c, dtype=np.float64)
    us = factors.factors
    if c.shape != factors.outer_dims:
        raise ValueError(f"residual has shape {c.shape}, factors expand to {factors.outer_dims}")
    head = np.tensordot(us[0], c, axes=(0, 0))
    tail = np.tensordot(c, us[-1], axes=(c.ndim - 1, 0)) if cfg.modes_mask(c.ndim)[0] else None
    return _step(factors, head, tail, cfg)


def _ldexp(v, e: int):
    """``v * 2**e`` as a float, passing None through."""
    return None if v is None else float(np.ldexp(v, e))


def _sumsq(a: np.ndarray) -> float:
    """Sum of squares of a contiguous array's entries, as one dot product."""
    v = a.reshape(-1)
    return float(np.dot(v, v))


class _Start(NamedTuple):
    """What every solve starts from, in the units of ``y_n = y / 2**e``."""

    e: int
    y_n: np.ndarray
    sched: ThresholdSchedule
    factors: TuckerFactors
    sparse: np.ndarray
    x: np.ndarray  # the initial iterate
    gap: np.ndarray  # y_n - x - sparse


def _start(y: np.ndarray, cfg: SolverConfig, ref: Reference | None) -> _Start:
    """Scale ``y``, run the spectral initialization and resolve the schedule.

    The one threshold resolver, for :func:`make_schedule` and :func:`solve`.
    The scale ``2**e`` is a power of two near ``||y||_inf``, so it is exact,
    and Gram matrices and norms of tiny or huge inputs neither underflow nor
    overflow.  Explicit and oracle thresholds are resolved in the units of
    ``y`` and scaled; the automatic zeta1 comes from the scaled
    initialization.  The initial iterate is expanded through ``reconstruct``
    in the units of ``y``, like every later one, and then scaled in place.
    """
    e = int(np.frexp(inf_norm(y))[1])
    y_n = np.ldexp(y, -e)
    zeta0 = _ldexp(_resolve_zeta0(cfg, y, ref), -e)
    zeta1 = cfg.zeta1
    if zeta1 is None and ref is not None:
        zeta1 = _oracle_zeta1(cfg, y, ref)
    zeta1 = _ldexp(zeta1, -e)
    init = spectral_init(y_n, cfg, zeta0=zeta0)
    f, s = init.factors, init.sparse
    x = reconstruct(TuckerFactors(f.factors, np.ldexp(f.core, e)))
    np.ldexp(x, -e, out=x)
    gap = y_n - x
    gap -= s
    if zeta1 is None:
        zeta1 = 2.0 * inf_norm(gap)
    sched = ThresholdSchedule(zeta0=zeta0, zeta1=zeta1, rho=cfg.effective_rho)
    return _Start(e, y_n, sched, f, s, x, gap)


def solve(y: np.ndarray, cfg: SolverConfig, reference=None) -> SolveResult:
    """Separate a tensor of any order N >= 3 into low-multilinear-rank plus sparse parts.

    The iteration runs on ``y`` divided by a power of two near its largest
    entry (see :func:`make_schedule`), so ``solve(2.0**k * y)`` is exactly
    ``2.0**k * solve(y)``.  Each iteration streams twice through mode-0 slabs
    of the tensor, shrinking in place and taking the step of
    :func:`scaled_step` from the clipped residual.

    Parameters
    ----------
    y : ndarray
        Observation of order >= 3, finite entries.
    cfg : SolverConfig
        Rank (one entry per mode), step size, threshold schedule, and budget.
    reference : optional
        Ground truth for per-iteration error reporting; either an object
        with ``x_star`` (and optionally ``diagnostics``) attributes or a
        plain array.  When diagnostics are present the oracle threshold
        rules kick in, see :func:`make_schedule`.

    Returns
    -------
    SolveResult
        Final factors, sparse estimate, and the iteration trace, all in the
        units of ``y``.
    """
    start = time.perf_counter()
    y = as_tensor(y, min_order=3)
    size = y.size
    if len(cfg.rank) != y.ndim:
        raise ValueError(f"rank {cfg.rank} does not match tensor order {y.ndim}")
    for k, r in enumerate(cfg.rank):
        if r > min(y.shape[k], size // y.shape[k]):
            raise ValueError(f"rank[{k}]={r} too large for shape {y.shape}")
    mask = cfg.modes_mask(y.ndim)

    ref = _as_reference(reference)
    x_star = ref.x_star if ref is not None else None
    if x_star is not None and x_star.shape != y.shape:
        raise ValueError(f"reference shape {x_star.shape} does not match {y.shape}")

    # The iteration runs on y_n = y / 2**e (see _start).  Each iterate is
    # expanded in the units of y, and every output is scaled back to them.
    e, y_n, sched, f, s, x, gap = _start(y, cfg, ref)
    trace = IterationTrace()

    def record(t, zeta, err2, err_inf, loss):
        if x_star is None:
            errs = (None, None)
        else:
            err = math.sqrt(err2)
            errs = (err / x_star_fro if x_star_fro > 0 else _ldexp(err, e), _ldexp(err_inf, e))
        trace.rows.append(TraceRow(t, _ldexp(zeta, e), *errs, _ldexp(loss, 2 * e),
                                   time.perf_counter() - start))

    err2 = err_inf = 0.0
    if x_star is not None:
        diff = np.ldexp(x_star, -e)
        x_star_fro = fro_norm(diff)
        np.subtract(x, diff, out=diff)
        err2, err_inf = _sumsq(diff), inf_norm(diff)
        del diff
    x_fro = math.sqrt(_sumsq(x))
    record(0, sched.zeta0, err2, err_inf, 0.5 * _sumsq(gap))
    del gap
    # r is the residual y_n - x of the current iterate; each new iterate's
    # buffer becomes the next residual.
    r = np.subtract(y_n, x, out=x)
    del x

    # Each iteration streams twice through mode-0 slabs of about
    # _SLAB_BYTES, so that every slab stays in cache between the ops applied
    # to it.  With c = clip(r, -zeta, zeta), the new sparse part is r - c and
    # the loss gradient tensor x + s - y is -c, so the step reads only c.
    n0 = y.shape[0]
    row = size // n0
    rows = max(1, _SLAB_BYTES // (y.itemsize * row))
    slabs = [slice(a, min(a + rows, n0)) for a in range(0, n0, rows)]
    buf = np.empty((min(rows, n0),) + y.shape[1:])
    head = np.empty((cfg.rank[0], row))
    part = np.empty_like(head)
    n_last, r_last = y.shape[-1], cfg.rank[-1]
    tail = np.empty(y.shape[:-1] + (r_last,)) if mask[0] else None

    for t in range(cfg.max_iters):
        zeta = sched.value(t + 1)
        u0, u_last = f.factors[0], f.factors[-1]
        # Pass 1: the shrink, in place, and c's contractions with U_0 and
        # U_{N-1}; c lives only in the slab buffer.
        for sl in slabs:
            c = np.clip(r[sl], -zeta, zeta, out=buf[: sl.stop - sl.start])
            np.subtract(r[sl], c, out=s[sl])
            c_rows = c.reshape(c.shape[0], row)
            if sl.start == 0:
                np.matmul(u0[sl].T, c_rows, out=head)
            else:
                head += np.matmul(u0[sl].T, c_rows, out=part)
            if mask[0]:  # a mode-0 slice of tail reshapes as a view
                np.matmul(c.reshape(-1, n_last), u_last, out=tail[sl].reshape(-1, r_last))
        f = _step(f, head.reshape((-1,) + y.shape[1:]), tail, cfg)

        # Pass 2: sum the reference errors, scale the new iterate, sum its
        # norm, turn it into the next residual in place, and sum the relative
        # change and the loss; the slab buffer holds each difference.
        x = reconstruct(TuckerFactors(f.factors, np.ldexp(f.core, e)))
        x_sq = delta2 = loss2 = err2 = err_inf = 0.0
        for sl in slabs:
            xb = x[sl]
            d = buf[: sl.stop - sl.start]
            if x_star is not None:
                np.ldexp(np.subtract(xb, x_star[sl], out=d), -e, out=d)
                err2 += _sumsq(d)
                err_inf = max(err_inf, inf_norm(d))
            np.ldexp(xb, -e, out=xb)
            q = _sumsq(xb)
            # A finite sum proves every entry finite; look closer only otherwise.
            if not math.isfinite(q) and not np.all(np.isfinite(xb)):
                raise DivergenceError(f"non-finite iterate at iteration {t + 1}")
            x_sq += q
            np.subtract(y_n[sl], xb, out=xb)
            delta2 += _sumsq(np.subtract(r[sl], xb, out=d))  # x_next - x
            loss2 += _sumsq(np.subtract(xb, s[sl], out=d))
        record(t + 1, zeta, err2, err_inf, 0.5 * loss2)
        r = x
        del x
        denom = max(x_fro, 1e-300)
        x_fro = math.sqrt(x_sq)
        if cfg.stop_tol > 0 and math.sqrt(delta2) / denom < cfg.stop_tol:
            break
    core = np.ldexp(f.core, e)
    return SolveResult(TuckerFactors(f.factors, core), np.ldexp(s, e, out=s), trace)


# The former order-N entry point, kept as an alias because the benchmark's
# tracer (perfbench/tracer.py) looks the name up.
solve_orderN = solve
