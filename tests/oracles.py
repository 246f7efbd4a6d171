"""Independent oracles and randomized property suites shared across tests.

Everything in here deliberately avoids the library's fast code paths:
matricization by explicit index enumeration, multilinear products via
einsum with spelled-out subscripts, Kronecker products by block loops,
fiber statistics by brute-force counting, and gradients by central
differences.  ``residual_step`` is the one exception: it is the library's
step itself, fed a whole residual.  ``stepwise_scaled_step`` and
``stepwise_change_sq`` are no oracles either: they take the solver step's
products one library call at a time, the forms the step must match bit for
bit.  ``align_factors``, the scaled distance of an estimate to a truth in
normal form, is a measure for experiments on recovery, which the package
itself never reads.  The ``suite_*`` runners are
parameterized by case count so the module tests can run them cheaply and
the acceptance battery can run the full 1000 randomized cases per suite.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from trpca.metrics import _ORTHO_TOL, tensor_diagnostics
from trpca.rpca import (
    GRAM_CONDITION_LIMIT,
    _spd_inverses,
    scaled_step,
    soft_shrink,
    spectral_init,
)
from trpca.synth import gen_truth
from trpca.tensor_ops import (
    _mode_product,
    fro_norm,
    inf_norm,
    l2inf_norm,
    matricize,
    multilinear_mul,
)
from trpca.tucker import TuckerFactors, breve_factor, hosvd, reconstruct


# ---------------------------------------------------------------------------
# oracles


def oracle_matricize(t, mode):
    """Mode-k unfolding by explicit index bookkeeping.

    Places t[idx] at row idx[mode] and the column obtained by linearizing
    the remaining indices in ascending mode order, first remaining mode
    fastest.  Quadratic-slow but convention-exact.
    """
    t = np.asarray(t)
    rest = [i for i in range(t.ndim) if i != mode]
    cols = 1
    for i in rest:
        cols *= t.shape[i]
    out = np.zeros((t.shape[mode], cols))
    for idx in np.ndindex(*t.shape):
        col = 0
        stride = 1
        for i in rest:
            col += idx[i] * stride
            stride *= t.shape[i]
        out[idx[mode], col] = t[idx]
    return out


def tensorize(m, dims, mode):
    """Fold a matricization back into a tensor of shape ``dims``.

    ``m`` must have shape ``(dims[mode], prod of the other dims)``; the
    column linearization must match ``matricize``, of which this is the
    inverse.
    """
    m = np.asarray(m)
    dims = tuple(int(d) for d in dims)
    if not 0 <= mode < len(dims):
        raise ValueError(f"mode {mode} out of range for order-{len(dims)} tensor")
    rest = tuple(d for i, d in enumerate(dims) if i != mode)
    expected = (dims[mode], int(np.prod(rest)) if rest else 1)
    if m.shape != expected:
        raise ValueError(f"matricization has shape {m.shape}, expected {expected}")
    return np.moveaxis(np.reshape(m, (dims[mode], *rest), order="F"), 0, mode)


def oracle_multilinear(mats, t):
    """Multilinear product via einsum with explicit subscripts (order 3/4)."""
    t = np.asarray(t)
    mats = [
        np.eye(t.shape[k]) if m is None else np.asarray(m) for k, m in enumerate(mats)
    ]
    if t.ndim == 3:
        return np.einsum("ia,jb,kc,abc->ijk", *mats, t)
    if t.ndim == 4:
        return np.einsum("ia,jb,kc,ld,abcd->ijkl", *mats, t)
    raise NotImplementedError(f"oracle handles order 3/4, got {t.ndim}")


def oracle_multilinear_loops(mats, t):
    """The naive nested-sum definition, for tiny cases of any order only:
    ``out[i] = sum_p mats[0][i_0, p_0] * ... * mats[N-1][i_{N-1}, p_{N-1}] * t[p]``
    over every multi-index ``p`` of ``t``; a ``None`` entry is the identity."""
    t = np.asarray(t)
    mats = [
        np.eye(t.shape[k]) if m is None else np.asarray(m) for k, m in enumerate(mats)
    ]
    out = np.zeros(tuple(m.shape[0] for m in mats))
    for i in np.ndindex(out.shape):
        acc = 0.0
        for p in np.ndindex(t.shape):
            term = t[p]
            for m, a, b in zip(mats, i, p):
                term *= m[a, b]
            acc += term
        out[i] = acc
    return out


def oracle_kron(a, b):
    """Kronecker product assembled block by block."""
    a = np.asarray(a)
    b = np.asarray(b)
    out = np.zeros((a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            out[
                i * b.shape[0] : (i + 1) * b.shape[0],
                j * b.shape[1] : (j + 1) * b.shape[1],
            ] = a[i, j] * b
    return out


def inner(a, b):
    """Entrywise inner product <a, b> of two same-shape tensors."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.dot(a.reshape(-1), b.reshape(-1)))


def update_sparse(factors, y, zeta_next):
    """Next sparse iterate: shrink the low-rank residual of ``factors`` at zeta_next.

    One whole-tensor pass; the solver does the same shrink slab by slab.
    """
    return soft_shrink(np.asarray(y) - reconstruct(factors), zeta_next)


def residual_step(factors, c, cfg):
    """:func:`trpca.rpca.scaled_step` from the whole residual ``c``.

    ``c = y - reconstruct(factors) - s_next``; its two contractions are formed
    here in one piece each, by the library's own mode product, where
    :func:`trpca.rpca.solve` accumulates them slab by slab.  Returns the new
    factors only, not the norm the step also gives.
    """
    us = factors.factors
    head = _mode_product(c, us[0].T, 0)
    tail = _mode_product(c, us[-1].T, c.ndim - 1)
    return scaled_step(factors, head, tail, cfg)[0]


def mode_inner(p, q, mode):
    """``matricize(p, mode) @ matricize(q, mode).T``, for tensors whose other dims agree.

    The partner of the library's ``_mode_product``, with its ``(before,
    n_mode, after)`` reading of both tensors: mode 0 and the last mode are one
    2-D ``@``, any other mode one broadcast ``@`` summed over the leading dims.
    These are the forms of the solver step's contractions, which
    :func:`stepwise_scaled_step` takes one call at a time.
    """
    n, m = p.shape[mode], q.shape[mode]
    if mode == p.ndim - 1:
        return p.reshape(-1, n).T @ q.reshape(-1, m)
    if mode == 0:
        return p.reshape(n, -1) @ q.reshape(m, -1).T
    lead = int(np.prod(p.shape[:mode]))
    q3 = q.reshape(lead, m, -1)
    return np.matmul(p.reshape(lead, n, -1), q3.transpose(0, 2, 1)).sum(axis=0)


def _stepwise_contractions(t, mats, core, first):
    order = core.ndim
    out, prefix = [], t
    for k in range(first, order):
        part = prefix
        for j in range(k + 1, order):
            part = _mode_product(part, mats[j].T, j)
        out.append(mode_inner(part, core, k))
        if k < order - 1:
            prefix = _mode_product(prefix, mats[k].T, k)
    return out, prefix


def stepwise_scaled_step(factors, head, tail, cfg):
    """``trpca.rpca.scaled_step(factors, head, tail, cfg)``, each product one
    library call: ``_mode_product``, :func:`mode_inner`, and ``multilinear_mul``
    for ``inv(M_j)`` on the core gradient.

    The step writes these products out in r-space, and must give their bits.
    Returns ``(factors, x_sq)`` as the step does.
    """
    eta, us, core, order = cfg.eta, factors.factors, factors.core, factors.order
    grams = [u.T @ u for u in us]
    cograms, _ = _stepwise_contractions(core, grams, core, 0)
    x_sq = float(np.vdot(cograms[0], grams[0]))
    rhs, part = _stepwise_contractions(head, us, core, 1)
    grad = _mode_product(part, us[-1].T, order - 1)
    for j in range(1, order - 1):
        tail = _mode_product(tail, us[j].T, j)
    rhs.insert(0, mode_inner(tail, core, 0))
    active = [k for k, on in enumerate(cfg.modes_mask(order)) if on]
    inverses = _spd_inverses(
        [cograms[k] for k in active] + grams,
        [(k, "co-factor") for k in active] + [(k, "factor") for k in range(order)],
    )
    new = list(us)
    for k, inv_cogram in zip(active, inverses):
        new[k] = us[k] + eta * (rhs[k] @ inv_cogram)
    step = multilinear_mul(inverses[len(active):], grad)
    return TuckerFactors(tuple(new), core + eta * step), x_sq


def stepwise_change_sq(old, new):
    """``trpca.rpca._change_sq(old, new)`` with one ``_mode_product`` call per
    mode product and the tensor shape of the block core throughout; the
    library must give its bits."""
    g, h = old.core, new.core
    grams, blocks = [], []
    for u, v in zip(old.factors, new.factors):
        moved = v is not u
        w = np.concatenate((u, v - u), axis=1) if moved else u
        grams.append(w.T @ w)
        blocks += (1 + moved, u.shape[1])
    d = np.empty(blocks)
    d[...] = h.reshape([n for r in h.shape for n in (1, r)])
    np.subtract(h, g, out=d[(0, slice(None)) * h.ndim])
    d = d.reshape([len(m) for m in grams])
    t = d
    for k in range(h.ndim - 2):
        t = _mode_product(t, grams[k], k)
    return float(np.vdot(grams[-2] @ t @ grams[-1], d))


def oracle_fiber_fraction(s):
    """Worst per-fiber nonzero fraction by brute-force fiber enumeration."""
    s = np.asarray(s)
    worst = 0.0
    for mode in range(s.ndim):
        fibers = np.moveaxis(s, mode, -1).reshape(-1, s.shape[mode])
        for row in fibers:
            worst = max(worst, np.count_nonzero(row) / s.shape[mode])
    return worst


def l1inf_norm(m):
    """Largest row 1-norm of a matrix."""
    m = np.asarray(m)
    if m.ndim != 2:
        raise ValueError("l1inf_norm expects a matrix")
    return float(np.abs(m).sum(axis=1).max())


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


def sparse_norm_bounds_check(m, alpha):
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
        op=(float(np.linalg.norm(m, 2)), alpha * np.sqrt(rows * cols) * entry),
        l2inf=(l2inf_norm(m), np.sqrt(alpha * cols) * entry),
        l1inf=(l1inf_norm(m), alpha * cols * entry),
    )


def descending_kron(mats, skip):
    """kron(U_N, ..., U_{skip+1}, U_{skip-1}, ..., U_1) via the block oracle."""
    rest = [m for k, m in enumerate(mats) if k != skip][::-1]
    out = rest[0]
    for m in rest[1:]:
        out = oracle_kron(out, m)
    return out


def random_tucker(rng, dims, rank, orthonormal=False, scale=1.0):
    """A random Tucker pair, optionally with orthonormal factors."""
    factors = []
    for n, r in zip(dims, rank):
        m = rng.standard_normal((n, r))
        if orthonormal:
            m, _ = np.linalg.qr(m)
        factors.append(m)
    core = scale * rng.standard_normal(tuple(rank))
    return TuckerFactors(tuple(factors), core)


def oracle_scaled_step(f, y, s_next, eta, mask):
    """The scaled step with explicit co-factors ``B_k`` from breve_factor.

    Every active factor moves by ``matricize(D, k) @ B_k @ inv(B_k.T @ B_k)``
    and the core by ``D x_k (inv(U_k.T @ U_k) @ U_k.T)``, with ``D = s_next - y``;
    all products go through explicit matricizations and Kronecker products.
    """
    d = np.asarray(s_next) - np.asarray(y)
    factors = []
    for k, u in enumerate(f.factors):
        if mask[k]:
            b = breve_factor(f, k)
            u = (1.0 - eta) * u - eta * oracle_matricize(d, k) @ b @ np.linalg.inv(b.T @ b)
        factors.append(u)
    pre = [np.linalg.inv(u.T @ u) @ u.T for u in f.factors]
    grad = pre[0] @ oracle_matricize(d, 0) @ descending_kron(pre, 0).T
    core = (1.0 - eta) * f.core - eta * tensorize(grad, f.core.shape, 0)
    return TuckerFactors(tuple(factors), core)


def oracle_solve(y, cfg, reference=None):
    """The solver loop as whole-tensor passes, with the step of oracle_scaled_step.

    Each iteration shrinks the full residual ``y_n - x``, steps on
    ``D = s - y_n`` with explicit co-factors, expands the new iterate and takes
    the loss, relative change and reference errors from whole-tensor
    differences.  Row t's loss is the loss at which step t - 1 was taken,
    ``0.5 * ||y_n - x_{t-1} - s_t||**2``; row 0's is that of the spectral
    initialization, ``0.5 * ||y_n - x_0 - s_0||**2``.  Like the solver it runs
    on ``y_n = y / 2**e`` with ``2**e`` near ``||y||_inf`` and resolves the
    thresholds the same way.  Returns ``(factors, sparse, rows)`` in the units
    of ``y``, each row an ``(iteration, zeta, rel_fro_error, inf_error, loss)``
    tuple.
    """
    y = np.asarray(y, dtype=np.float64)
    e = int(np.frexp(np.abs(y).max())[1])
    y_n = np.ldexp(y, -e)
    x_star = getattr(reference, "x_star", reference)
    diag = getattr(reference, "diagnostics", None)
    if cfg.zeta0 is not None:
        zeta0 = cfg.zeta0
    elif x_star is not None:
        zeta0 = np.abs(x_star).max()
    elif cfg.alpha_estimate == 0.0:
        zeta0 = np.abs(y).max()
    else:
        zeta0 = np.quantile(np.abs(y), 1.0 - cfg.alpha_estimate)
    zeta0 = float(np.ldexp(zeta0, -e))
    zeta1 = cfg.zeta1
    if zeta1 is None and diag is not None:
        ratio = np.prod(cfg.rank) / y.size
        zeta1 = 8.0 * np.sqrt(diag.mu ** 3 * ratio) * diag.sigma_min
    f, s = spectral_init(y_n, cfg, zeta0=zeta0)
    x = reconstruct(f)
    zeta1 = 2.0 * np.abs(y_n - x - s).max() if zeta1 is None else np.ldexp(zeta1, -e)
    rho = cfg.effective_rho
    x_star_n = None if x_star is None else np.ldexp(np.asarray(x_star, dtype=np.float64), -e)
    mask = cfg.modes_mask(y.ndim)

    def row(t, zeta, x, x_loss, s):
        """Errors of the iterate ``x``, loss of the pair ``(x_loss, s)``."""
        rel = err_inf = None
        if x_star_n is not None:
            rel = np.linalg.norm(x - x_star_n) / np.linalg.norm(x_star_n)
            err_inf = np.ldexp(np.abs(x - x_star_n).max(), e)
        loss = 0.5 * np.linalg.norm(y_n - x_loss - s) ** 2
        return (t, np.ldexp(zeta, e), rel, err_inf, np.ldexp(loss, 2 * e))

    rows = [row(0, zeta0, x, x, s)]
    for t in range(1, cfg.max_iters + 1):
        zeta = zeta1 * rho ** (t - 1)
        s = soft_shrink(y_n - x, zeta)
        f = oracle_scaled_step(f, y_n, s, cfg.eta, mask)
        x_next = reconstruct(f)
        rows.append(row(t, zeta, x_next, x, s))
        change = np.linalg.norm(x_next - x) / max(np.linalg.norm(x), 1e-300)
        x = x_next
        if cfg.stop_tol > 0 and change < cfg.stop_tol:
            break
    return TuckerFactors(f.factors, np.ldexp(f.core, e)), np.ldexp(s, e), rows


def fd_gradients(f, y, s_next, h=1e-6):
    """Central-difference gradients of 0.5*||reconstruct(F)+S-Y||_F^2.

    Returns (per-factor gradient list, core gradient), each the plain
    unpreconditioned partial derivative.
    """
    y = np.asarray(y)
    s_next = np.asarray(s_next)

    def loss(factors, core):
        x = multilinear_mul(list(factors), core)
        return 0.5 * fro_norm(x + s_next - y) ** 2

    factor_grads = []
    for k, u in enumerate(f.factors):
        g = np.zeros_like(u)
        for idx in np.ndindex(*u.shape):
            plus = [m.copy() for m in f.factors]
            minus = [m.copy() for m in f.factors]
            plus[k][idx] += h
            minus[k][idx] -= h
            g[idx] = (loss(plus, f.core) - loss(minus, f.core)) / (2 * h)
        factor_grads.append(g)

    core_grad = np.zeros_like(f.core)
    for idx in np.ndindex(*f.core.shape):
        plus = f.core.copy()
        minus = f.core.copy()
        plus[idx] += h
        minus[idx] -= h
        core_grad[idx] = (loss(f.factors, plus) - loss(f.factors, minus)) / (2 * h)
    return factor_grads, core_grad


def oracle_change_sq(old, new):
    """``||reconstruct(new) - reconstruct(old)||**2`` as the float64 sum of the
    ``2**N - 1`` difference terms, each expanded on its own by einsum.

    With ``U_j``, ``G`` the factors and core of ``old``, ``V_j``, ``H`` those of
    ``new`` and ``D_j = V_j - U_j``, the difference is ``(H - G) x_j U_j``
    plus ``H x_{j in S} D_j x_{j not in S} U_j`` over every nonempty set S of
    modes.  No term is the difference of two expansions, so nothing cancels.
    """
    us, vs = old.factors, new.factors
    order = len(us)
    inner = [chr(ord("a") + k) for k in range(order)]
    outer = [chr(ord("n") + k) for k in range(order)]
    spec = ",".join(o + i for o, i in zip(outer, inner)) + "," + "".join(inner)
    spec += "->" + "".join(outer)
    deltas = [v - u for u, v in zip(us, vs)]
    total = np.einsum(spec, *us, new.core - old.core)
    for moved in itertools.product((False, True), repeat=order):
        if any(moved):
            mats = [d if m else u for m, u, d in zip(moved, us, deltas)]
            total += np.einsum(spec, *mats, new.core)
    return float(np.sum(total * total))


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
    inv_grams = _spd_inverses([u.T @ u for u in f.factors],
                              [(k, "factor") for k in range(f.order)])
    for k, (u, u_star, inv_gram) in enumerate(zip(f.factors, f_star.factors, inv_grams)):
        q = inv_gram @ (u.T @ u_star)
        if np.linalg.cond(q) > GRAM_CONDITION_LIMIT:
            raise ValueError(f"alignment matrix for mode {k} is numerically singular")
        qs.append(q)
        inv_qs.append(np.linalg.inv(q))
        total += fro_norm((u @ q - u_star) * sigmas[k][None, :]) ** 2
    total += fro_norm(multilinear_mul(inv_qs, core) - core_star) ** 2
    return AlignmentResult(q=tuple(qs), dist_upper=float(np.ldexp(np.sqrt(total), e)))


def rel_diff(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(fro_norm(b), 1e-300)
    return fro_norm(a - b) / denom


# ---------------------------------------------------------------------------
# property suites (criterion-style randomized batteries)


def suite_multilinear_composition(rng, cases):
    """(A.B-composed) products match single products with multiplied factors."""
    for i in range(cases):
        order = 3 if i % 4 else 4
        dims = tuple(rng.integers(2, 5, size=order))
        mid = tuple(rng.integers(2, 5, size=order))
        out = tuple(rng.integers(2, 5, size=order))
        t = rng.standard_normal(dims)
        inner_mats = [rng.standard_normal((m, n)) for m, n in zip(mid, dims)]
        outer_mats = [rng.standard_normal((o, m)) for o, m in zip(out, mid)]
        two_step = multilinear_mul(outer_mats, multilinear_mul(inner_mats, t))
        one_step = multilinear_mul(
            [a @ b for a, b in zip(outer_mats, inner_mats)], t
        )
        assert rel_diff(two_step, one_step) < 1e-10
        if order == 3:
            assert rel_diff(multilinear_mul(inner_mats, t),
                            oracle_multilinear(inner_mats, t)) < 1e-10
        # None is an identity placeholder, not a different operation
        skip = int(rng.integers(order))
        with_none = [None if k == skip else m for k, m in enumerate(inner_mats)]
        explicit = [np.eye(dims[skip]) if k == skip else m
                    for k, m in enumerate(inner_mats)]
        assert rel_diff(multilinear_mul(with_none, t),
                        multilinear_mul(explicit, t)) < 1e-12


def suite_matricization_identities(rng, cases):
    """Index-oracle agreement, exact round-trip, and the Kronecker identity."""
    for i in range(cases):
        order = 3 if i % 3 else 4
        dims = tuple(rng.integers(2, 5, size=order))
        t = rng.standard_normal(dims)
        for k in range(order):
            m = matricize(t, k)
            assert np.array_equal(m, oracle_matricize(t, k))
            assert np.array_equal(tensorize(m, dims, k), t)
        rank = tuple(rng.integers(1, 4, size=order))
        f = random_tucker(rng, dims, rank)
        x = multilinear_mul(list(f.factors), f.core)
        k = int(rng.integers(order))
        lhs = matricize(x, k)
        rhs = f.factors[k] @ matricize(f.core, k) @ descending_kron(f.factors, k).T
        assert rel_diff(lhs, rhs) < 1e-10


def suite_inner_adjoint(rng, cases):
    """<(A1,..,AN).g, t> == <g, (A1^T,..,AN^T).t>."""
    for i in range(cases):
        order = 3 if i % 3 else 4
        small = tuple(rng.integers(2, 5, size=order))
        big = tuple(rng.integers(2, 6, size=order))
        g = rng.standard_normal(small)
        t = rng.standard_normal(big)
        mats = [rng.standard_normal((n, r)) for n, r in zip(big, small)]
        lhs = inner(multilinear_mul(mats, g), t)
        rhs = inner(g, multilinear_mul([m.T for m in mats], t))
        scale = max(abs(lhs), abs(rhs), 1e-12)
        assert abs(lhs - rhs) / scale < 1e-10


def suite_trunc_hosvd_identities(rng, cases):
    """Fixed-point identities of the rank-r HOSVD pair on 5x6x7 tensors.

    With U the HOSVD factor and B the mode-k co-factor:
      (1) U^T M_k(t) B == B^T B   -- exact for any tensor;
      (2) M_k(t) M_k(t)^T U == U B^T B -- a fixed-point identity, so it is
          checked on exact-rank-(2,3,2) inputs (for generic dense t the
          truncated subspaces do not reproduce the right singular span).
    """
    dims, rank = (5, 6, 7), (2, 3, 2)
    for i in range(cases):
        if i % 2:
            t = rng.standard_normal(dims)  # identity (1) only
            exact = False
        else:
            t = reconstruct(random_tucker(rng, dims, rank, orthonormal=True))
            exact = True
        f = hosvd(t, rank)
        for k in range(3):
            m = matricize(t, k)
            b = breve_factor(f, k)
            gram = b.T @ b
            assert rel_diff(f.factors[k].T @ m @ b, gram) < 1e-8
            if exact:
                assert rel_diff(m @ m.T @ f.factors[k], f.factors[k] @ gram) < 1e-8


def suite_all_orthogonal_core(rng, cases):
    """Mode-k matricizations of an HOSVD core have orthogonal rows.

    Exact at full rank and on exact-rank inputs (where the projection
    changes nothing); truncating a generic dense tensor perturbs the core
    at the truncation scale, so those inputs are out of scope here.
    """
    for i in range(cases):
        order = 3 if i % 3 else 4
        dims = tuple(rng.integers(3, 6, size=order))
        if i % 2:
            t = rng.standard_normal(dims)
            size = int(np.prod(dims))
            rank = tuple(min(n, size // n) for n in dims)  # full rank
        else:
            rank = tuple(rng.integers(1, 4, size=order))
            rank = tuple(min(r, n) for r, n in zip(rank, dims))
            t = reconstruct(random_tucker(rng, dims, rank, orthonormal=True))
        t /= fro_norm(t)
        core = hosvd(t, rank).core
        for k in range(order):
            gram = matricize(core, k) @ matricize(core, k).T
            off = gram - np.diag(np.diag(gram))
            assert np.abs(off).max() <= 1e-9 * max(1.0, np.diag(gram).max())


def suite_sparse_norm_bounds(rng, cases):
    """The three alpha-sparsity operator-norm bounds on random supports."""
    for _ in range(cases):
        rows = int(rng.integers(4, 13))
        cols = int(rng.integers(4, 13))
        side = max(rows, cols)
        j = int(rng.integers(1, min(rows, cols) + 1))
        alpha = j / min(rows, cols)
        mask = np.zeros((side, side), dtype=bool)
        for _ in range(j):  # union of <= j permutation supports
            mask[np.arange(side), rng.permutation(side)] = True
        mask = mask[:rows, :cols]
        m = np.where(mask, rng.uniform(0.5, 2.0, mask.shape)
                     * rng.choice([-1.0, 1.0], mask.shape), 0.0)
        report = sparse_norm_bounds_check(m, alpha)
        assert report.all_hold
        # re-derive the right-hand sides independently
        entry = np.abs(m).max(initial=0.0)
        if entry > 0:
            assert np.linalg.norm(m, 2) <= alpha * np.sqrt(rows * cols) * entry + 1e-9
            assert np.sqrt((m * m).sum(axis=1).max()) <= np.sqrt(alpha * cols) * entry + 1e-9
            assert np.abs(m).sum(axis=1).max() <= alpha * cols * entry + 1e-9


def suite_corrupt_iter(rng, cases):
    """Thresholding keeps the support inside supp(S*) and within 2*zeta."""
    for i in range(cases):
        n = int(rng.integers(6, 10))
        alpha = float(rng.choice([1.0 / n, 0.2, 0.3]))
        truth = gen_truth((n, n, n), 1 + int(i % 2), kappa=float(rng.uniform(1, 5)),
                          alpha=alpha, seed=np.random.SeedSequence(rng.integers(2**32)))
        delta = float(rng.uniform(1e-4, 0.3)) * max(inf_norm(truth.x_star), 1e-3)
        noise = rng.uniform(-delta, delta, truth.x_star.shape)
        x_t = truth.x_star + noise
        zeta = 1.05 * inf_norm(noise) + 1e-12
        s_next = update_sparse(hosvd(x_t, x_t.shape), truth.y, zeta)
        star_supp = truth.s_star != 0
        assert not np.any((s_next != 0) & ~star_supp)
        assert inf_norm(s_next - truth.s_star) <= 2 * zeta * (1 + 1e-9)


def suite_x_star_inf_bound(rng, cases):
    """Entrywise envelope of incoherent low-rank tensors on generated truths."""
    for _ in range(cases):
        dims = tuple(int(d) for d in rng.integers(5, 10, size=3))
        r = int(rng.integers(1, 4))
        kappa = float(rng.uniform(1, 20))
        truth = gen_truth(dims, r, kappa, 0.0,
                          seed=np.random.SeedSequence(rng.integers(2**32)))
        d = truth.diagnostics
        bound = np.sqrt(d.mu**3 * r**3 / np.prod(dims)) * d.kappa * d.sigma_min
        assert inf_norm(truth.x_star) <= bound * (1 + 1e-9)


def suite_condition_ordering(rng, cases):
    """kappa <= kappa_s on arbitrary inputs, with spectra cross-checked."""
    for i in range(cases):
        dims = tuple(int(d) for d in rng.integers(3, 7, size=3))
        if i % 3 == 0:
            t = reconstruct(random_tucker(rng, dims, (2,) * 3, orthonormal=True))
            rank = (2, 2, 2)
        else:
            t = rng.standard_normal(dims) * float(rng.uniform(0.1, 10))
            rank = tuple(int(rng.integers(1, min(min(dims), 4) + 1)) for _ in dims)
        diag = tensor_diagnostics(t, rank)
        assert diag.kappa <= diag.kappa_s * (1 + 1e-12)
        assert diag.sigma_min > 0
        # spectra agree with a plain SVD of the index-oracle unfolding down
        # to the declared rank (the tail below that may sit at the Gram
        # noise floor ~sqrt(eps) and is never read)
        k = int(rng.integers(3))
        ref = np.linalg.svd(oracle_matricize(t, k), compute_uv=False)
        head = rank[k]
        assert np.allclose(diag.singular_values[k][:head], ref[:head],
                           rtol=1e-9, atol=1e-9 * (ref[0] + 1.0))


ALL_SUITES = {
    "multilinear_composition": suite_multilinear_composition,
    "matricization_identities": suite_matricization_identities,
    "inner_adjoint": suite_inner_adjoint,
    "trunc_hosvd_identities": suite_trunc_hosvd_identities,
    "all_orthogonal_core": suite_all_orthogonal_core,
    "sparse_norm_bounds": suite_sparse_norm_bounds,
    "corrupt_iter": suite_corrupt_iter,
    "x_star_inf_bound": suite_x_star_inf_bound,
    "condition_ordering": suite_condition_ordering,
}


# ---------------------------------------------------------------------------
# corrupted-file corpus for the format tests


def build_corrupt_corpus(directory):
    """Write deliberately malformed tensor files; returns (path, code) pairs."""
    import struct

    from trpca.fileio import FORMAT_VERSION, MAGIC

    def header(order, dims, magic=MAGIC, version=FORMAT_VERSION, reserved=b"\x00\x00"):
        return magic + bytes((version, order)) + reserved + struct.pack(
            f"<{len(dims)}Q", *dims
        )

    payload = struct.pack("<8d", *range(8))
    cases = [
        ("bad_magic.trpc", b"XXXX" + header(3, (2, 2, 2))[4:] + payload, "bad-magic"),
        ("bad_version.trpc", header(3, (2, 2, 2), version=9) + payload, "bad-version"),
        ("zero_order.trpc", header(0, ()), "bad-header"),
        ("reserved.trpc", header(3, (2, 2, 2), reserved=b"\x01\x00") + payload,
         "bad-header"),
        ("zero_dim.trpc", header(3, (2, 0, 2)) + payload, "bad-header"),
        ("overflow.trpc", header(3, (1 << 40, 1 << 40, 2)), "dims-overflow"),
        # 2**40 elements pass the overflow check; the 72-byte file holds 6
        ("huge_dims.trpc", header(2, (1 << 20, 1 << 20)) + payload[:48], "truncated"),
        ("short_header.trpc", header(3, (2, 2, 2))[:12], "truncated"),
        ("short_payload.trpc", header(3, (2, 2, 2)) + payload[:-8], "truncated"),
        ("trailing.trpc", header(3, (2, 2, 2)) + payload + b"\x00", "trailing-data"),
        ("nan_payload.trpc",
         header(3, (2, 2, 2)) + struct.pack("<8d", *([1.0] * 7 + [np.nan])),
         "non-finite"),
        ("empty.trpc", b"", "truncated"),
    ]
    out = []
    for name, blob, code in cases:
        path = directory / name
        path.write_bytes(blob)
        out.append((path, code))
    return out
