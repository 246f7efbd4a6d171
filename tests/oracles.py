"""Independent oracles and randomized property suites shared across tests.

Everything in here deliberately avoids the library's fast code paths:
matricization by explicit index enumeration, multilinear products via
einsum with spelled-out subscripts, Kronecker products by block loops,
fiber statistics by brute-force counting, and gradients by central
differences.  The ``suite_*`` runners are parameterized by case count so
the module tests can run them cheaply and the acceptance battery can run
the full 1000 randomized cases per suite.
"""

from __future__ import annotations

import numpy as np

from trpca.metrics import condition_numbers, sparse_norm_bounds_check
from trpca.rpca import SolverState, soft_shrink, spectral_init
from trpca.synth import gen_truth
from trpca.tensor_ops import fro_norm, inf_norm, matricize, multilinear_mul, tensorize
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
    """The naive nested-sum definition, for tiny order-3 cases only."""
    t = np.asarray(t)
    a, b, c = (np.asarray(m) for m in mats)
    out = np.zeros((a.shape[0], b.shape[0], c.shape[0]))
    for i in range(a.shape[0]):
        for j in range(b.shape[0]):
            for k in range(c.shape[0]):
                acc = 0.0
                for p in range(t.shape[0]):
                    for q in range(t.shape[1]):
                        for s in range(t.shape[2]):
                            acc += a[i, p] * b[j, q] * c[k, s] * t[p, q, s]
                out[i, j, k] = acc
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


def update_sparse(state, y, zeta_next):
    """Next sparse iterate: shrink the current low-rank residual at zeta_next.

    One whole-tensor pass; the solver does the same shrink slab by slab.
    """
    return soft_shrink(np.asarray(y) - reconstruct(state.factors), zeta_next)


def oracle_fiber_fraction(s):
    """Worst per-fiber nonzero fraction by brute-force fiber enumeration."""
    s = np.asarray(s)
    worst = 0.0
    for mode in range(s.ndim):
        fibers = np.moveaxis(s, mode, -1).reshape(-1, s.shape[mode])
        for row in fibers:
            worst = max(worst, np.count_nonzero(row) / s.shape[mode])
    return worst


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
    differences.  Like the solver it runs on ``y_n = y / 2**e`` with ``2**e``
    near ``||y||_inf`` and resolves the thresholds the same way.  Returns
    ``(factors, sparse, rows)`` in the units of ``y``, each row an
    ``(iteration, zeta, rel_fro_error, inf_error, loss)`` tuple.
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
    init = spectral_init(y_n, cfg, zeta0=zeta0)
    f, s = init.factors, init.sparse
    x = reconstruct(f)
    zeta1 = 2.0 * np.abs(y_n - x - s).max() if zeta1 is None else np.ldexp(zeta1, -e)
    rho = cfg.effective_rho
    x_star_n = None if x_star is None else np.ldexp(np.asarray(x_star, dtype=np.float64), -e)
    mask = cfg.modes_mask(y.ndim)

    def row(t, zeta, x, s):
        rel = err_inf = None
        if x_star_n is not None:
            rel = np.linalg.norm(x - x_star_n) / np.linalg.norm(x_star_n)
            err_inf = np.ldexp(np.abs(x - x_star_n).max(), e)
        loss = 0.5 * np.linalg.norm(y_n - x - s) ** 2
        return (t, np.ldexp(zeta, e), rel, err_inf, np.ldexp(loss, 2 * e))

    rows = [row(0, zeta0, x, s)]
    for t in range(1, cfg.max_iters + 1):
        zeta = zeta1 * rho ** (t - 1)
        s = soft_shrink(y_n - x, zeta)
        f = oracle_scaled_step(f, y_n, s, cfg.eta, mask)
        x_next = reconstruct(f)
        rows.append(row(t, zeta, x_next, s))
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
        state = SolverState(hosvd(x_t, x_t.shape), np.zeros_like(x_t), zeta, 0)
        s_next = update_sparse(state, truth.y, zeta)
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
        cond = condition_numbers(t, rank)
        assert cond.kappa <= cond.kappa_s * (1 + 1e-12)
        assert cond.sigma_min > 0
        # spectra agree with a plain SVD of the index-oracle unfolding down
        # to the declared rank (the tail below that may sit at the Gram
        # noise floor ~sqrt(eps) and is never read)
        k = int(rng.integers(3))
        ref = np.linalg.svd(oracle_matricize(t, k), compute_uv=False)
        head = rank[k]
        assert np.allclose(cond.singular_values[k][:head], ref[:head],
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
