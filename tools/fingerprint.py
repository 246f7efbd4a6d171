"""Bit fingerprints of the solver's outputs on a fixed list of cases.

Usage (from the repository root)::

    python3 tools/fingerprint.py [OUT.npz]
    python3 tools/fingerprint.py --compare A.npz B.npz

The first form runs every case and prints one JSON line per case: the
SHA-256 of the factors, the core, the sparse part and the trace rows
(without their ``seconds``), and the stop iteration, of each of these that
the case has; a ``make_schedule`` case gives the SHA-256 of its three
thresholds, a ``tensor_diagnostics`` case that of its fields and a
``thin_svd`` case those of ``u``, ``s`` and ``v`` instead.  The first line records
python, numpy, the BLAS and its thread count, which changes the bits of a
solve.  With ``OUT.npz`` the lines and the arrays are also saved there.

``--compare A B`` reads two saved runs and prints one JSON line per case:
whether it is identical, and if not, both stop iterations and the largest
relative difference ``max|a - b| / max|a|`` of each array that differs.  It
exits 1 unless every case is identical.  To compare two commits, run each
checkout's copy of this script (copy it into a checkout that predates it);
it imports ``trpca`` from the ``src/`` beside it.

Cases: the five stop-rule instances that ``test_stop_rule_iterations_are_pinned``
pins; five solve configurations (orders 3 and 4, blind and with a reference,
the stop rule, a frozen mode) at the scales 2**0, 2**700, 2**-600 and
2**1000, each also through its set-up alone: ``make_schedule``,
``spectral_init`` at that schedule's zeta0, and ``hosvd`` of ``y`` at the
configuration's rank; ``hosvd`` of an order-1 and an order-2 tensor, of a
Fortran-ordered tensor, of a zero tensor with signed zeros, of two
tensors at a rank above their own and of three tensors whose middle-mode
``matricize`` is a view, such as (1, 12, 40); ``thin_svd`` on the Gram path and the
direct SVD, each at full rank and rank-deficient; ``tensor_diagnostics`` of
four fixed tensors, two of them rank-deficient; and the ``.trpc`` file
``write_tensor`` writes, and ``read_tensor`` of it, for a C-ordered, a
Fortran-ordered, a strided, a float32, an int64, a big-endian and an order-1
input; and a sweep spec file with one feasible cell and one with ``r`` above
``n``, parsed by ``parse_sweep_spec`` and run by ``run_sweep``, whose case
hashes every ``SweepCell`` field but ``seconds``.  BLAS runs on one thread unless ``OPENBLAS_NUM_THREADS`` says otherwise.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import ctypes
import dataclasses
import glob
import hashlib
import json
import platform
import sys
import tempfile
import types
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from trpca import (  # noqa: E402
    Reference,
    SolverConfig,
    gen_truth,
    hosvd,
    make_schedule,
    multilinear_mul,
    solve,
    tensor_diagnostics,
)
from trpca.fileio import parse_sweep_spec, read_tensor, write_tensor  # noqa: E402
from trpca.rpca import spectral_init  # noqa: E402
from trpca.synth import SweepCell, run_sweep  # noqa: E402
from trpca.tucker import thin_svd  # noqa: E402

SCALES = (0, 700, -600, 1000)


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, np.ndarray):
            p = np.ascontiguousarray(p, dtype=np.float64)
            h.update(repr(p.shape).encode())
            h.update(p.tobytes())
        else:
            h.update(json.dumps(p).encode())
    return h.hexdigest()


def _blas_threads():
    for lib in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*")):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.25 prints its config only
        blas = None
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": _blas_threads()}


def _configs():
    """(name, y, cfg, reference) of the five solve configurations at every scale."""
    configs = (
        ("30^3-blind", (30,) * 3, 5.0, 0.1, 3, None, False, 40),
        ("30^3-ref-stop", (30,) * 3, 5.0, 0.1, 4, None, True, 300),
        ("20^4-ref-stop", (20,) * 4, 5.0, 0.1, 3, None, True, 300),
        ("11x7x9-ref-frozen0", (11, 7, 9), 3.0, 1 / 7, 31, (0, 1, 1), True, 40),
        ("6x5x7x5-blind-frozen0", (6, 5, 7, 5), 3.0, 1 / 5, 4, (0, 1, 1, 1), False, 40),
    )
    for name, dims, kappa, alpha, seed, mask, with_ref, iters in configs:
        truth = gen_truth(dims, 2, kappa=kappa, alpha=alpha, seed=seed)
        stop = {} if iters == 300 else {"stop_tol": 0.0}
        cfg = SolverConfig(rank=(2,) * len(dims), max_iters=iters, active_modes=mask, **stop)
        d = truth.diagnostics
        for k in SCALES:
            ref = None
            if with_ref:
                diag = types.SimpleNamespace(mu=d.mu, sigma_min=np.ldexp(d.sigma_min, k))
                ref = Reference(np.ldexp(truth.x_star, k), diag)
            yield f"{name}@2^{k}", np.ldexp(truth.y, k), cfg, ref


def _solve_cases():
    """(name, y, cfg, reference) of every solve case."""
    for dims, seed in (((30,) * 3, 0), ((30,) * 3, 1), ((20,) * 4, 0), ((20,) * 4, 1),
                       ((20,) * 4, 2)):
        truth = gen_truth(dims, 2, kappa=5.0, alpha=0.1, seed=seed)
        name = f"pinned-{'x'.join(map(str, dims))}-seed{seed}"
        yield name, truth.y, SolverConfig(rank=(2,) * len(dims), max_iters=300), truth
    yield from _configs()


def _svd_cases():
    """(name, m, rank) of the ``thin_svd`` cases: the Gram path (a matrix more
    than 4x wider than tall) and the direct SVD, each at full rank and at a
    rank above the matrix's."""
    rng = np.random.default_rng(9)
    yield "gram-6x40", rng.standard_normal((6, 40)), 6
    yield "gram-6x40-rank2-at-4", rng.standard_normal((6, 2)) @ rng.standard_normal((2, 40)), 4
    yield "direct-30x8", rng.standard_normal((30, 8)), 8
    yield "direct-30x8-rank3-at-5", rng.standard_normal((30, 3)) @ rng.standard_normal((3, 8)), 5


def _deficient():
    """(name, t, rank) of tensors read at a rank above their own: a rank-1
    cube, and a rank-2 8x3x5 tensor whose mode 0 takes the direct SVD."""
    rank1 = np.einsum("i,j,k->ijk", *(np.linspace(1.0, 2.0, n) for n in (12, 10, 8)))
    yield "rank1-at-rank2", rank1, (2, 2, 2)
    rng = np.random.default_rng(6)
    factors = [rng.standard_normal((n, 2)) for n in (8, 3, 5)]
    yield "rank2-8x3x5-at-rank3", multilinear_mul(factors, rng.standard_normal((2, 2, 2))), \
        (3, 3, 3)


def _hosvd_cases():
    """(name, t, rank) of the ``hosvd`` cases beside the configurations'."""
    rng = np.random.default_rng(5)
    yield "order1", rng.standard_normal(9), (1,)
    yield "order2", rng.standard_normal((7, 11)), (3, 2)
    yield "fortran-6x5x7", np.asfortranarray(rng.standard_normal((6, 5, 7))), (2, 3, 2)
    signed = np.where(rng.random((4, 3, 5, 2)) < 0.5, -0.0, 0.0)
    yield "signed-zeros-4x3x5x2", signed, (2, 2, 3, 1)
    yield from _deficient()
    rng = np.random.default_rng(8)
    for dims, rank in (((1, 12, 40), (1, 2, 2)), ((40, 6, 1), (1, 2, 1)),
                       ((1, 1, 12, 40), (1, 1, 2, 2))):
        yield f"view-{'x'.join(map(str, dims))}", rng.standard_normal(dims), rank


def _diagnostics_cases():
    truth = gen_truth((30,) * 3, 2, kappa=5.0, alpha=0.1, seed=0)
    yield "diagnostics-30^3", truth.x_star, (2, 2, 2), truth.s_star
    yield "diagnostics-20^4", gen_truth((20,) * 4, 2, kappa=5.0, alpha=0.1, seed=0).y, \
        (2,) * 4, None
    for name, t, rank in _deficient():
        yield f"diagnostics-{name}", t, rank, None


def _file_cases():
    """(name, t) of the ``.trpc`` write and read cases."""
    rng = np.random.default_rng(7)
    yield "c-order", rng.standard_normal((4, 3, 5))
    yield "fortran", np.asfortranarray(rng.standard_normal((4, 3, 5)))
    yield "strided", rng.standard_normal((6, 7, 8))[::2, 1::3, ::-1]
    yield "float32", rng.standard_normal((3, 4, 2)).astype(np.float32)
    yield "int64", rng.integers(-1000, 1000, size=(5, 2, 3))
    yield "big-endian", rng.standard_normal((2, 3, 4)).astype(">f8")
    yield "order1", rng.standard_normal(9)


# one cell that runs, and one with r above n, whose every trial fails
SWEEP_SPEC = "n = 8\nr = 2, 9\nalpha = 0.125\nkappa = 3.0\ntrials = 2\niters = 30\nseed = 4\n"


def _tucker(name, f, **parts):
    """The line and the arrays of a Tucker pair and further named arrays."""
    arrays = {f"U{k}": u for k, u in enumerate(f.factors)}
    arrays.update(core=f.core, **parts)
    line = {"case": name, "factors": _sha(*f.factors), "core": _sha(f.core)}
    line.update({key: _sha(a) for key, a in parts.items()})
    return line, arrays


def run():
    """Yield ``(line, arrays)`` of every case."""
    for name, y, cfg, ref in _solve_cases():
        result = solve(y, cfg, reference=ref)
        rows = [[r.iteration, r.zeta, r.rel_fro_error, r.inf_error, r.loss]
                for r in result.trace]
        line, arrays = _tucker(name, result.factors, sparse=result.sparse)
        line.update(trace=_sha(rows), stop=result.trace.final.iteration)
        arrays["trace"] = np.array(rows, dtype=np.float64)  # None reads as nan
        yield line, arrays
    for name, y, cfg, ref in _configs():
        sched = make_schedule(cfg, y, ref)
        values = [sched.zeta0, sched.zeta1, sched.rho]
        yield {"case": f"schedule-{name}", "schedule": _sha(values)}, \
            {"schedule": np.array(values)}
        factors, sparse = spectral_init(y, cfg, sched.zeta0)
        yield _tucker(f"init-{name}", factors, sparse=sparse)
        yield _tucker(f"hosvd-{name}", hosvd(y, cfg.rank))
    for name, t, rank in _hosvd_cases():
        yield _tucker(f"hosvd-{name}", hosvd(t, rank))
    for name, m, rank in _svd_cases():
        u, s, v = thin_svd(m, rank)
        yield {"case": f"svd-{name}", "u": _sha(u), "s": _sha(s), "v": _sha(v)}, \
            {"u": u, "s": s, "v": v}
    for name, x, rank, sparse in _diagnostics_cases():
        d = tensor_diagnostics(x, rank, sparse)
        scalars = [d.mu, d.kappa, d.kappa_s, d.sigma_min, d.alpha]
        arrays = {"scalars": np.array(scalars)}
        arrays.update({f"spectrum{k}": s for k, s in enumerate(d.singular_values)})
        yield {"case": name, "diagnostics": _sha(scalars, *d.singular_values)}, arrays
    with tempfile.TemporaryDirectory() as tmp:
        for name, t in _file_cases():
            path = Path(tmp) / f"{name}.trpc"
            write_tensor(path, t)
            blob = path.read_bytes()
            back = read_tensor(path)
            yield {"case": f"file-{name}", "file": hashlib.sha256(blob).hexdigest(),
                   "read": _sha(back)}, \
                {"file": np.frombuffer(blob, dtype=np.uint8), "read": back}
        spec = Path(tmp) / "sweep.txt"
        spec.write_text(SWEEP_SPEC)
        names = [f.name for f in dataclasses.fields(SweepCell) if f.name != "seconds"]
        rows = [[getattr(c, n) for n in names] for c in run_sweep(parse_sweep_spec(spec))]
        yield {"case": "sweep", "cells": _sha(rows)}, {"cells": np.array(rows, dtype=np.float64)}


def _rel_diff(a: np.ndarray, b: np.ndarray) -> float:
    """``max|a - b| / max|a|`` over finite ``a``; runs of different lengths,
    as traces that stop apart, are compared over their common rows."""
    if a.shape[1:] != b.shape[1:] or not a.ndim:
        return float("inf")
    rows = min(len(a), len(b))
    a, b = a[:rows], b[:rows]
    with np.errstate(invalid="ignore", over="ignore"):
        diff = np.abs(a - b)
        both_nan = np.isnan(a) & np.isnan(b)
        same_inf = np.isinf(a) & (a == b)
        diff[both_nan | same_inf] = 0.0
        top = np.max(np.abs(np.where(np.isfinite(a), a, 0.0)), initial=0.0)
        worst = np.max(diff, initial=0.0)
    return float(worst / top) if top > 0 else float(worst)


def compare(path_a: str, path_b: str) -> int:
    with np.load(path_a, allow_pickle=False) as fa, np.load(path_b, allow_pickle=False) as fb:
        lines_a = [json.loads(s) for s in fa["lines"].tolist()]
        lines_b = [json.loads(s) for s in fb["lines"].tolist()]
        env_a, env_b = lines_a.pop(0), lines_b.pop(0)
        if env_a != env_b:
            print(json.dumps({"environments_differ": [env_a, env_b]}))
        by_name = {line["case"]: line for line in lines_b}
        same = 0
        for line in lines_a:
            name = line["case"]
            other = by_name.pop(name, None)
            if other is None:
                print(json.dumps({"case": name, "missing_in": path_b}))
                continue
            if line == other:
                same += 1
                print(json.dumps({"case": name, "identical": True}))
                continue
            prefix = f"{name}|"
            diffs = {}
            for key in fa.files:
                if key.startswith(prefix):
                    field = key[len(prefix):]
                    a = fa[key]
                    b = fb[key] if key in fb.files else np.empty(0)
                    if a.shape != b.shape or not np.array_equal(a, b, equal_nan=True):
                        diffs[field] = _rel_diff(a, b)
            out = {"case": name, "identical": False, "max_rel_diff": diffs}
            if line.get("stop") != other.get("stop"):
                out["stop"] = [line.get("stop"), other.get("stop")]
            print(json.dumps(out))
        for name in by_name:
            print(json.dumps({"case": name, "missing_in": path_a}))
    total = len(lines_a) + len(by_name)
    print(json.dumps({"identical": same, "cases": total}))
    return 0 if same == total else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", nargs="?", help="save the lines and arrays to this .npz")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two saved runs instead of running")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    lines = [environment()]
    print(json.dumps(lines[0]), flush=True)
    saved = {}
    for line, arrays in run():
        print(json.dumps(line), flush=True)
        lines.append(line)
        saved.update({f"{line['case']}|{k}": v for k, v in arrays.items()})
    if args.out:
        np.savez_compressed(args.out, lines=np.array([json.dumps(x) for x in lines]), **saved)
    return 0


if __name__ == "__main__":
    sys.exit(main())
