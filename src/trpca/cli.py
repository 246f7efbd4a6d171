"""Command-line interface.

Subcommands: ``decompose`` (run the solver on a tensor file), ``synth``
(write a synthetic instance), ``sweep`` (grid study from a spec file), and
``info`` (print diagnostics of a tensor).  Every command prints a single
JSON object to stdout on success; failures print a JSON error object to
stderr and exit with a stable code:

    0  success
    2  usage errors (bad flags, or flags inconsistent with the input)
    3  unreadable or malformed input files / degenerate input data
    4  solver failures (singular Gram matrices, divergence)
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import fileio
from .metrics import sparsity_fraction, tensor_diagnostics
from .rpca import (
    DivergenceError,
    Reference,
    SingularGramError,
    SolverConfig,
    solve,
)
from .synth import gen_truth, run_sweep
from .tucker import reconstruct

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_SOLVER = 4


def _fail(stream_code: int, kind: str, message: str, **extra) -> int:
    payload = {"error": kind, "message": message}
    payload.update(extra)
    print(json.dumps(payload), file=sys.stderr)
    return stream_code


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints, got {text!r}")


def _float_or_auto(text: str):
    if text == "auto":
        return None
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a float or 'auto', got {text!r}")


def _scale_arg(text: str):
    try:
        value = text if text == "mean-abs" else float(text)
    except ValueError:
        value = math.nan
    if value != "mean-abs" and not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"not 'mean-abs' or a finite number > 0: {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # bad flags are JSON usage errors too
        self.exit(EXIT_USAGE, json.dumps({"error": "usage", "message": message}) + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="trpca",
        description="Low-multilinear-rank + sparse tensor decomposition",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="separate a tensor file into low-rank + sparse")
    p.add_argument("--input", required=True, help="tensor container file to decompose")
    p.add_argument("--rank", required=True, type=_int_list, metavar="R1,R2,...")
    p.add_argument("--eta", type=float, default=0.25, help="step size (default 0.25)")
    p.add_argument("--rho", type=_float_or_auto, default=None, metavar="F|auto",
                   help="threshold decay factor (default 1 - 0.45*eta)")
    p.add_argument("--zeta0", type=_float_or_auto, default=None, metavar="F|auto")
    p.add_argument("--zeta1", type=_float_or_auto, default=None, metavar="F|auto")
    p.add_argument("--iters", type=int, default=200)
    p.add_argument("--stop-tol", type=float, default=1e-12,
                   help="early-exit tolerance on the relative iterate change; 0 disables")
    p.add_argument("--modes", type=_int_list, default=None, metavar="1,0,...",
                   help="per-mode 0/1 mask of factors to update (default: all)")
    p.add_argument("--alpha-estimate", type=float, default=0.1,
                   help="corruption guess for the automatic zeta0 rule")
    p.add_argument("--truth", default=None,
                   help="tensor file with the true low-rank part; enables oracle "
                        "thresholds and per-iteration error reporting")
    p.add_argument("--out-lowrank", default=None, help="write the low-rank estimate here")
    p.add_argument("--out-sparse", default=None, help="write the sparse estimate here")
    p.add_argument("--out-factors", default=None, metavar="PREFIX",
                   help="write factor matrices and core as PREFIX-factorK.trpc / PREFIX-core.trpc")
    p.add_argument("--report", default=None,
                   help="write a JSONL run report here plus the trace CSV next to it")

    p = sub.add_parser("synth", help="generate a synthetic instance")
    p.add_argument("--dims", required=True, type=_int_list, metavar="N1,N2,...")
    p.add_argument("--rank", required=True, type=int)
    p.add_argument("--kappa", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--scale", type=_scale_arg, default="mean-abs", metavar="F|mean-abs",
                   help="corruption amplitude rule (default: mean entry magnitude)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-prefix", required=True,
                   help="writes PREFIX-y.trpc, -xstar.trpc, -sstar.trpc, -meta.json")

    p = sub.add_parser("sweep", help="run a parameter sweep from a spec file")
    p.add_argument("--spec", required=True, help="sweep spec file (key = value lines)")
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("info", help="print diagnostics of a tensor file")
    p.add_argument("--input", required=True)
    p.add_argument("--rank", required=True, type=_int_list, metavar="R1,R2,...")
    return parser


def _read_tensor_or_fail(path):
    try:
        return fileio.read_tensor(path), None
    except fileio.TensorFileError as exc:
        return None, _fail(EXIT_IO, "io", str(exc), code=exc.code, path=str(path))
    except OSError as exc:
        return None, _fail(EXIT_IO, "io", str(exc), path=str(path))


def _cmd_decompose(args) -> int:
    y, err = _read_tensor_or_fail(args.input)
    if err is not None:
        return err

    reference = None
    if args.truth is not None:
        x_star, err = _read_tensor_or_fail(args.truth)
        if err is not None:
            return err
        try:
            reference = Reference(x_star, tensor_diagnostics(x_star, args.rank))
        except ValueError as exc:
            return _fail(EXIT_USAGE, "usage", f"invalid truth tensor: {exc}")

    modes = None
    if args.modes is not None:
        if any(v not in (0, 1) for v in args.modes):
            return _fail(EXIT_USAGE, "usage", "--modes entries must be 0 or 1")
        modes = tuple(bool(v) for v in args.modes)

    try:
        cfg = SolverConfig(
            rank=args.rank,
            eta=args.eta,
            rho=args.rho,
            zeta0=args.zeta0,
            zeta1=args.zeta1,
            max_iters=args.iters,
            stop_tol=args.stop_tol,
            active_modes=modes,
            alpha_estimate=args.alpha_estimate,
        )
        factors, sparse, trace = solve(y, cfg, reference=reference)
    except (SingularGramError, DivergenceError, np.linalg.LinAlgError) as exc:
        return _fail(EXIT_SOLVER, "solver", str(exc))
    except ValueError as exc:
        return _fail(EXIT_USAGE, "usage", str(exc))

    lowrank = reconstruct(factors)
    try:
        if args.out_lowrank:
            fileio.write_tensor(args.out_lowrank, lowrank)
        if args.out_sparse:
            fileio.write_tensor(args.out_sparse, sparse)
        if args.out_factors:
            for k, u in enumerate(factors.factors):
                fileio.write_tensor(f"{args.out_factors}-factor{k}.trpc", u)
            fileio.write_tensor(f"{args.out_factors}-core.trpc", factors.core)
    except OSError as exc:
        return _fail(EXIT_IO, "io", str(exc))

    final = trace.final
    summary = {
        "input": args.input,
        "rank": list(factors.rank),
        "iterations": final.iteration,
        "loss": final.loss,
        "rel_fro_error": final.rel_fro_error,
        "inf_error": final.inf_error,
        "seconds": final.seconds,
        "zeta0": trace.rows[0].zeta,
        "zeta1": trace.rows[1].zeta if len(trace.rows) > 1 else args.zeta1,
        "sparse_fraction": sparsity_fraction(sparse),
    }

    if args.report:
        records = [
            {
                "record": "run",
                "command": "decompose",
                "input": str(args.input),
                "rank": list(args.rank),
                "eta": args.eta,
                "rho": args.rho,
                "zeta0": args.zeta0,
                "zeta1": args.zeta1,
                "iters": args.iters,
                "stop_tol": args.stop_tol,
                "modes": None if modes is None else [int(m) for m in modes],
                "truth": args.truth,
            },
            {"record": "final", **{k: v for k, v in summary.items() if k != "input"}},
        ]
        if reference is not None:
            d = reference.diagnostics
            records.insert(1, {
                "record": "diagnostics",
                "mu": d.mu, "kappa": d.kappa, "kappa_s": d.kappa_s,
                "sigma_min": d.sigma_min, "alpha": d.alpha,
            })
        try:
            fileio.write_report(args.report, records)
            base, _ = os.path.splitext(args.report)
            fileio.write_trace_csv(base + ".trace.csv", trace)
        except OSError as exc:
            return _fail(EXIT_IO, "io", str(exc))

    print(json.dumps(summary))
    return EXIT_OK


def _cmd_synth(args) -> int:
    try:
        truth = gen_truth(
            args.dims, args.rank, args.kappa, args.alpha,
            corruption_scale=args.scale, seed=args.seed,
        )
    except ValueError as exc:
        return _fail(EXIT_USAGE, "usage", str(exc))
    prefix = args.out_prefix
    d = truth.diagnostics
    meta = {
        "dims": list(truth.x_star.shape),
        "rank": args.rank,
        "kappa": d.kappa,
        "kappa_s": d.kappa_s,
        "mu": d.mu,
        "sigma_min": d.sigma_min,
        "alpha_per_fiber": d.alpha,
        "entry_fraction": truth.entry_fraction,
        "seed": truth.seed,
    }
    try:
        fileio.write_tensor(f"{prefix}-y.trpc", truth.y)
        fileio.write_tensor(f"{prefix}-xstar.trpc", truth.x_star)
        fileio.write_tensor(f"{prefix}-sstar.trpc", truth.s_star)
        with open(f"{prefix}-meta.json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        return _fail(EXIT_IO, "io", str(exc))
    print(json.dumps(meta))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    try:
        spec = fileio.parse_sweep_spec(args.spec)
    except fileio.SweepSpecError as exc:
        return _fail(EXIT_IO, "io", str(exc), line=exc.line, path=str(args.spec))
    except OSError as exc:
        return _fail(EXIT_IO, "io", str(exc), path=str(args.spec))
    cells = run_sweep(spec)
    try:
        fileio.write_sweep_csv(args.out, cells)
    except OSError as exc:
        return _fail(EXIT_IO, "io", str(exc))
    print(json.dumps({"cells": len(cells), "out": str(args.out)}))
    return EXIT_OK


def _cmd_info(args) -> int:
    t, err = _read_tensor_or_fail(args.input)
    if err is not None:
        return err
    if len(args.rank) != t.ndim:
        return _fail(
            EXIT_USAGE, "usage",
            f"--rank has {len(args.rank)} entries for an order-{t.ndim} tensor",
        )
    try:
        d = tensor_diagnostics(t, args.rank)
    except ValueError as exc:
        return _fail(EXIT_IO, "io", str(exc), path=str(args.input))
    print(json.dumps({
        "dims": list(t.shape),
        "rank": list(args.rank),
        "mu": d.mu,
        "kappa": d.kappa,
        "kappa_s": d.kappa_s,
        "sigma_min": d.sigma_min,
        "alpha": sparsity_fraction(t),
    }))
    return EXIT_OK


_COMMANDS = {
    "decompose": _cmd_decompose,
    "synth": _cmd_synth,
    "sweep": _cmd_sweep,
    "info": _cmd_info,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
