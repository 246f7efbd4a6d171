"""Command-line interface.

Subcommands: ``decompose`` (run the solver on a tensor file), ``synth``
(write a synthetic instance), ``sweep`` (grid study from a spec file), and
``info`` (print diagnostics of a tensor).  Every command prints a single
JSON object to stdout on success; failures print a JSON error object to
stderr and exit with a stable code:

    0  success
    2  usage errors: bad flags, a --rank that breaks the rank rule, flags
       inconsistent with the input (ValueError)
    3  unreadable, malformed or unwritable files and degenerate input data
       (TensorFileError, SweepSpecError, InputError, OSError)
    4  solver failures (LinAlgError, such as SingularGramError; DivergenceError)

A non-finite number is written as null, so every line is strict JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import sys

import numpy as np

from . import fileio
from .metrics import sparsity_fraction, tensor_diagnostics
from .rpca import DivergenceError, Reference, SolverConfig, solve
from .synth import gen_truth, run_sweep
from .tensor_ops import check_rank
from .tucker import reconstruct

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_SOLVER = 4


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
        self.exit(EXIT_USAGE, fileio.json_line({"error": "usage", "message": message}) + "\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command tree, built once per process: parsing reads it and never
    changes it, and each parse fills a fresh namespace."""
    parser = _Parser(
        prog="trpca",
        description="Low-multilinear-rank + sparse tensor decomposition",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="separate a tensor file into low-rank + sparse")
    p.add_argument("--input", required=True, help="tensor container file to decompose")
    p.add_argument("--rank", required=True, type=_int_list, metavar="R1,R2,...")
    p.add_argument("--eta", type=float, default=SolverConfig.eta,
                   help=f"step size (default {SolverConfig.eta})")
    p.add_argument("--rho", type=_float_or_auto, default=None, metavar="F|auto",
                   help="threshold decay factor (default 1 - 0.45*eta)")
    p.add_argument("--zeta0", type=_float_or_auto, default=None, metavar="F|auto")
    p.add_argument("--zeta1", type=_float_or_auto, default=None, metavar="F|auto")
    p.add_argument("--iters", type=int, default=SolverConfig.max_iters)
    p.add_argument("--stop-tol", type=float, default=SolverConfig.stop_tol,
                   help="early-exit tolerance on the relative iterate change; 0 disables")
    p.add_argument("--modes", type=_int_list, default=None, metavar="1,0,...",
                   help="per-mode 0/1 mask of factors to update (default: all)")
    p.add_argument("--alpha-estimate", type=float, default=SolverConfig.alpha_estimate,
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


class InputError(Exception):
    """Input data a command cannot use, such as a tensor whose diagnostics
    are undefined."""


@contextlib.contextmanager
def _at(path):
    """Name ``path`` in the JSON error of any input failure raised inside."""
    try:
        yield
    except (fileio.TensorFileError, fileio.SweepSpecError, InputError, OSError) as exc:
        exc.path = str(path)
        raise


def _read(path) -> np.ndarray:
    with _at(path):
        return fileio.read_tensor(path)


def _diagnosed(path, rank):
    """The tensor in ``path`` and its diagnostics at ``rank``: a bad rank is
    a usage error, undefined diagnostics are an input error."""
    t = _read(path)
    try:
        check_rank(t.shape, rank)
    except ValueError as exc:
        raise ValueError(f"--rank for {path}: {exc}") from None
    with _at(path):
        try:
            return t, tensor_diagnostics(t, rank)
        except ValueError as exc:
            raise InputError(str(exc)) from None


# Each ``decompose`` flag that sets a SolverConfig field, by its argparse
# name, and that field: one table builds both the config and the report's
# ``run`` record, so the record carries every setting of the solve.
_CONFIG_FIELDS = {
    "rank": "rank", "eta": "eta", "rho": "rho", "zeta0": "zeta0", "zeta1": "zeta1",
    "iters": "max_iters", "stop_tol": "stop_tol", "modes": "active_modes",
    "alpha_estimate": "alpha_estimate",
}


def _cmd_decompose(args) -> dict:
    y = _read(args.input)
    reference = None
    if args.truth is not None:
        reference = Reference(*_diagnosed(args.truth, args.rank))

    settings = {flag: getattr(args, flag) for flag in _CONFIG_FIELDS}
    cfg = SolverConfig(**{_CONFIG_FIELDS[flag]: value for flag, value in settings.items()})
    factors, sparse, trace = solve(y, cfg, reference=reference)

    if args.out_lowrank:
        fileio.write_tensor(args.out_lowrank, reconstruct(factors))
    if args.out_sparse:
        fileio.write_tensor(args.out_sparse, sparse)
    if args.out_factors:
        for k, u in enumerate(factors.factors):
            fileio.write_tensor(f"{args.out_factors}-factor{k}.trpc", u)
        fileio.write_tensor(f"{args.out_factors}-core.trpc", factors.core)

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
                **settings,
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
        fileio.write_report(args.report, records)
        base, _ = os.path.splitext(args.report)
        fileio.write_trace_csv(base + ".trace.csv", trace)
    return summary


def _cmd_synth(args) -> dict:
    truth = gen_truth(
        args.dims, args.rank, args.kappa, args.alpha,
        corruption_scale=args.scale, seed=args.seed,
    )
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
    fileio.write_tensor(f"{prefix}-y.trpc", truth.y)
    fileio.write_tensor(f"{prefix}-xstar.trpc", truth.x_star)
    fileio.write_tensor(f"{prefix}-sstar.trpc", truth.s_star)
    with open(f"{prefix}-meta.json", "w", encoding="utf-8") as fh:
        fh.write(fileio.json_line(meta, sort_keys=True) + "\n")
    return meta


def _cmd_sweep(args) -> dict:
    with _at(args.spec):
        spec = fileio.parse_sweep_spec(args.spec)
    cells = run_sweep(spec)
    fileio.write_sweep_csv(args.out, cells)
    return {"cells": len(cells), "out": str(args.out)}


def _cmd_info(args) -> dict:
    t, d = _diagnosed(args.input, args.rank)
    return {
        "dims": list(t.shape),
        "rank": list(args.rank),
        "mu": d.mu,
        "kappa": d.kappa,
        "kappa_s": d.kappa_s,
        "sigma_min": d.sigma_min,
        "alpha": sparsity_fraction(t),
    }


_COMMANDS = {
    "decompose": _cmd_decompose,
    "synth": _cmd_synth,
    "sweep": _cmd_sweep,
    "info": _cmd_info,
}


def _fail(exc: Exception, code: int, kind: str) -> int:
    payload = {"error": kind, "message": str(exc)}
    payload.update({k: getattr(exc, k) for k in ("code", "line", "path") if hasattr(exc, k)})
    print(fileio.json_line(payload), file=sys.stderr)
    return code


def main(argv=None) -> int:
    """Run one command and print its JSON result, or map its failure to the
    module docstring's exit-code table and print a JSON error.  The first
    matching clause wins: SingularGramError is a LinAlgError, and LinAlgError
    and SweepSpecError are ValueErrors."""
    args = build_parser().parse_args(argv)
    try:
        result = _COMMANDS[args.command](args)
    except (fileio.SweepSpecError, fileio.TensorFileError, InputError, OSError) as exc:
        return _fail(exc, EXIT_IO, "io")
    except (np.linalg.LinAlgError, DivergenceError) as exc:
        return _fail(exc, EXIT_SOLVER, "solver")
    except ValueError as exc:
        return _fail(exc, EXIT_USAGE, "usage")
    print(fileio.json_line(result))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
