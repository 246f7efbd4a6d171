"""Solver benchmark: one closed-loop caller, seeded instances, one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cli-order4 --seed 0 --seconds 35 --trace 0

Each workload generates its instances from ``--seed``, sets them up (timed
as ``setup_s``), then runs ops back to back, one caller in one process, in
whole cycles over the instances until ``--seconds`` have passed.  Every op is
checked against the ground truth the benchmark holds; an op fails on a
relative Frobenius error above 1e-6, on a solver or file-format exception,
or on a nonzero CLI exit code.  Failed ops stay in the timing samples.

Op and set-up times in the end-to-end metrics are CPU seconds of this
process (``time.process_time``), not wall seconds: BLAS is single-threaded,
so on an idle machine the two agree, but on a shared virtual machine the
guest kernel leaves time stolen by the host and time spent waiting behind
other tasks out of CPU time, while wall time absorbs it.  Wall times are
printed beside them.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each op
twice, once plain and once traced (alternating which goes first), and prints
per-layer metrics from the traced runs plus the tracing overhead; spans are
written to ``perfbench/out/``.  The last stdout line is always the JSON
result; the lines before it are a human-readable table.
"""

from __future__ import annotations

import os

# Single-threaded BLAS (at most nproc): less noise from other tenants.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import csv
import ctypes
import glob
import io
import json
import platform
import resource
import shutil
import statistics
import struct
import sys
import tempfile
from pathlib import Path
from time import perf_counter, process_time
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
GATE_TOL = 1e-6

if not (SRC / "trpca" / "__init__.py").is_file():
    print(f"error: no trpca package under {SRC}; run from a repository checkout",
          file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import trpca  # noqa: E402
from trpca import cli, rpca, synth  # noqa: E402
from trpca.fileio import TensorFileError  # noqa: E402

if Path(trpca.__file__).resolve().parent != SRC / "trpca":
    print(f"error: imported trpca from {trpca.__file__}, not {SRC}", file=sys.stderr)
    sys.exit(2)

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracer import Tracer, replaced  # noqa: E402

SOLVER_ERRORS = (rpca.SingularGramError, rpca.DivergenceError, TensorFileError)


class GateError(Exception):
    """An op's output could not be read back for checking."""


def rel_error(x_hat, x_star) -> float:
    return float(np.linalg.norm((x_hat - x_star).ravel()) / np.linalg.norm(x_star.ravel()))


def expand(factors, core):
    """Dense tensor of a Tucker pair, computed by the benchmark, not the program."""
    x = core
    for k, u in enumerate(factors):
        x = np.moveaxis(np.tensordot(u, x, axes=(1, k)), 0, k)
    return x


def read_trpc(path):
    """Minimal independent reader of the ``.trpc`` container."""
    raw = Path(path).read_bytes()
    if len(raw) < 8 or raw[:4] != b"TRPC":
        raise GateError(f"{path}: not a .trpc file")
    order = raw[5]
    try:
        dims = struct.unpack_from(f"<{order}Q", raw, 8)
        data = np.frombuffer(raw, dtype="<f8", offset=8 + 8 * order)
    except (struct.error, ValueError) as exc:
        raise GateError(f"{path}: malformed header or payload ({exc})") from None
    if data.size != int(np.prod(dims)):
        raise GateError(f"{path}: payload does not match dims {dims}")
    return data.reshape(dims)


class Outcome(NamedTuple):
    """What the benchmark checked about one op."""

    ok: bool
    iterations: int = 0
    iters_to: int | None = None


# --------------------------------------------------------------------------
# Workloads.  setup(k) makes instance k (generation plus a short warm-up
# solve), each instance is set up setup_reps times so that setup_s is a
# median of many set-ups; clear() removes an op's outputs before the next op,
# op(instance) is the timed call into the program, check(instance, raw) gates
# its output, and probe(instance) finds the iterations to 1e-6 where the op's
# own output cannot tell.


class Workload:
    instances = 1
    setup_reps = 1

    def __init__(self, seed, workdir):
        self.seed = seed
        self.dir = workdir

    def instance_seed(self, k):
        return self.seed * self.instances + k

    def clear(self):
        pass

    def probe(self, inst):
        return None


class PaperN30(Workload):
    """30^3, rank 2, kappa 5, alpha 0.1, oracle thresholds via the reference."""

    instances = 5
    setup_reps = 20
    cfg = rpca.SolverConfig(rank=(2, 2, 2), max_iters=300)

    def setup(self, k):
        truth = synth.gen_truth((30, 30, 30), 2, 5.0, 0.1, seed=self.instance_seed(k))
        inst = {"truth": truth, "y": truth.y}
        rpca.solve(inst["y"], rpca.SolverConfig(rank=self.cfg.rank, max_iters=3),
                   reference=truth)
        return inst

    def op(self, inst):
        return rpca.solve(inst["y"], self.cfg, reference=inst["truth"])

    def check(self, inst, res):
        f = res.factors
        err = rel_error(expand(f.factors, f.core), inst["truth"].x_star)
        return Outcome(err <= GATE_TOL, len(res.trace) - 1, res.trace.iterations_to(GATE_TOL))


class BlindN100(Workload):
    """100^3, rank 5, kappa 5, alpha 0.1, no reference, fixed budget."""

    instances = 2
    setup_reps = 5
    # 110 iterations reach ~3e-7 on seeds 0-8 (1e-6 at iteration 98-101).
    cfg = rpca.SolverConfig(rank=(5, 5, 5), max_iters=110, stop_tol=0.0)

    def setup(self, k):
        truth = synth.gen_truth((100, 100, 100), 5, 5.0, 0.1, seed=self.instance_seed(k))
        inst = {"y": truth.y, "x_star": truth.x_star}
        rpca.solve(inst["y"], rpca.SolverConfig(rank=self.cfg.rank, max_iters=3, stop_tol=0.0))
        return inst

    def op(self, inst):
        return rpca.solve(inst["y"], self.cfg)

    def check(self, inst, res):
        f = res.factors
        err = rel_error(expand(f.factors, f.core), inst["x_star"])
        return Outcome(err <= GATE_TOL, len(res.trace) - 1)

    def probe(self, inst):
        """First iteration within 1e-6 of the truth, seen from outside the solver.

        The solver never gets the truth here, so this watches each iterate it
        expands through its ``reconstruct`` binding (call 0 is the spectral
        initialization) and stops the solve once one is within tolerance.
        """
        errors = []

        class Reached(Exception):
            pass

        inner = rpca.reconstruct

        def watch(f):
            x = inner(f)
            errors.append(rel_error(x, inst["x_star"]))
            if errors[-1] <= GATE_TOL:
                raise Reached
            return x

        with replaced(inner, watch):
            try:
                rpca.solve(inst["y"], self.cfg)
            except Reached:
                return len(errors) - 1
        return None


class CliOrder4(Workload):
    """20^4, rank 2, kappa 5, alpha 0.1, through ``trpca.cli.main`` and files."""

    instances = 3
    setup_reps = 10
    outputs = ("run.jsonl", "run.trace.csv", "xhat.trpc", "shat.trpc")

    def _cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        return rc, err.getvalue()

    def setup(self, k):
        prefix = str(self.dir / f"inst{k}")
        rc, err = self._cli(["synth", "--dims", "20,20,20,20", "--rank", "2", "--kappa", "5",
                             "--alpha", "0.1", "--seed", str(self.instance_seed(k)),
                             "--out-prefix", prefix])
        if rc != 0:
            raise RuntimeError(f"synth failed with exit code {rc}: {err}")
        inst = {"truth": f"{prefix}-xstar.trpc",
                "argv": ["decompose", "--input", f"{prefix}-y.trpc",
                         "--truth", f"{prefix}-xstar.trpc", "--rank", "2,2,2,2"]}
        self._cli(inst["argv"] + ["--iters", "3"])
        return inst

    def clear(self):
        # The gate must only see files the op itself wrote.
        for name in self.outputs:
            (self.dir / name).unlink(missing_ok=True)

    def op(self, inst):
        d = self.dir
        return self._cli(inst["argv"] + [
            "--iters", "300", "--report", str(d / "run.jsonl"),
            "--out-lowrank", str(d / "xhat.trpc"), "--out-sparse", str(d / "shat.trpc")])

    def check(self, inst, res):
        rc, _ = res
        if rc != 0:
            return Outcome(False)
        try:
            err = rel_error(read_trpc(self.dir / "xhat.trpc"), read_trpc(inst["truth"]))
            with open(self.dir / "run.trace.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
        except (GateError, OSError):
            return Outcome(False)
        iters_to = next((int(r["iteration"]) for r in rows
                         if r["rel_fro_error"] and float(r["rel_fro_error"]) <= GATE_TOL), None)
        return Outcome(err <= GATE_TOL, int(rows[-1]["iteration"]), iters_to)


WORKLOADS = {"paper-n30": PaperN30, "blind-n100": BlindN100, "cli-order4": CliOrder4}


# --------------------------------------------------------------------------
# Measurement.


@contextlib.contextmanager
def clock(now=perf_counter):
    """Yields a one-element list that receives the block's time on ``now``."""
    elapsed = [0.0]
    t0 = now()
    try:
        yield elapsed
    finally:
        elapsed[0] = now() - t0


def run_op(wl, inst, tracer=None, op_id=0):
    """Run one op (traced when a tracer is given) and gate it.

    Returns (wall seconds, CPU seconds, Outcome).
    """
    wl.clear()
    raw = exc = None
    with clock(process_time) as cpu, tracer.op(op_id) if tracer else clock() as wall:
        try:
            raw = wl.op(inst)
        except SOLVER_ERRORS as e:
            exc = e
    return wall[0], cpu[0], (Outcome(False) if exc is not None else wl.check(inst, raw))


def tail(samples):
    """Highest percentile with at least ten samples beyond it, as (value, pct, n).

    Below 20 samples no percentile above the median qualifies; the maximum is
    given instead, with its sample count.
    """
    s = sorted(samples)
    n = len(s)
    if n < 20:
        return s[-1], 100.0, n
    return s[n - 11], 100.0 * (n - 10) / n, n


def median_or_none(values):
    values = [v for v in values if v is not None]
    return statistics.median_low(values) if values else None


def environment(args):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*")):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    llc = None
    with contextlib.suppress(OSError, AttributeError):
        libc = ctypes.CDLL(None)
        libc.sysconf.restype = ctypes.c_long
        llc = libc.sysconf(194)  # _SC_LEVEL3_CACHE_SIZE (glibc)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "llc_bytes": llc if llc and llc > 0 else None,
        "notes": "byte counts are computed from array sizes; the 8 MB blind-n100 "
                 "tensor is below 4x LLC, so no roofline or bandwidth ratio is reported",
    }


def run_plain(wl, insts, seconds):
    """End-to-end metrics: whole cycles over the instances until time is up."""
    walls, cpus, rates, iters_to, outcomes = [], [], [], [], []
    t_end = perf_counter() + seconds
    while not outcomes or perf_counter() < t_end:
        for inst in insts:
            wall, cpu, out = run_op(wl, inst)
            walls.append(wall)
            cpus.append(cpu)
            outcomes.append(out)
            rates.append(out.iterations / cpu)
            iters_to.append(out.iters_to)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probed = wl.probe(insts[0])
    if probed is not None:
        iters_to = [probed]
    return walls, cpus, rates, iters_to, outcomes, peak_mb


PER_LAYER = (
    # (metric, kind, span name, unit); kind incl = span time, self = minus children.
    ("tucker.breve_factor.s", "incl", "tucker.breve_factor", "s"),
    ("tucker.breve_factor.calls", "calls", "tucker.breve_factor", "count"),
    ("rpca.scaled_step.self_s", "self", "rpca.scaled_step", "s"),
    ("tensor_ops.matricize.s", "incl", "tensor_ops.matricize", "s"),
    ("tensor_ops.matricize.calls", "calls", "tensor_ops.matricize", "count"),
    ("tensor_ops.matricize.bytes_copied", "bytes", "tensor_ops.matricize", "bytes"),
    ("tensor_ops.multilinear_mul.s", "incl", "tensor_ops.multilinear_mul", "s"),
    ("tensor_ops.multilinear_mul.calls", "calls", "tensor_ops.multilinear_mul", "count"),
    ("tensor_ops.multilinear_mul.bytes", "bytes", "tensor_ops.multilinear_mul", "bytes"),
    ("rpca.soft_shrink.s", "incl", "rpca.soft_shrink", "s"),
    ("tensor_ops.norms.s", "incl", "tensor_ops.norms", "s"),
    ("tensor_ops.norms.calls", "calls", "tensor_ops.norms", "count"),
    ("tucker.reconstruct.s", "incl", "tucker.reconstruct", "s"),
    ("tucker.reconstruct.calls", "calls", "tucker.reconstruct", "count"),
    ("rpca.solve.self_s", "self", "rpca.solve", "s"),
    ("rpca.spectral_init.s", "incl", "rpca.spectral_init", "s"),
    ("tucker.hosvd.s", "incl", "tucker.hosvd", "s"),
    ("tucker.thin_svd.s", "incl", "tucker.thin_svd", "s"),
    ("metrics.tensor_diagnostics.s", "incl", "metrics.tensor_diagnostics", "s"),
    ("fileio.read_tensor.s", "incl", "fileio.read_tensor", "s"),
    ("fileio.read_tensor.bytes", "bytes", "fileio.read_tensor", "bytes"),
    ("fileio.write_tensor.s", "incl", "fileio.write_tensor", "s"),
    ("fileio.write_tensor.bytes", "bytes", "fileio.write_tensor", "bytes"),
    ("fileio.report.s", "incl", "fileio.report", "s"),
    ("cli.decompose.self_s", "self", "cli.main", "s"),
)
# Every metric is reported on every workload; a layer the workload's ops
# never call reads 0 (only cli-order4 reaches metrics, fileio and cli).


def run_traced(wl, insts, seconds, tracer, setup_ops):
    """Per-layer metrics: each op runs plain and traced, order alternating."""
    ratios, op_ids, iters, useful, outcomes = [], [], [], [], []
    t_end = perf_counter() + seconds
    i = 0
    while i == 0 or perf_counter() < t_end:
        inst = insts[i % len(insts)]
        for traced in ((True, False) if i % 2 else (False, True)):
            dt, _, out = run_op(wl, inst, tracer if traced else None, i)
            outcomes.append(out)
            if traced:
                t_traced, traced_out = dt, out
            else:
                t_plain = dt
        ratios.append(t_traced / t_plain)
        op_ids.append(i)
        iters.append(traced_out.iterations)
        useful.append(traced_out.iters_to)
        i += 1
    probed = wl.probe(insts[0])
    if probed is not None:
        useful = [probed] * len(useful)
    tables = tracer.per_op()
    metrics = {}
    for name, kind, span, unit in PER_LAYER:
        per_op = [tables[o].get((kind, span), 0.0) for o in op_ids]
        middle = statistics.median(per_op) if unit == "s" else statistics.median_low(per_op)
        metrics[name] = (float(middle), unit)
    metrics["rpca.iterations"] = (statistics.median_low(iters), "count")
    useful_ratios = [u / n for u, n in zip(useful, iters) if u is not None and n > 0]
    metrics["rpca.useful_iter_ratio"] = (
        statistics.median(useful_ratios) if useful_ratios else 0.0, "frac")
    metrics["synth.gen_truth.s"] = (float(statistics.median(
        tables[o].get(("incl", "synth.gen_truth"), 0.0) for o in setup_ops)), "s")
    metrics["trace.overhead_ratio"] = (statistics.median(ratios), "ratio")
    return metrics, outcomes


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir) -> int:
    env = environment(args)
    print("env " + json.dumps(env))
    wl = WORKLOADS[args.workload](args.seed, workdir)
    tracer = Tracer() if args.trace else None

    # Each instance is set up setup_reps times (the last copy is kept) so that
    # setup_s is a median over many set-ups, in CPU seconds like the ops.
    insts, setup_times, setup_walls, setup_ops = [], [], [], []
    for k in range(wl.instances):
        for _ in range(wl.setup_reps):
            setup_ops.append(-1 - len(setup_ops))
            with clock(process_time) as cpu, \
                    tracer.op(setup_ops[-1]) if tracer else clock() as wall:
                inst = wl.setup(k)
            setup_times.append(cpu[0])
            setup_walls.append(wall[0])
        insts.append(inst)

    if tracer is None:
        walls, cpus, rates, iters_to, outcomes, peak_mb = run_plain(wl, insts, args.seconds)
        failed, attempted = sum(not o.ok for o in outcomes), len(outcomes)
        t_val, t_pct, t_n = tail(cpus)
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "solve_cpu_s_p50": (statistics.median(cpus), "s"),
            "solve_cpu_s_tail": (t_val, "s"),
            "iters_per_cpu_s": (statistics.median(rates), "1/s"),
            "iters_to_1e-6": (median_or_none(iters_to), "count"),
            "peak_rss_mb": (peak_mb, "MB"),
            "ops_ok_frac": (1.0 - failed / attempted, "frac"),
        }
        print(f"solve_cpu_s_tail is p{t_pct:.1f} of {t_n} ops; "
              f"ops_failed_frac {failed / attempted:.4f} ({failed}/{attempted})")
        print(f"wall seconds: set-up median {statistics.median(setup_walls)!r}, "
              f"op median {statistics.median(walls)!r}, op p{t_pct:.1f} {tail(walls)[0]!r}")
    else:
        metrics, outcomes = run_traced(wl, insts, args.seconds, tracer, setup_ops)
        failed, attempted = sum(not o.ok for o in outcomes), len(outcomes)
        path = OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz"
        tracer.write(path)
        print(f"{len(tracer.names)} spans written to {path.relative_to(ROOT)}; "
              f"per-layer values are per-op medians over {len(outcomes) // 2} traced ops")

    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value!r:>24} {unit}")
    missing = [k for k, (v, _) in metrics.items() if v is None]
    if missing:
        print(f"error: no value for {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
