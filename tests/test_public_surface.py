"""The package's public names and the bindings the benchmark tracer patches."""

import importlib
import importlib.util
import sys
from pathlib import Path

import trpca
import trpca.cli  # noqa: F401  (every module the tracer plan names is loaded)

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer(monkeypatch):
    # loaded by path, and without leaving a bytecode cache in perfbench/
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_plan_resolves(monkeypatch):
    # building a Tracer looks up every (module, attr) of PLAN, so a rename
    # here would crash every traced benchmark run
    tracer = _load_tracer(monkeypatch)
    for _, modname, attr, _ in tracer.PLAN:
        assert callable(getattr(importlib.import_module(modname), attr)), (modname, attr)
    tracer.Tracer()


def test_a_traced_solve_goes_through_its_public_layers(monkeypatch):
    # the solver's step and shrinks are the public functions, called through
    # their module bindings, so the tracer sees every one: a step per
    # iteration, an expansion per iterate but the last, which a blind solve
    # does not expand, and the init's and the end's shrink, one per slab (one
    # slab here)
    tracer = _load_tracer(monkeypatch)
    truth = trpca.gen_truth((12, 12, 12), 2, kappa=3.0, alpha=0.1, seed=0)
    cfg = trpca.SolverConfig(rank=(2, 2, 2), max_iters=5, stop_tol=0.0)
    t = tracer.Tracer()
    with t.op(0):
        trpca.solve(truth.y, cfg)
    table = t.per_op()[0]
    calls = [table.get(("calls", name), 0)
             for name in ("rpca.scaled_step", "tucker.reconstruct", "rpca.soft_shrink")]
    assert calls == [5, 5, 2]


# Names only tests used; their oracles live in tests/oracles.py, or they are
# gone.  condition_numbers, ConditionNumbers and singular_values measured
# what tensor_diagnostics measures.
TEST_ONLY = ("tensorize", "l1inf_norm", "op_norm", "sparse_norm_bounds_check",
             "NormBoundsReport", "error_report", "ErrorReport", "SolverState",
             "condition_numbers", "ConditionNumbers", "singular_values",
             "align_factors", "AlignmentResult")
# Gone from every module too: a resolved schedule is the SolverConfig that
# make_schedule returns
MERGED = ("ThresholdSchedule",)


def test_all_resolves_and_holds_only_the_used_surface():
    for name in trpca.__all__:
        assert hasattr(trpca, name), name
    # thin_svd, SvdResult, breve_factor, spectral_init and fro_norm stay in
    # their submodules, where the tracer's PLAN resolves them
    for gone in ("solve_orderN", "update_sparse", "kron", "inner", "as_matrix", *TEST_ONLY,
                 *MERGED,
                 "thin_svd", "SvdResult", "breve_factor", "spectral_init", "fro_norm"):
        assert gone not in trpca.__all__ and not hasattr(trpca, gone), gone
    assert trpca.tucker.SvdResult
    modules = [importlib.import_module(f"trpca.{p.stem}")
               for p in Path(trpca.__file__).parent.glob("*.py") if p.stem != "__main__"]
    for module in (trpca, *modules):
        for name in (*TEST_ONLY, *MERGED):
            assert not hasattr(module, name), (module.__name__, name)

