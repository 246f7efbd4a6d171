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


def test_all_resolves_and_holds_only_the_used_surface():
    for name in trpca.__all__:
        assert hasattr(trpca, name), name
    for gone in ("solve_orderN", "update_sparse", "kron", "inner", "as_matrix"):
        assert gone not in trpca.__all__
