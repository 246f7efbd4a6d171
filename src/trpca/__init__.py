"""Tensor robust principal component analysis.

Separates an observed tensor into a low-multilinear-rank part and an
entrywise-sparse part by scaled gradient descent on a Tucker
factorization, with soft-shrinkage thresholds that decay geometrically.
"""

from .tensor_ops import (
    as_tensor,
    inf_norm,
    l2inf_norm,
    matricize,
    multilinear_mul,
)
from .tucker import (
    TuckerFactors,
    hosvd,
    reconstruct,
)
from .rpca import (
    DivergenceError,
    IterationTrace,
    Reference,
    SingularGramError,
    SolveResult,
    SolverConfig,
    TraceRow,
    make_schedule,
    scaled_step,
    soft_shrink,
    solve,
)
from .metrics import (
    Diagnostics,
    incoherence,
    sparsity_fraction,
    tensor_diagnostics,
)
from .synth import (
    GroundTruth,
    SweepCell,
    SweepSpec,
    gen_truth,
    run_sweep,
    sample_support,
)
from .fileio import (
    TensorFileError,
    SweepSpecError,
    parse_sweep_spec,
    read_tensor,
    write_report,
    write_sweep_csv,
    write_tensor,
    write_trace_csv,
)

__version__ = "0.1.0"

__all__ = [
    "Diagnostics",
    "DivergenceError",
    "GroundTruth",
    "IterationTrace",
    "Reference",
    "SingularGramError",
    "SolveResult",
    "SolverConfig",
    "SweepCell",
    "SweepSpec",
    "SweepSpecError",
    "TensorFileError",
    "TraceRow",
    "TuckerFactors",
    "as_tensor",
    "gen_truth",
    "hosvd",
    "incoherence",
    "inf_norm",
    "l2inf_norm",
    "make_schedule",
    "matricize",
    "multilinear_mul",
    "parse_sweep_spec",
    "read_tensor",
    "reconstruct",
    "run_sweep",
    "sample_support",
    "scaled_step",
    "soft_shrink",
    "solve",
    "sparsity_fraction",
    "tensor_diagnostics",
    "write_report",
    "write_sweep_csv",
    "write_tensor",
    "write_trace_csv",
    "__version__",
]
