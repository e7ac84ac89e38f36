"""Greedy marginal-guided MMAP inference for discrete graphical models.

The package bundles a small exact-inference core (factor algebra, variable
elimination, exact oracles), a UAI-format loader/writer, a greedy
entropy-guided explainer that reduces joint most-probable-state queries to a
quadratic number of single-variable marginals, and a benchmark harness that
scores the heuristic against the exact solver on random instances.
"""

from .model import (
    Evidence,
    GraphicalModel,
    MassFunction,
    ModelInconsistencyError,
    NetworkKind,
    Potential,
    VariableId,
    ZeroProbabilityEvidenceError,
    factor_marginalize,
    factor_product,
    factor_restrict,
    normalize,
    validate_evidence,
)
from .inference import (
    DEFAULT_ORACLE_CAP,
    MmapSolution,
    OracleTooLargeError,
    brute_force_joint,
    brute_force_mmap,
    entropy,
    mar,
    min_fill_order,
    pr,
)
from .heuristic import (
    ExplanationStep,
    ExplanationTrace,
    epsilon_mmap2mar,
    mmap2mar,
)
from .bench import (
    BenchmarkSpec,
    InstanceResult,
    SkippedInstance,
    TrajectoryPoint,
    emit_dat,
    generate_instance,
    hamming_similarity,
    read_dat,
    run_benchmark,
)
from .generate import random_grid_model, random_model
from .uaiio import (
    UaiParseError,
    parse_evid,
    parse_uai,
    write_evid,
    write_uai,
)

__version__ = "0.1.0"

__all__ = [
    "BenchmarkSpec",
    "DEFAULT_ORACLE_CAP",
    "Evidence",
    "ExplanationStep",
    "ExplanationTrace",
    "GraphicalModel",
    "InstanceResult",
    "MassFunction",
    "MmapSolution",
    "ModelInconsistencyError",
    "NetworkKind",
    "OracleTooLargeError",
    "Potential",
    "SkippedInstance",
    "TrajectoryPoint",
    "UaiParseError",
    "VariableId",
    "ZeroProbabilityEvidenceError",
    "brute_force_joint",
    "brute_force_mmap",
    "emit_dat",
    "entropy",
    "epsilon_mmap2mar",
    "factor_marginalize",
    "factor_product",
    "factor_restrict",
    "generate_instance",
    "hamming_similarity",
    "mar",
    "min_fill_order",
    "mmap2mar",
    "normalize",
    "parse_evid",
    "parse_uai",
    "pr",
    "random_grid_model",
    "random_model",
    "read_dat",
    "run_benchmark",
    "validate_evidence",
    "write_evid",
    "write_uai",
]
