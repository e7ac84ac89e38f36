"""The public API: the exact set of names ``margmap`` exports."""

import margmap


def test_all_is_pinned_and_resolves():
    # an addition or removal changes this list, so it shows in review
    assert sorted(margmap.__all__) == [
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
    for name in margmap.__all__:
        assert hasattr(margmap, name), name
