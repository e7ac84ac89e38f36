"""What the benchmark measures and why: the single source of BENCHMARK.json.

``write_manifest`` writes ``BENCHMARK.json`` (the keys the benchmark
contract allows) and ``perfbench/choices.json`` (the same tables plus the
reasons that do not fit there: which end-to-end metric each per-layer metric
should move on which workload, the environment, the load model and what is
out of scope).
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path

RUN_SECONDS = 25

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]

WORKLOADS = [
    {
        "name": "greedy-all",
        "why": "6x6 binary grid, 4 evidence, mmap2mar over all 32 others (528 queries): "
        "per-call Python overhead in inference and model dominates",
    },
    {
        "name": "greedy-wide",
        "why": "5x5 grid, cardinality 12, 2 evidence, 5 targets (15 queries): "
        "tables up to 12^6 entries, so bytes moved by numpy dominate",
    },
    {
        "name": "bench-sweep",
        "why": "margmap bench via cli.main on a 4x4 ternary grid, k=3, q=1, 5 epsilons: "
        "the only load on bench, the oracle, pr and cli",
    },
]

# Bounds: the share of the parent's median by which a metric may worsen.
# On a shared 2-core box the speed of the same greedy-all operation drifts by
# 30% over minutes, so times get wide bounds and setup_s (median of three
# cold starts, each including a full operation) the largest.
END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "op_s.p50", "unit": "s", "better": "lower", "bound": 0.24},
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.24},
    {"name": "mar_queries_per_s", "unit": "1/s", "better": "higher", "bound": 0.24},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]

# Printed by every run but not in BENCHMARK.json: the contract asks every
# listed metric of every workload, and these exist only on some.
EXTRA_END_TO_END = [
    {"name": "ops", "unit": "count", "note": "timed operations (sample count of op_s)"},
    {"name": "op_s.p90", "unit": "s", "note": "greedy-wide only: the one workload with >= 100 samples"},
    {"name": "failed_frac", "unit": "1", "note": "failed / attempted; also the result line's failed and attempted"},
]

GREEDY = "op_s.p50 on greedy-all and greedy-wide"
SWEEP = "op_s.p50 on bench-sweep"


def _layer(name: str, unit: str, moves: str) -> dict:
    return {"name": name, "unit": unit, "better": "lower", "moves": moves}


# Per-layer metrics are totals over a traced run: the set-up (parse and warm-up
# operation) and a fixed number of operations, so counts repeat exactly.
PER_LAYER = [
    _layer("uaiio.parse_uai.calls", "count", "setup_s on all; " + SWEEP + " (one parse per call)"),
    _layer("uaiio.parse_uai.s", "s", "setup_s on all; " + SWEEP),
    _layer("uaiio.parse_uai.mb", "MB", "setup_s on all; " + SWEEP),
    _layer("model.factor_product.calls", "count", "mar_queries_per_s on greedy-all (call counts)"),
    _layer("model.factor_product.s", "s", "mar_queries_per_s on greedy-all and greedy-wide"),
    _layer("model.factor_product.max_entries", "entries", "peak_rss_mb on greedy-wide"),
    _layer("model.factor_product.out_mb", "MB_computed", "mar_queries_per_s and peak_rss_mb on greedy-wide (bytes)"),
    _layer("model.factor_restrict.calls", "count", "mar_queries_per_s on greedy-all"),
    _layer("model.factor_restrict.s", "s", "mar_queries_per_s on greedy-all"),
    _layer("model.factor_marginalize.calls", "count", "mar_queries_per_s on greedy-all"),
    _layer("model.factor_marginalize.s", "s", "mar_queries_per_s on greedy-all and greedy-wide"),
    _layer("model.normalize.calls", "count", "mar_queries_per_s on greedy-all"),
    _layer("model.normalize.s", "s", "mar_queries_per_s on greedy-all"),
    _layer("inference.mar.calls", "count", GREEDY),
    _layer("inference.mar.s", "s", GREEDY),
    _layer("inference.mar.self_s", "s", GREEDY),
    _layer("inference.min_fill_order.calls", "count", GREEDY),
    _layer("inference.min_fill_order.s", "s", GREEDY),
    _layer("inference.pr.calls", "count", SWEEP + "; no change on the greedy workloads"),
    _layer("inference.pr.s", "s", SWEEP + "; no change on the greedy workloads"),
    _layer("inference.entropy.calls", "count", GREEDY),
    _layer("inference.entropy.s", "s", GREEDY),
    _layer("inference.brute_force_mmap.calls", "count", SWEEP + "; zero on the greedy workloads"),
    _layer("inference.brute_force_mmap.s", "s", SWEEP + "; zero on the greedy workloads"),
    _layer("inference.brute_force_mmap.self_s", "s", SWEEP + "; zero on the greedy workloads"),
    _layer("inference.brute_force_mmap.states", "states", SWEEP + "; zero on the greedy workloads"),
    _layer("heuristic.solve.calls", "count", "op_s.p50 on greedy-all"),
    _layer("heuristic.solve.s", "s", "op_s.p50 on greedy-all"),
    _layer("heuristic.solve.self_s", "s", "op_s.p50 on greedy-all"),
    _layer("heuristic.mar_calls", "queries", "mar_queries_per_s on greedy-all and greedy-wide (fixed at k(k+1)/2)"),
    _layer("bench.run_benchmark.calls", "count", "ops_per_s on bench-sweep only"),
    _layer("bench.run_benchmark.s", "s", "ops_per_s on bench-sweep only"),
    _layer("bench.run_benchmark.self_s", "s", "ops_per_s on bench-sweep only"),
    _layer("bench.generate_instance.calls", "count", "ops_per_s on bench-sweep only"),
    _layer("bench.generate_instance.s", "s", "ops_per_s on bench-sweep only"),
    _layer("bench.greedy_runs_per_instance", "runs/instance", "ops_per_s on bench-sweep only"),
    _layer("bench.skipped", "count", "failed_frac on bench-sweep (any skip is a failure)"),
    _layer("cli.main.calls", "count", SWEEP + " only"),
    _layer("cli.main.s", "s", SWEEP + " only"),
    _layer("cli.main.self_s", "s", SWEEP + " only"),
    _layer("trace.overhead_frac", "1", "none: 1 - traced ops_per_s / untraced ops_per_s on the same operations"),
]

OUT_OF_SCOPE = [
    "Tier-1 test wall time: about 62 s per sample, too long for one run.",
    "The 10x10 all-unobserved solve: 5050 queries, minutes per operation.",
    "In-program counters (_eliminate stats, an ExplanationTrace stats record, "
    "solve --json): the per-layer numbers come from wrappers outside the package.",
]


def environment() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "platform": sys.platform,
        "load": "closed loop, one client in one process, one operation at a time, no threads",
    }


def write_manifest(root: Path) -> None:
    manifest = {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": [{k: m[k] for k in ("name", "unit", "better")} for m in PER_LAYER],
    }
    (root / "BENCHMARK.json").write_text(json.dumps(manifest, indent=2) + "\n")
    choices = {
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "end_to_end_not_gated": EXTRA_END_TO_END,
        "per_layer": PER_LAYER,
        "environment": environment(),
        "out_of_scope": OUT_OF_SCOPE,
    }
    (root / "perfbench" / "choices.json").write_text(json.dumps(choices, indent=2) + "\n")
