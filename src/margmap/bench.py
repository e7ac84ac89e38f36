"""Benchmark harness: random instances, oracle comparison, trajectory files.

For each threshold in a grid and each seeded instance, the harness draws
random evidence, runs the greedy explainer on every unobserved variable,
treats whatever it explained as the target set, solves that same set exactly
by brute force, and records exact-match and Hamming accuracy together with
the time spent in marginal queries versus the exact solve. Instance RNG
streams are derived from (master seed, instance index), so results do not
depend on execution order.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from numbers import Integral
from pathlib import Path

import numpy as np

from .model import GraphicalModel, ZeroProbabilityEvidenceError
from .inference import DEFAULT_ORACLE_CAP, OracleTooLargeError, brute_force_mmap, pr
from .heuristic import epsilon_mmap2mar
from .uaiio import parse_uai


@dataclass(frozen=True)
class BenchmarkSpec:
    """One benchmark configuration: model, evidence size, instance count, thresholds."""

    model_path: str | Path
    k: int
    q: int
    epsilon_grid: tuple[float, ...]
    seed: int
    oracle_cap: int = DEFAULT_ORACLE_CAP

    def __post_init__(self) -> None:
        grid = tuple(float(e) for e in self.epsilon_grid)
        if not grid:
            raise ValueError("epsilon_grid must be non-empty")
        if any(not 0.0 <= e <= 1.0 for e in grid):
            raise ValueError("epsilon values must lie in [0, 1]")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("epsilon_grid must be strictly increasing")
        for name in ("k", "q", "seed", "oracle_cap"):
            value = getattr(self, name)
            if not isinstance(value, Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.q < 1:
            raise ValueError("q must be >= 1")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        object.__setattr__(self, "epsilon_grid", grid)


@dataclass(frozen=True)
class InstanceResult:
    """One (epsilon, instance) outcome: the heuristic against the exact solver."""

    epsilon: float
    index: int
    evidence: dict[int, int]
    heuristic_assignment: dict[int, int]
    exact_assignment: dict[int, int]
    exact_match: bool
    hamming_similarity: float
    confidence: float
    explained_fraction: float
    t_mar: float
    t_mmap: float


@dataclass(frozen=True)
class TrajectoryPoint:
    """Per-threshold means over the completed instances."""

    epsilon: float
    exact_match_rate: float
    mean_hamming: float
    mean_explained_fraction: float


@dataclass(frozen=True)
class SkippedInstance:
    epsilon: float
    index: int
    reason: str


def generate_instance(
    model: GraphicalModel,
    k: int,
    rng: np.random.Generator,
    *,
    max_attempts: int = 100,
) -> dict[int, int]:
    """Draw k distinct variables uniformly, then a uniform state for each.

    Draws are consumed in a fixed order (all variables, then one state per
    drawn variable), so a seeded generator reproduces the instance exactly.
    Evidence with zero probability is redrawn up to ``max_attempts`` times
    before giving up.
    """
    n = model.n_vars
    if not 0 < k < n:
        raise ValueError(f"k must satisfy 0 < k < {n}, got {k}")
    for _ in range(max_attempts):
        variables = rng.choice(n, size=k, replace=False)
        evidence = {
            int(v): int(rng.integers(model.cardinalities[int(v)])) for v in variables
        }
        if pr(model, evidence) > 0.0:
            return evidence
    raise ZeroProbabilityEvidenceError(
        f"no evidence with positive probability found in {max_attempts} draws"
    )


def hamming_similarity(a: Mapping[int, int], b: Mapping[int, int]) -> float:
    """One minus the fraction of variables assigned differently; 1 for empty sets."""
    if set(a) != set(b):
        raise ValueError("assignments must cover the same variable set")
    if not a:
        return 1.0
    differing = sum(1 for v in a if a[v] != b[v])
    return 1.0 - differing / len(a)


def run_benchmark(
    spec: BenchmarkSpec,
) -> tuple[list[TrajectoryPoint], list[InstanceResult], list[SkippedInstance]]:
    """Run the full grid of (epsilon, instance) evaluations for a spec.

    An instance is skipped, with its reason recorded, only for a domain
    failure: no evidence with positive probability could be drawn, the
    working evidence became impossible during the greedy run, the explained
    set exceeds the oracle cap, or every explainable variable is observed.
    Any other error, such as ``k`` outside ``0 < k < n`` or a product that
    overflows, propagates and stops the run.
    """
    model = parse_uai(Path(spec.model_path).read_text())
    explainable = [v for v in range(model.n_vars) if model.cardinalities[v] >= 2]

    points: list[TrajectoryPoint] = []
    results: list[InstanceResult] = []
    skipped: list[SkippedInstance] = []
    for eps in spec.epsilon_grid:
        completed: list[InstanceResult] = []
        for index in range(spec.q):
            rng = np.random.default_rng([spec.seed, index])
            try:
                evidence = generate_instance(model, spec.k, rng)
                explain = [v for v in explainable if v not in evidence]
                if not explain:
                    skipped.append(
                        SkippedInstance(eps, index, "no explainable variables left unobserved")
                    )
                    continue
                trace = epsilon_mmap2mar(model, explain, evidence, epsilon=eps)
                start = time.perf_counter()
                exact = brute_force_mmap(
                    model, evidence, trace.explained, cap=spec.oracle_cap
                )
                t_mmap = time.perf_counter() - start
            except (ZeroProbabilityEvidenceError, OracleTooLargeError) as err:
                skipped.append(SkippedInstance(eps, index, str(err)))
                continue
            completed.append(
                InstanceResult(
                    epsilon=eps,
                    index=index,
                    evidence=evidence,
                    heuristic_assignment=dict(trace.explained),
                    exact_assignment=dict(exact.assignment),
                    exact_match=trace.explained == exact.assignment,
                    hamming_similarity=hamming_similarity(
                        trace.explained, exact.assignment
                    ),
                    confidence=trace.confidence,
                    explained_fraction=len(trace.explained) / len(explain),
                    t_mar=trace.mar_seconds,
                    t_mmap=t_mmap,
                )
            )
        results.extend(completed)
        if completed:
            points.append(
                TrajectoryPoint(
                    epsilon=eps,
                    exact_match_rate=_mean(r.exact_match for r in completed),
                    mean_hamming=_mean(r.hamming_similarity for r in completed),
                    mean_explained_fraction=_mean(
                        r.explained_fraction for r in completed
                    ),
                )
            )
    return points, results, skipped


def _mean(values: Iterable[float]) -> float:
    values = list(values)
    return float(sum(values) / len(values))


CSV_HEADER = "epsilon,seed_index,exact_match,hamming,confidence,explained_fraction,t_mar_s,t_mmap_s"


def emit_dat(
    points: Sequence[TrajectoryPoint],
    instances: Sequence[InstanceResult],
    *,
    match_path: str | Path,
    hamming_path: str | Path,
    csv_path: str | Path,
    seed: int | None = None,
) -> None:
    """Write plot-ready accuracy files and the per-instance CSV.

    The two .dat files hold one "epsilon rate" line per trajectory point;
    the CSV holds one row per (epsilon, instance), with the master seed
    echoed in a leading comment when given.
    """
    match_lines = [f"{p.epsilon!r} {p.exact_match_rate!r}" for p in points]
    hamming_lines = [f"{p.epsilon!r} {p.mean_hamming!r}" for p in points]
    Path(match_path).write_text("".join(line + "\n" for line in match_lines))
    Path(hamming_path).write_text("".join(line + "\n" for line in hamming_lines))

    rows = [CSV_HEADER]
    if seed is not None:
        rows.insert(0, f"# seed={seed}")
    for r in instances:
        rows.append(
            ",".join(
                [
                    repr(r.epsilon),
                    str(r.index),
                    str(int(r.exact_match)),
                    repr(r.hamming_similarity),
                    repr(r.confidence),
                    repr(r.explained_fraction),
                    repr(r.t_mar),
                    repr(r.t_mmap),
                ]
            )
        )
    Path(csv_path).write_text("".join(row + "\n" for row in rows))


def read_dat(path: str | Path) -> list[tuple[float, float]]:
    """Re-parse a two-column .dat file written by :func:`emit_dat`."""
    pairs: list[tuple[float, float]] = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        x, y = line.split()
        pairs.append((float(x), float(y)))
    return pairs
