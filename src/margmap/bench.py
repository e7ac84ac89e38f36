"""Benchmark harness: random instances, oracle comparison, trajectory files.

Each seeded instance draws its random evidence once. For each threshold in
a grid and each instance, the harness runs the greedy explainer on every
unobserved variable, treats whatever it explained as the target set, solves
that same set exactly with the constrained-elimination oracle, and records
exact-match and Hamming accuracy together with the time spent in marginal
queries versus the exact solve. Instances run one at a time over the whole
grid. Every threshold's run scores the same rounds until its threshold
stops it, so the instance's runs share one log of greedy rounds and score
each round once, and each distinct explained set is solved once. Rows
still come out in (threshold, instance) order, and the timing columns stay
per-row costs. Instance RNG streams are derived from (master seed, instance
index), so results do not depend on execution order.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import GraphicalModel, ZeroProbabilityEvidenceError, _check_integer
from .inference import (
    DEFAULT_ORACLE_CAP,
    MmapSolution,
    OracleTooLargeError,
    brute_force_mmap,
    pr,
)
from .heuristic import _check_epsilon, _explainable, _sharing_rounds, epsilon_mmap2mar
from .uaiio import parse_uai


@dataclass(frozen=True)
class BenchmarkSpec:
    """One benchmark configuration: model, evidence size, instance count, thresholds.

    Checked on construction: each threshold by the greedy's own epsilon rule,
    the grid strictly increasing; k, q and oracle_cap integers >= 1, seed >= 0.
    """

    model_path: str | Path
    k: int
    q: int
    epsilon_grid: tuple[float, ...]
    seed: int
    oracle_cap: int = DEFAULT_ORACLE_CAP

    def __post_init__(self) -> None:
        grid = self.epsilon_grid
        if isinstance(grid, str) or not isinstance(grid, Sequence):
            raise ValueError(f"epsilon_grid must be a sequence of numbers, got {grid!r}")
        grid = tuple(_check_epsilon(e) for e in grid)
        if not grid:
            raise ValueError("epsilon_grid must be non-empty")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("epsilon_grid must be strictly increasing")
        for name, least in (("k", 1), ("q", 1), ("seed", 0), ("oracle_cap", 1)):
            _check_integer(getattr(self, name), name, least)
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

    Instances run one at a time, each over the whole grid, but results,
    skips and trajectory points come out in (epsilon, index) order. Each
    instance's greedy runs share one :func:`~margmap.heuristic._sharing_rounds`
    scope, so its rounds are scored once across the grid, and each distinct
    explained set is solved by the oracle once. ``t_mar`` and ``t_mmap`` are
    per-row costs: the seconds of that row's own greedy run (replayed rounds
    count the time they took when first scored) and of its oracle solve (a
    reused solve repeats its seconds), so their sums can exceed the run's
    wall time.

    An instance is skipped, with its reason recorded, only for a domain
    failure: no evidence with positive probability could be drawn, the
    working evidence became impossible during the greedy run, the explained
    set exceeds the oracle cap, or every explainable variable is observed.
    Any other error, such as ``k`` outside ``0 < k < n`` or a product that
    overflows, propagates and stops the run.
    """
    model = parse_uai(Path(spec.model_path).read_text())
    grid = spec.epsilon_grid

    # outcomes[i][index]: the row, or the skip, of (grid[i], instance index)
    outcomes: list[list[InstanceResult | SkippedInstance]] = [[] for _ in grid]
    for index in range(spec.q):
        # An instance's evidence and explain set depend only on (seed, index).
        rng = np.random.default_rng([spec.seed, index])
        skip = None
        try:
            evidence = generate_instance(model, spec.k, rng)
        except ZeroProbabilityEvidenceError as err:
            skip = str(err)
        else:
            explain = _explainable(model, evidence)
            if not explain:
                skip = "no explainable variables left unobserved"
        if skip is not None:
            for eps, row in zip(grid, outcomes):
                row.append(SkippedInstance(eps, index, skip))
            continue
        # the oracle's solution and seconds under each explained set met so far
        solved: dict[frozenset[int], tuple[MmapSolution, float]] = {}
        with _sharing_rounds():
            for eps, row in zip(grid, outcomes):
                try:
                    trace = epsilon_mmap2mar(model, explain, evidence, epsilon=eps)
                    explained = frozenset(trace.explained)
                    if explained not in solved:
                        start = time.perf_counter()
                        exact = brute_force_mmap(
                            model, evidence, trace.explained, cap=spec.oracle_cap
                        )
                        solved[explained] = (exact, time.perf_counter() - start)
                except (ZeroProbabilityEvidenceError, OracleTooLargeError) as err:
                    row.append(SkippedInstance(eps, index, str(err)))
                    continue
                exact, t_mmap = solved[explained]
                row.append(
                    InstanceResult(
                        epsilon=eps,
                        index=index,
                        evidence=dict(evidence),
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

    points: list[TrajectoryPoint] = []
    results: list[InstanceResult] = []
    skipped: list[SkippedInstance] = []
    for eps, row in zip(grid, outcomes):
        completed = [r for r in row if isinstance(r, InstanceResult)]
        skipped.extend(r for r in row if isinstance(r, SkippedInstance))
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
