"""Shared fixtures: the rain/commute toy model, enumeration oracles and the
reference implementations the faster engine code is checked against.

The enumeration helpers here deliberately avoid the package's factor algebra
and engine: one joint table built by indexing every potential with the grid
of joint states, and plain sums over it, so they can serve as independent
ground truth for the factor algebra and the inference engine.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from margmap import (
    BenchmarkSpec,
    ExplanationStep,
    ExplanationTrace,
    GraphicalModel,
    Potential,
    ZeroProbabilityEvidenceError,
    entropy,
    factor_marginalize,
    factor_product,
    factor_restrict,
    mar,
    pr,
    run_benchmark,
)
from margmap.generate import random_grid_model, random_model
from margmap.uaiio import write_uai

# Two binary variables: X0 = rain (0 sunny, 1 rainy), X1 = commute (0 walk, 1 drive).
WEATHER_TEXT = "MARKOV\n2\n2 2\n2\n1 0\n2 0 1\n\n2\n0.6 0.4\n\n4\n0.5 0.5 0.125 0.875\n"

WEATHER_JOINT = [0.30, 0.30, 0.05, 0.35]  # flat over (X0, X1), X1 fastest


def make_weather_model() -> GraphicalModel:
    return GraphicalModel(
        (2, 2),
        (
            Potential((0,), [0.6, 0.4]),
            Potential((0, 1), [[0.5, 0.5], [0.125, 0.875]]),
        ),
    )


@pytest.fixture
def weather():
    return make_weather_model()


def eval_potential(p: Potential, assignment: dict[int, int]) -> float:
    """Look one entry up by joint state, independent of table layout helpers."""
    return float(p.values[tuple(assignment[v] for v in p.scope)])


def enumerated_joint(model: GraphicalModel) -> np.ndarray:
    """The unnormalized joint by enumeration, one axis per variable in model order.

    Each potential is indexed by the grid of joint states, so entry s is the
    product of the potentials' entries at s, taken in model order from 1.0,
    as a loop over one joint state at a time multiplies them.
    """
    states = np.indices(model.cardinalities)  # states[v]: variable v's state at each joint state
    joint = np.ones(model.cardinalities)
    for p in model.potentials:
        joint = joint * p.values[tuple(states[v] for v in p.scope)]
    return joint


def joint_by_enumeration(model: GraphicalModel) -> dict[tuple[int, ...], float]:
    """Unnormalized joint table keyed by joint state, in ``itertools.product`` order."""
    states = itertools.product(*(range(c) for c in model.cardinalities))
    return dict(zip(states, enumerated_joint(model).ravel().tolist()))


def _observed(model: GraphicalModel, evidence: dict[int, int]) -> tuple:
    """An index of the joint that fixes each observed variable to its state."""
    return tuple(evidence.get(v, slice(None)) for v in range(model.n_vars))


def pr_by_enumeration(model: GraphicalModel, evidence: dict[int, int]) -> float:
    """Evidence probability by summing the enumerated joint."""
    joint = enumerated_joint(model)
    return float(joint[_observed(model, evidence)].sum() / joint.sum())


def mar_by_enumeration(
    model: GraphicalModel, evidence: dict[int, int], variable: int
) -> list[float]:
    """Conditional marginal of one unobserved variable by summing the enumerated joint."""
    consistent = enumerated_joint(model)[_observed(model, evidence)]
    free = [v for v in range(model.n_vars) if v not in evidence]
    sums = consistent.sum(axis=tuple(i for i, v in enumerate(free) if v != variable))
    total = float(sums.sum())
    if total <= 0:
        raise ZeroDivisionError("evidence has probability zero")
    return (sums / total).tolist()


def entropy_by_formula(probs) -> float:
    """Normalized entropy straight from its definition, via math.log."""
    k = len(probs)
    if k <= 1:
        return 0.0
    return -sum(p * math.log(p, k) for p in probs if p > 0)


def reference_min_fill_order(model, eliminate, evidence=()):
    """Min-fill that recounts every remaining variable's fill edges at every step."""
    dropped = {int(v) for v in evidence}
    adjacency = {}
    for p in model.potentials:
        scope = [v for v in p.scope if v not in dropped]
        for v in scope:
            adjacency.setdefault(v, set()).update(u for u in scope if u != v)

    def fill_count(v):
        nbrs = sorted(adjacency.get(v, ()))
        return sum(
            1 for i, a in enumerate(nbrs) for b in nbrs[i + 1 :] if b not in adjacency[a]
        )

    order = []
    remaining = {int(v) for v in eliminate}
    while remaining:
        best = min(sorted(remaining), key=fill_count)
        nbrs = adjacency.pop(best, set())
        for a in nbrs:
            adjacency[a].discard(best)
            adjacency[a].update(b for b in nbrs if b != a)
        order.append(best)
        remaining.discard(best)
    return tuple(order)


def reference_sum_out(model, evidence, keep, order=None):
    """One separate elimination through the public factor ops.

    Eliminates under ``order``'s subsequence over the summed variables, or
    under the reference min-fill order when ``order`` is None. Restricts
    every potential, multiplies each bucket left to right, rescales each
    message to max entry 1, and multiplies what is left onto a table of ones
    over ``keep``; returns the table, its log scale and the entries of the
    largest bucket product (0 when nothing is summed).
    """
    cards = model.cardinalities
    summed = [v for v in range(model.n_vars) if v not in evidence and v not in keep]
    if order is None:
        steps = reference_min_fill_order(model, summed, evidence)
    else:
        steps = [v for v in order if v in summed]
    factors = [factor_restrict(p, evidence, cards) for p in model.potentials]
    log_scale = 0.0
    largest = 0
    for v in steps:
        bucket = [f for f in factors if v in f.scope]
        if not bucket:
            continue
        factors = [f for f in factors if v not in f.scope]
        prod = bucket[0]
        for f in bucket[1:]:
            prod = factor_product(prod, f, cards)
        largest = max(largest, prod.values.size)
        out = factor_marginalize(prod, {v}, cards)
        peak = float(out.values.max())
        if peak > 0.0 and peak != 1.0:
            out = Potential(out.scope, out.values / peak)
            log_scale += math.log(peak)
        factors.append(out)
    table = Potential(tuple(keep), np.ones([cards[v] for v in keep]))
    for f in factors:
        table = factor_product(table, f, cards)
    return table, log_scale, largest


def _shifted(model, offset):
    return tuple(Potential(tuple(v + offset for v in p.scope), p.values) for p in model.potentials)


def differential_models(seed):
    """105 small models of every shape an exact engine must handle bit for bit.

    Free-form and grid models, models with zero entries, two disconnected
    components, cardinality-1 variables, symmetric grids whose marginals tie
    exactly, and last, models of cardinality 8 to 10. numpy sums 8 or more
    contiguous entries pairwise, so from that size on a message's last bits
    depend on the memory layout of its bucket product. Some buckets of the
    last two models, with up to 10^5 joint states, reach the size from which
    the engine sums a bucket along a planned einsum path instead of building
    it, so there its messages agree with the pairwise factor ops only to
    rounding.
    """
    rng = np.random.default_rng(seed)
    models = [random_model(int(rng.integers(3, 10)), rng=rng) for _ in range(30)]
    for _ in range(20):
        rows, cols, card = (int(x) for x in rng.integers((1, 2, 2), (4, 4, 4)))
        models.append(random_grid_model(rows, cols, card, rng=rng, sigma=2.0))
    for _ in range(15):
        base = random_model(int(rng.integers(3, 9)), rng=rng, max_cardinality=3)
        zeroed = tuple(
            Potential(p.scope, np.where(rng.random(p.values.shape) < 0.3, 0.0, p.values))
            for p in base.potentials
        )
        models.append(GraphicalModel(base.cardinalities, zeroed))
    for _ in range(15):
        a = random_model(int(rng.integers(2, 6)), rng=rng)
        b = random_model(int(rng.integers(2, 6)), rng=rng)
        models.append(
            GraphicalModel(a.cardinalities + b.cardinalities, a.potentials + _shifted(b, a.n_vars))
        )
    for _ in range(10):
        models.append(random_model(int(rng.integers(3, 9)), rng=rng, min_cardinality=1))
    for _ in range(10):
        rows, cols, card = (int(x) for x in rng.integers((1, 2, 2), (4, 4, 4)))
        coupling = np.where(np.eye(card) > 0, float(rng.choice([0.5, 3.0])), 1.0)
        grid = random_grid_model(rows, cols, card, rng=rng)
        symmetric = tuple(
            Potential(p.scope, np.ones(card) if len(p.scope) == 1 else coupling)
            for p in grid.potentials
        )
        models.append(GraphicalModel(grid.cardinalities, symmetric))
    for _ in range(3):
        rows, cols, card = (int(x) for x in rng.integers((1, 2, 8), (3, 4, 11)))
        models.append(random_grid_model(rows, cols, card, rng=rng, sigma=2.0))
    for _ in range(2):
        n = int(rng.integers(3, 6))
        models.append(random_model(n, rng=rng, min_cardinality=8, max_cardinality=10))
    return models


def trace_bits(trace):
    """A trace's fields, every float as its bytes, apart from ``mar_seconds``."""
    return (
        np.float64(trace.p_tilde).tobytes(),
        np.float64(trace.confidence).tobytes(),
        trace.mar_calls,
        [
            (
                s.variable,
                s.chosen_state,
                np.float64(s.entropy_at_selection).tobytes(),
                s.marginal.variable,
                s.marginal.probs.tobytes(),
            )
            for s in trace.steps
        ],
        trace.explained,
        trace.unexplained,
        repr(trace.break_entropy),
        trace.epsilon,
    )


def reference_greedy(model, targets, evidence, epsilon=None):
    """The greedy run as one separate ``mar`` query per candidate per round.

    Each round commits the candidate of least entropy, the lowest id on
    exact ties. A round without mass raises the error the
    greedy raises: the model's own when it has no joint mass, else one that
    names the step and the first candidate. ``mar_seconds`` is 0.
    """
    targets, working = sorted(targets), dict(evidence)
    steps, calls, break_entropy = [], 0, None
    while targets:
        scored = []
        for v in targets:
            try:
                marginal = mar(model, working, v)
            except ZeroProbabilityEvidenceError:
                pr(model, {})  # a model without joint mass raises its own error
                raise ZeroProbabilityEvidenceError(
                    f"working evidence became impossible at step {len(steps) + 1} "
                    f"while scoring variable {v}"
                ) from None
            calls += 1
            scored.append((entropy(marginal), v, marginal))
        h, chosen, marginal = min(scored, key=lambda s: s[0])  # the first minimum: lowest id
        if epsilon is not None and not h < epsilon:
            break_entropy = h
            break
        state = int(np.argmax(marginal.probs))
        steps.append(ExplanationStep(chosen, state, h, marginal))
        working[chosen] = state
        targets.remove(chosen)
    p_tilde = pr(model, evidence)
    for s in steps:
        p_tilde *= float(s.marginal.probs[s.chosen_state])
    return ExplanationTrace(
        steps=tuple(steps),
        explained={s.variable: s.chosen_state for s in steps},
        unexplained=frozenset(targets),
        p_tilde=p_tilde,
        confidence=min((1.0 - s.entropy_at_selection for s in steps), default=1.0),
        epsilon=epsilon,
        break_entropy=break_entropy,
        mar_calls=calls,
        mar_seconds=0.0,
    )


def random_evidence(model, rng, max_size=2):
    """Up to ``max_size`` observed variables, each at a uniform state."""
    k = int(rng.integers(0, min(max_size, model.n_vars - 1) + 1))
    variables = rng.choice(model.n_vars, size=k, replace=False)
    return {int(v): int(rng.integers(model.cardinalities[v])) for v in variables}


def hub_model(leaves, rng):
    """A binary star: variable 0 joined to each of ``leaves`` leaves by its own potential.

    Min-fill eliminates the leaves first, so the hub's bucket takes one
    message per leaf: more factors than one ``np.einsum`` call takes when
    ``leaves`` is 64 or more.
    """
    potentials = [Potential((0,), rng.uniform(0.1, 1.0, 2))]
    potentials += [Potential((0, v), rng.uniform(0.1, 1.0, (2, 2))) for v in range(1, leaves + 1)]
    return GraphicalModel((2,) * (leaves + 1), tuple(potentials))


def one_state_crowd_model(crowd, chain, rng):
    """Binary variable 0 in one potential with ``crowd`` one-state variables, beside a binary chain.

    The chain's ``chain`` variables follow the crowd, each joined to the
    next. Min-fill eliminates variable 0 first, from a bucket of ``crowd + 1``
    variables: past einsum's 52 labels when ``crowd`` is 52 or more. numpy
    1.x holds at most 32 axes in an array.
    """
    cards = (2,) + (1,) * crowd + (2,) * chain
    potentials = [Potential(tuple(range(crowd + 1)), rng.uniform(0.5, 2.0, cards[: crowd + 1]))]
    potentials += [
        Potential((v, v + 1), rng.uniform(0.5, 2.0, (2, 2)))
        for v in range(crowd + 1, len(cards) - 1)
    ]
    return GraphicalModel(cards, tuple(potentials))


GRID_EPSILONS = (0.0, 0.5, 1.0)
GRID_K = 3
GRID_Q = 500


@pytest.fixture(scope="session")
def grid_bench(tmp_path_factory):
    """A 3x3 grid benchmark shared by the trend tests; expensive, so session scoped."""
    rng = np.random.default_rng(3)
    model = random_grid_model(3, 3, 3, rng=rng, sigma=2.0)
    path = tmp_path_factory.mktemp("grid") / "grid3x3.uai"
    path.write_text(write_uai(model))
    spec = BenchmarkSpec(
        model_path=path,
        k=GRID_K,
        q=GRID_Q,
        epsilon_grid=GRID_EPSILONS,
        seed=7,
    )
    points, results, skipped = run_benchmark(spec)
    return spec, points, results, skipped
