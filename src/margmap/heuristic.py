"""Greedy reduction of joint most-probable-state queries to single-variable marginals.

Each round computes the conditional marginal of every still-unexplained
variable, commits the least entropic one to its most probable state, and
promotes that pair to the working evidence. Run to completion this explains
the whole target set with a quadratic number of marginal queries; with an
entropy threshold it stops at the first round whose best marginal is not
confident enough, yielding a partial but reliable explanation. The minimum
information gain (1 minus normalized entropy) over the committed steps is
the explanation's confidence score.
"""

from __future__ import annotations

import time
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .model import (
    Evidence,
    GraphicalModel,
    MassFunction,
    ZeroProbabilityEvidenceError,
    _check_explain,
)
from .inference import entropy, mar, pr


@dataclass(frozen=True, eq=False)
class ExplanationStep:
    """One committed greedy step: the variable, its state, and the marginal it came from."""

    variable: int
    chosen_state: int
    entropy_at_selection: float
    marginal: MassFunction


@dataclass(frozen=True, eq=False)
class ExplanationTrace:
    """The full record of a greedy run.

    ``explained`` maps each committed variable to its state; ``unexplained``
    holds the target variables left when a threshold stopped the run (empty
    when the run went to completion). ``p_tilde`` is the joint probability of
    the explained states together with the input evidence, a lower bound on
    the exact optimum over the same set. ``break_entropy`` is the entropy of
    the marginal that failed the threshold, when one did; ``mar_calls`` and
    ``mar_seconds`` account for the marginal queries issued.
    """

    steps: tuple[ExplanationStep, ...]
    explained: dict[int, int]
    unexplained: frozenset[int]
    p_tilde: float
    confidence: float
    epsilon: float | None
    break_entropy: float | None
    mar_calls: int
    mar_seconds: float


def mmap2mar(
    model: GraphicalModel,
    explain: Iterable[int],
    evidence: Evidence | None = None,
) -> ExplanationTrace:
    """Explain every target variable, committing the least entropic marginal each round.

    Issues exactly k(k+1)/2 marginal queries for k target variables. Entropy
    ties pick the lowest variable id; state ties pick the lowest state index.
    """
    return _greedy(model, explain, evidence or {}, epsilon=None)


def epsilon_mmap2mar(
    model: GraphicalModel,
    explain: Iterable[int],
    evidence: Evidence | None = None,
    epsilon: float = 1.0,
) -> ExplanationTrace:
    """Like :func:`mmap2mar`, but stop at the first round whose minimum entropy is >= epsilon.

    A step is committed only under a strict ``entropy < epsilon``, so
    ``epsilon=0`` explains nothing unless a marginal is exactly degenerate.
    """
    epsilon = float(epsilon)
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
    return _greedy(model, explain, evidence or {}, epsilon=epsilon)


def _greedy(
    model: GraphicalModel,
    explain: Iterable[int],
    evidence: Evidence,
    epsilon: float | None,
) -> ExplanationTrace:
    targets = list(_check_explain(model, evidence, explain))
    if not targets:
        raise ValueError("explain set must be non-empty")
    degenerate = [v for v in targets if model.cardinalities[v] < 2]
    if degenerate:
        raise ValueError(
            f"variables {degenerate} have cardinality 1 and cannot be explained"
        )

    working = dict(evidence)
    steps: list[ExplanationStep] = []
    mar_calls = 0
    mar_seconds = 0.0
    break_entropy: float | None = None

    while targets:
        best: tuple[float, int, MassFunction] | None = None
        for v in targets:
            start = time.perf_counter()
            try:
                marginal = mar(model, working, v)
            except ZeroProbabilityEvidenceError as err:
                raise ZeroProbabilityEvidenceError(
                    f"working evidence became impossible at step {len(steps) + 1} "
                    f"while scoring variable {v}"
                ) from err
            mar_seconds += time.perf_counter() - start
            mar_calls += 1
            h = entropy(marginal)
            if best is None or h < best[0]:  # ties keep the lowest variable id
                best = (h, v, marginal)
        h, chosen, marginal = best
        if epsilon is not None and not h < epsilon:
            break_entropy = h
            break
        state = int(np.argmax(marginal.probs))  # ties keep the lowest state index
        steps.append(ExplanationStep(chosen, state, h, marginal))
        working[chosen] = state
        targets.remove(chosen)

    p_tilde = pr(model, evidence)
    for s in steps:
        p_tilde *= float(s.marginal.probs[s.chosen_state])

    trace = ExplanationTrace(
        steps=tuple(steps),
        explained={s.variable: s.chosen_state for s in steps},
        unexplained=frozenset(targets),
        p_tilde=p_tilde,
        confidence=min((1.0 - s.entropy_at_selection for s in steps), default=1.0),
        epsilon=epsilon,
        break_entropy=break_entropy,
        mar_calls=mar_calls,
        mar_seconds=mar_seconds,
    )
    return trace
