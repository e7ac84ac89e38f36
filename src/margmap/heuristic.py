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

import math
import time
from collections.abc import Iterable
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .model import (
    Evidence,
    GraphicalModel,
    MassFunction,
    Potential,
    ZeroProbabilityEvidenceError,
    _check_explain,
    _normalized,
)
from .inference import _Elimination, _core, _entropy, _log_z, _over_z


# How far above the least tree entropy a target is still walked. Tree and
# walk entropies differ by rounding only, some 1e-15, so no target that could
# win or tie on its walk is left out.
_TIED = 1e-9


@dataclass(frozen=True, eq=False, slots=True)
class ExplanationStep:
    """One committed greedy step: the variable, its state, and the marginal it came from."""

    variable: int
    chosen_state: int
    entropy_at_selection: float
    marginal: MassFunction


@dataclass(frozen=True, eq=False, slots=True)
class ExplanationTrace:
    """The full record of a greedy run.

    ``explained`` maps each committed variable to its state; ``unexplained``
    holds the target variables left when a threshold stopped the run (empty
    when the run went to completion). ``p_tilde`` is the joint probability of
    the explained states together with the input evidence, a lower bound on
    the exact optimum over the same set: P(evidence), exactly as
    :func:`~margmap.inference.pr` gives it, times each committed state's
    probability in its step's marginal. ``break_entropy`` is the entropy of
    the marginal that failed the threshold, when one did. ``mar_calls``
    counts the logical marginal queries, one per candidate per round
    (k(k+1)/2 for a full run over k targets), although each round of two
    candidates or more is ranked by one bucket tree and walks only the
    candidates within 1e-9 of the least tree entropy, almost always the
    winner alone: the tree keeps the tables of the candidates the last
    committed variable could not reach and computes the others. Each walk,
    one min-fill walk (as for the only candidate of the last round), runs
    on one elimination through a shared message memo. ``mar_seconds`` is
    the time spent scoring this run's rounds, entropies included. Inside
    a :func:`~margmap.inference._sharing` scope the rounds run on the
    model's shared core, and a round an earlier call with the same inputs
    already scored is replayed, not scored again, and still adds the seconds
    it took when it was scored, so ``mar_seconds`` is the cost of this run,
    not wall time.
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
    return _greedy(model, explain, {} if evidence is None else evidence, epsilon=None)


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
    epsilon = _check_epsilon(epsilon)
    return _greedy(model, explain, {} if evidence is None else evidence, epsilon=epsilon)


def _check_epsilon(epsilon: object) -> float:
    """``epsilon`` as a float; it must be a real number, not a bool, in [0, 1]."""
    if not isinstance(epsilon, Real) or isinstance(epsilon, bool):
        raise ValueError(f"epsilon must be a real number, got {epsilon!r}")
    epsilon = float(epsilon)
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
    return epsilon


def _explainable(model: GraphicalModel, evidence: Evidence) -> list[int]:
    """The variables the greedy can explain under ``evidence``: unobserved, with 2+ states."""
    return [v for v in range(model.n_vars) if v not in evidence and model.cardinalities[v] >= 2]


class _RoundLog:
    """The rounds scored so far for one (evidence, target list), kept on the model's core.

    ``rounds`` holds, per scored round in order, the winning step (entropy,
    variable, state and marginal) and the round's seconds; ``evidence_sum``
    is round 1's P(evidence) table and log scale, kept when there is
    evidence. The core the log is kept on scores the next round as a fresh
    core would, whatever it answered in between.
    """

    __slots__ = ("evidence_sum", "rounds")

    def __init__(self) -> None:
        self.evidence_sum: tuple[Potential, float] | None = None
        self.rounds: list[tuple[ExplanationStep, float]] = []


def _greedy(
    model: GraphicalModel,
    explain: Iterable[int],
    evidence: Evidence,
    epsilon: float | None,
) -> ExplanationTrace:
    """The greedy run behind :func:`mmap2mar` and :func:`epsilon_mmap2mar`.

    The run scores its rounds on :func:`~margmap.inference._core`'s
    :class:`~margmap.inference._Elimination` for the model: inside a
    :func:`~margmap.inference._sharing` scope the model's shared core, the
    one its ``pr``, ``mar`` and oracle queries run on, and a fresh one
    outside. It reads them from the :class:`_RoundLog` that core keeps under
    its inputs (evidence items and target list, each as the caller passed
    them), or a new one. It replays each logged round until epsilon stops it,
    and scores, and logs, a round only past the logged ones, so every
    threshold of one instance costs one full run's rounds, and each call
    returns the trace a fresh call would, bit for bit, apart from
    ``mar_seconds``. A call that raises leaves no log behind it if it made a
    new one; outside any scope each call keeps its rounds to itself.
    Scoring (:func:`_score_round`) asks the core for the round's bucket tree
    and its walked targets' tables, under the round's one evidence, so the
    round's calls share one generation of its message memo; only the winner
    becomes a :class:`MassFunction`. Round 1 also asks for the empty keep
    when there is evidence: its table and log scale are those of ``pr``'s
    own elimination, so P(evidence), the start of p~, comes out
    bit-identical without a second elimination, and on a shared core that
    has just answered ``pr`` under the same evidence, as in
    ``run_benchmark``, its walk is memo hits. The ratio to the partition
    function is taken after the last round.
    """
    explain = tuple(explain)
    evidence, targets = _check_explain(model, evidence, explain)
    targets = list(targets)
    if not targets:
        raise ValueError("explain set must be non-empty")
    degenerate = [v for v in targets if model.cardinalities[v] < 2]
    if degenerate:
        raise ValueError(
            f"variables {degenerate} have cardinality 1 and cannot be explained"
        )

    elimination = _core(model)
    key = (tuple(evidence.items()), explain)
    log = elimination.logs.get(key) or _RoundLog()
    working = dict(evidence)
    steps: list[ExplanationStep] = []
    mar_calls = 0
    mar_seconds = 0.0
    break_entropy: float | None = None

    while targets:
        if len(steps) == len(log.rounds):
            log.rounds.append(_score_round(elimination, log, working, targets))
        step, seconds = log.rounds[len(steps)]
        mar_seconds += seconds
        mar_calls += len(targets)
        if epsilon is not None and not step.entropy_at_selection < epsilon:
            break_entropy = step.entropy_at_selection
            break
        steps.append(step)
        working[step.variable] = step.chosen_state
        targets.remove(step.variable)
    elimination.logs[key] = log

    # The first ratio taken on a model also computes its log partition
    # function, a full elimination: after the rounds, only the last round's
    # messages and the round before's not looked up again are alive beside it.
    p_tilde = 1.0
    if log.evidence_sum is not None:
        table, log_scale = log.evidence_sum
        p_tilde = _over_z(model, float(table.values), log_scale)
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
        mar_calls=mar_calls,
        mar_seconds=mar_seconds,
    )


def _score_round(
    elimination: _Elimination, log: _RoundLog, working: Evidence, targets: list[int]
) -> tuple[ExplanationStep, float]:
    """Score the round after ``log``'s on ``elimination``: the least entropic target's step, and its seconds.

    A round of two targets or more is ranked first by the entropies of
    :meth:`~margmap.inference._Elimination.tree`'s tables, and only the
    targets within ``_TIED`` of the least tree entropy, and any whose tree
    entropy is ``None`` (a table of zero or non-finite mass), are walked; a
    round of one target walks it. The walked targets get their tables from
    one :meth:`~margmap.inference._Elimination.table` call each, all asked
    before any is scored, so an overflow raises its ``ValueError`` first;
    their marginals and entropies take the arithmetic of ``normalize`` and
    ``entropy``, and the first of least walk entropy wins, so ties keep the
    lowest variable id. A tree entropy differs from its walk's by rounding
    only, some 1e-15, so the winner and every target tied with it are
    walked: the step is, bit for bit, that of a round that walks every
    target. A tree table is its own component's, up to scale, so the tree
    can find mass where the joint has none; a walk without mass then raises
    the error naming the first target, which a round that walks every
    target names, since then every walk has none. Round 1 (nothing logged
    yet) also keeps P(evidence)'s grand sum on the log. On impossible
    evidence a model without joint mass is named as such before the step
    is.
    """
    start = time.perf_counter()
    walked = targets
    if len(targets) > 1:
        entropies = [h for _, h in elimination.tree(working, targets)]
        line = min([h for h in entropies if h is not None], default=math.inf) + _TIED
        walked = [v for v, h in zip(targets, entropies) if h is None or h <= line]
    tables = [elimination.table(working, (v,))[0] for v in walked]
    if working and not log.rounds:
        log.evidence_sum = elimination.table(working, ())
    scored = []
    for v, table in zip(walked, tables):
        try:
            probs = _normalized(table)
        except ZeroProbabilityEvidenceError as err:
            _log_z(elimination.model)
            raise ZeroProbabilityEvidenceError(
                f"working evidence became impossible at step {len(log.rounds) + 1} "
                f"while scoring variable {targets[0]}"
            ) from err
        scored.append((_entropy(probs), v, probs))
    h, chosen, probs = min(scored, key=lambda s: s[0])  # the first minimum: the lowest id
    seconds = time.perf_counter() - start
    marginal = MassFunction(chosen, probs)
    state = int(np.argmax(marginal.probs))  # ties keep the lowest state index
    return ExplanationStep(chosen, state, h, marginal), seconds
