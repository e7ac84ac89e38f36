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
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from contextvars import ContextVar
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
from .inference import _Elimination, _entropy, _log_z, _over_z


# A round with this many targets or more is screened by one bucket-tree pass
# before its near-best targets are scored, each on its own elimination walk.
# Per round, the screen wins from 3 to 8 targets on binary and ternary 4x4 to
# 6x6 grids and on a 5x5 grid of 12-state variables, whose buckets reach 12^5
# entries, and the walks win below that; the line is the largest of those
# crossovers. So a 5-target run on the 12-state grid is never screened.
_SCREEN_CANDIDATES = 8

# How far above the least tree entropy a target is still scored. Tree and
# walk entropies differ by rounding only, some 1e-15, so no target that could
# win or tie is left out.
_SCREEN_MARGIN = 1e-9


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
    (k(k+1)/2 for a full run over k targets), although each round scores
    its candidates on one elimination, with one min-fill walk each through a
    shared message memo, and a round of ``_SCREEN_CANDIDATES`` candidates or
    more screens them first and walks only for the near-best: one bucket
    tree answers the candidates the last committed variable could reach, and
    the others keep their entropy from the round before. ``mar_seconds`` is
    the time spent scoring this run's rounds, entropies included. Inside
    :func:`_sharing_rounds`, a round an earlier call already scored is
    replayed, not scored again, and still adds the seconds it took when it
    was scored, so ``mar_seconds`` is the cost of this run, not wall time.
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
    """The rounds scored so far for one (model, evidence, target list).

    ``rounds`` holds, per scored round in order, the winning step (entropy,
    variable, state and marginal) and the round's seconds; ``elimination``
    has run exactly those rounds, so it goes on with the next one as a fresh
    run would; ``evidence_sum`` is round 1's P(evidence) table and log scale,
    kept when there is evidence. ``carry`` is ``None`` unless the last
    scored round was screened; then it holds that round's screen entropy of
    each of its targets and, as a bitmask, the free variables its winner
    could reach in that round's graph, which :func:`_screen` asks again.
    """

    __slots__ = ("elimination", "evidence_sum", "rounds", "carry")

    def __init__(self, model: GraphicalModel):
        self.elimination = _Elimination(model)
        self.evidence_sum: tuple[Potential, float] | None = None
        self.rounds: list[tuple[ExplanationStep, float]] = []
        self.carry: tuple[dict[int, float | None], int] | None = None


_round_logs: ContextVar[dict[tuple, _RoundLog] | None] = ContextVar("_round_logs", default=None)


@contextmanager
def _sharing_rounds() -> Iterator[None]:
    """A scope in which greedy runs on the same inputs score each round once.

    Inside it, :func:`mmap2mar` and :func:`epsilon_mmap2mar` keep a
    :class:`_RoundLog` per (model, evidence items, target list), each as the
    caller passed it. A call replays the logged rounds until its epsilon
    stops it and scores, and logs, only the rounds past them, so every
    threshold of one instance costs one full run's rounds. Each call returns
    the trace a fresh call would, bit for bit, apart from ``mar_seconds``. A
    call that raises leaves no log behind it if it made a new one. Outside
    any scope each call keeps its rounds to itself. ``run_benchmark`` opens
    one scope per instance.
    """
    token = _round_logs.set({})
    try:
        yield
    finally:
        _round_logs.reset(token)


def _greedy(
    model: GraphicalModel,
    explain: Iterable[int],
    evidence: Evidence,
    epsilon: float | None,
) -> ExplanationTrace:
    """The greedy run behind :func:`mmap2mar` and :func:`epsilon_mmap2mar`.

    The run reads its rounds from a :class:`_RoundLog`: the one kept under
    its inputs in an open :func:`_sharing_rounds` scope, or a new one. It
    replays each logged round until epsilon stops it, and scores a round only
    past the logged ones. Scoring asks the log's
    :class:`~margmap.inference._Elimination` for each candidate's table in
    turn, under the round's one evidence, so the round's calls share one
    generation of its message memo, and scores each one straight from its
    table, with the arithmetic of ``normalize`` and ``entropy``; only the
    winner becomes a :class:`MassFunction`. Round 1 also asks for the empty
    keep when there is evidence: its table and log scale are those of
    ``pr``'s own elimination, so P(evidence), the start of p~, comes out
    bit-identical without a second elimination. The ratio to the partition
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

    logs = _round_logs.get()
    # the log holds the model (in its elimination), so the id stays the model's
    key = (id(model), tuple(evidence.items()), explain)
    log = logs.get(key) if logs is not None else None
    if log is None:
        log = _RoundLog(model)
    working = dict(evidence)
    steps: list[ExplanationStep] = []
    mar_calls = 0
    mar_seconds = 0.0
    break_entropy: float | None = None

    while targets:
        if len(steps) == len(log.rounds):
            log.rounds.append(_score_round(log, working, targets))
        step, seconds = log.rounds[len(steps)]
        mar_seconds += seconds
        mar_calls += len(targets)
        if epsilon is not None and not step.entropy_at_selection < epsilon:
            break_entropy = step.entropy_at_selection
            break
        steps.append(step)
        working[step.variable] = step.chosen_state
        targets.remove(step.variable)
    if logs is not None:
        logs[key] = log

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
    log: _RoundLog, working: Evidence, targets: list[int]
) -> tuple[ExplanationStep, float]:
    """Score the round after ``log``'s: the least entropic target's step, and the seconds taken.

    A round of ``_SCREEN_CANDIDATES`` targets or more is screened first by
    :func:`_screen`, and only the targets whose screen entropy is within
    ``_SCREEN_MARGIN`` of the least, or whose tree mass is zero or not
    finite, are scored. Scoring is the same in every round: the scored
    targets, in target order, get their tables from the elimination's walks,
    one :meth:`~margmap.inference._Elimination.table` call each, and the
    first of least entropy wins, so ties keep the lowest variable id. A
    screen entropy differs from its walk entropy by rounding only, some
    1e-15: if every difference is below half the margin, the winner's screen
    entropy is within the margin of the least, so the winner is scored, and
    the round picks the same target, and the step holds the same entropy and
    marginal, bit for bit, as a round that scores every target. If a scored
    table has no mass, every target is scored, so the error names the
    variable an unscreened round names. Round 1 (nothing logged yet) also keeps
    P(evidence)'s grand sum on the log. On impossible evidence a model
    without joint mass is named as such before the step is.
    """
    start = time.perf_counter()
    screen, scored = None, targets
    if len(targets) >= _SCREEN_CANDIDATES:
        screen = _screen(log, working, targets)
        line = min([h for h in screen.values() if h is not None], default=0.0) + _SCREEN_MARGIN
        scored = [v for v in targets if screen[v] is None or screen[v] <= line]
    try:
        h, chosen, probs = _least(log, working, scored)
    except ZeroProbabilityEvidenceError:
        if scored is targets:
            raise
        h, chosen, probs = _least(log, working, targets)
    log.carry = None if screen is None else (screen, log.elimination.linked((chosen,)))
    seconds = time.perf_counter() - start
    marginal = MassFunction(chosen, probs)
    state = int(np.argmax(marginal.probs))  # ties keep the lowest state index
    return ExplanationStep(chosen, state, h, marginal), seconds


def _least(
    log: _RoundLog, working: Evidence, scored: list[int]
) -> tuple[float, int, np.ndarray]:
    """The first of least entropy among ``scored``, from the walks: its entropy, id and probabilities.

    Every target's table is asked for before any is scored, then round 1's
    empty keep, so an overflow anywhere raises before a target without mass.
    """
    elimination = log.elimination
    best: tuple[float, int, np.ndarray] | None = None
    tables = [elimination.table(working, (v,)) for v in scored]
    if working and not log.rounds:
        log.evidence_sum = elimination.table(working, ())
    for v, (table, _) in zip(scored, tables):
        try:
            probs = _normalized(table)
        except ZeroProbabilityEvidenceError as err:
            _log_z(elimination.model)
            raise ZeroProbabilityEvidenceError(
                f"working evidence became impossible at step {len(log.rounds) + 1} "
                f"while scoring variable {v}"
            ) from err
        h = _entropy(probs)
        if best is None or h < best[0]:  # ties keep the lowest variable id
            best = (h, v, probs)
    return best


def _screen(log: _RoundLog, working: Evidence, targets: list[int]) -> dict[int, float | None]:
    """Each target's screen entropy: ``None`` where its tree mass is zero or not finite.

    A target the last round's winner w cannot reach keeps its entropy from
    the last screened round: when w was in another component of that round's
    free graph, observing w leaves the target's marginal as it was. The
    bucket tree (:meth:`~margmap.inference._Elimination.tree`) answers the
    others, walking only their components.
    """
    entropies, asked = {}, targets
    if log.carry is not None:
        carried, linked = log.carry
        entropies = {v: carried[v] for v in targets}
        asked = [v for v in targets if linked >> v & 1]
    if asked:
        entropies.update(zip(asked, _entropies(log.elimination.tree(working, asked))))
    return entropies


def _entropies(tables: list[np.ndarray]) -> list[float | None]:
    """Each table's normalised entropy, as :func:`~margmap.inference.entropy` takes it, in one pass.

    ``None`` where a table's mass is zero or not finite.
    """
    sizes = np.array([t.size for t in tables])
    starts = np.concatenate([[0], np.cumsum(sizes[:-1])])
    flat = np.concatenate(tables)
    with np.errstate(all="ignore"):  # a zero or infinite mass gives None
        mass = np.add.reduceat(flat, starts)
        probs = flat / np.repeat(mass, sizes)
        terms = probs * np.log(np.where(probs > 0.0, probs, 1.0))  # 0 log 0 is 0
        # a one-state table's only term is 1 log 1, so its entropy is 0
        h = np.clip(-np.add.reduceat(terms, starts) / np.log(np.maximum(sizes, 2)), 0.0, 1.0)
    return [float(x) if 0.0 < m < math.inf else None for x, m in zip(h, mass)]
