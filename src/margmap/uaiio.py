"""Read and write discrete graphical models in the UAI text format.

A model file is a whitespace-separated token stream: the network kind
(``MARKOV`` or ``BAYES``), the variable count, the cardinalities, the clique
count, one scope line per clique (size followed by variable ids), then one
table block per clique (entry count followed by that many reals, last scope
variable fastest). Comment lines starting with ``c`` are allowed only before
the kind keyword. The companion ``.evid`` format is a pair count followed by
variable/state pairs.
"""

from __future__ import annotations

import math

import numpy as np

from .model import Evidence, GraphicalModel, NetworkKind, Potential


class UaiParseError(ValueError):
    """Malformed UAI input, with the offending line and token position."""

    def __init__(self, message: str, line: int | None = None, token: int | None = None):
        self.line = line
        self.token = token
        where = ""
        if line is not None:
            where = f"line {line}"
            if token is not None:
                where += f", token {token}"
            where += ": "
        super().__init__(where + message)


class _Cursor:
    """Token stream; the line and token positions are worked out only to report an error."""

    def __init__(self, text: str):
        self.lines = text.splitlines()
        # the header's comment lines, which start with "c" and come before the
        # first other non-blank line, hold no tokens
        self.first = next(
            (i for i, line in enumerate(self.lines) if line.strip()[:1] not in ("", "c")),
            len(self.lines),
        )
        self.tokens = " ".join(self.lines[self.first :]).split()
        self.pos = 0

    def _position(self, index: int) -> tuple[int, int]:
        """The (line, token) position of token ``index``, each from 1; (1, 0) before the first."""
        if index < 0:
            return 1, 0
        positions = [
            (line_no, tok_no)
            for line_no, line in enumerate(self.lines[self.first :], start=self.first + 1)
            for tok_no in range(1, len(line.split()) + 1)
        ]
        return positions[index]

    def next(self, expect: str) -> str:
        if self.pos >= len(self.tokens):
            line = self._position(len(self.tokens) - 1)[0]
            raise UaiParseError(f"unexpected end of input, expected {expect}", line)
        self.pos += 1
        return self.tokens[self.pos - 1]

    def fail(self, message: str) -> UaiParseError:
        """An error at the most recently consumed token."""
        return UaiParseError(message, *self._position(self.pos - 1))

    def take_int(self, what: str, minimum: int = 0) -> int:
        text = self.next(what)
        try:
            value = int(text)
        except ValueError:
            raise self.fail(f"expected {what}, found {text!r}") from None
        if value < minimum:
            raise self.fail(f"{what} must be >= {minimum}, found {value}")
        return value

    def take_float(self, what: str) -> float:
        text = self.next(what)
        try:
            value = float(text)
        except ValueError:
            raise self.fail(f"expected {what}, found {text!r}") from None
        if math.isnan(value) or math.isinf(value):
            raise self.fail(f"{what} must be finite, found {text}")
        return value

    def take_table(self, i: int, count: int) -> np.ndarray:
        """Table ``i``'s ``count`` entries, each finite and non-negative, in one array.

        The block is read by one ``float`` per token and checked as a whole;
        only a block that fails is read again entry by entry, to report its
        first bad entry where it is.
        """
        block = self.tokens[self.pos : self.pos + count]
        try:
            values = np.array([float(tok) for tok in block])
        except ValueError:
            pass
        else:  # NaN fails both bounds
            if values.size == count and 0.0 <= values.min() and values.max() < math.inf:
                self.pos += count
                return values
        entries = []
        for j in range(count):
            value = self.take_float(f"entry {j} of table {i}")
            if value < 0.0:
                raise self.fail(f"negative table value {value}")
            entries.append(value)
        return np.array(entries)

    def finish(self) -> None:
        if self.pos < len(self.tokens):
            text = self.tokens[self.pos]
            raise UaiParseError(f"unexpected trailing token {text!r}", *self._position(self.pos))


def parse_uai(text: str) -> GraphicalModel:
    """Parse model text into a validated graphical model.

    Each table's entries are checked here (finite, non-negative), so its
    potential is built without a second check.
    """
    cur = _Cursor(text)
    kind_text = cur.next("network kind keyword")
    try:
        kind = NetworkKind(kind_text)
    except ValueError:
        raise cur.fail(
            f"unknown network kind {kind_text!r} (expected MARKOV or BAYES)"
        ) from None
    n = cur.take_int("variable count", minimum=1)
    cards = tuple(cur.take_int(f"cardinality of variable {i}", minimum=1) for i in range(n))
    f = cur.take_int("clique count", minimum=0)

    scopes: list[tuple[int, ...]] = []
    for i in range(f):
        size = cur.take_int(f"scope size of clique {i}")
        scope: list[int] = []
        for j in range(size):
            v = cur.take_int(f"variable {j} of clique {i}")
            if v >= n:
                raise cur.fail(f"variable {v} out of range for {n} variables")
            if v in scope:
                raise cur.fail(f"duplicate variable {v} in clique {i}")
            scope.append(v)
        scopes.append(tuple(scope))

    potentials: list[Potential] = []
    for i, scope in enumerate(scopes):
        shape = tuple(cards[v] for v in scope)
        expected = math.prod(shape)
        count = cur.take_int(f"entry count of table {i}")
        if count != expected:
            raise cur.fail(
                f"table {i} declares {count} entries but scope {scope} needs {expected}"
            )
        potentials.append(Potential._result(scope, cur.take_table(i, count).reshape(shape)))
    cur.finish()
    return GraphicalModel(cards, tuple(potentials), network_kind=kind)


def write_uai(model: GraphicalModel) -> str:
    """Serialize a model; reals are printed with full round-trip precision."""
    lines = [
        model.network_kind.value,
        str(model.n_vars),
        " ".join(str(c) for c in model.cardinalities),
        str(len(model.potentials)),
    ]
    for p in model.potentials:
        lines.append(" ".join([str(len(p.scope)), *(str(v) for v in p.scope)]))
    for p in model.potentials:
        lines.append("")
        lines.append(str(p.flat.size))
        lines.append(" ".join(repr(float(x)) for x in p.flat))
    return "\n".join(lines) + "\n"


def parse_evid(text: str) -> dict[int, int]:
    """Parse an evidence file: a pair count, then variable/state pairs.

    State validity against a model is checked at bind time, not here.
    """
    cur = _Cursor(text)
    count = cur.take_int("evidence pair count")
    evidence: dict[int, int] = {}
    for i in range(count):
        v = cur.take_int(f"variable of pair {i}")
        s = cur.take_int(f"state of pair {i}")
        if v in evidence:
            raise cur.fail(f"variable {v} observed twice")
        evidence[v] = s
    cur.finish()
    return evidence


def write_evid(evidence: Evidence) -> str:
    """Serialize evidence as a count followed by sorted variable/state pairs."""
    parts = [str(len(evidence))]
    for v in sorted(evidence):
        parts.extend([str(int(v)), str(int(evidence[v]))])
    return " ".join(parts) + "\n"
