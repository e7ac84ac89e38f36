"""Random desk-scale model generators: grids and free-form scopes."""

from __future__ import annotations

import numpy as np

from .model import GraphicalModel, Potential


def random_grid_model(
    rows: int,
    cols: int,
    cardinality: int = 2,
    *,
    rng: np.random.Generator,
    sigma: float = 1.0,
) -> GraphicalModel:
    """Pairwise grid MRF with one unary potential per node and one per edge.

    Table entries are log-normal, exp(sigma * N(0, 1)), so marginals span a
    realistic range of peakedness. Variables are numbered row-major; a chain
    is just a 1-row (or 1-column) grid.
    """
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be >= 1")
    if cardinality < 2:
        raise ValueError("cardinality must be >= 2")
    n = rows * cols
    cards = (cardinality,) * n

    def node(r: int, c: int) -> int:
        return r * cols + c

    def table(shape: tuple[int, ...]) -> np.ndarray:
        return np.exp(sigma * rng.standard_normal(shape))

    potentials = [Potential((v,), table((cardinality,))) for v in range(n)]
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                potentials.append(
                    Potential(
                        (node(r, c), node(r, c + 1)),
                        table((cardinality, cardinality)),
                    )
                )
            if r + 1 < rows:
                potentials.append(
                    Potential(
                        (node(r, c), node(r + 1, c)),
                        table((cardinality, cardinality)),
                    )
                )
    return GraphicalModel(cards, tuple(potentials))


def random_model(
    n_vars: int,
    *,
    rng: np.random.Generator,
    min_cardinality: int = 2,
    max_cardinality: int = 4,
) -> GraphicalModel:
    """Free-form random model with strictly positive uniform tables.

    Draws ``n_vars`` potentials, each over a random scope of 1 to 3 distinct
    variables (at most ``n_vars``) with entries uniform in [0.1, 1), then
    adds a unary potential with entries from the same range for any variable
    the drawn scopes left uncovered.
    """
    if n_vars < 1:
        raise ValueError("n_vars must be >= 1")
    cards = tuple(int(c) for c in rng.integers(min_cardinality, max_cardinality + 1, n_vars))
    potentials = []
    covered: set[int] = set()
    for _ in range(n_vars):
        size = int(rng.integers(1, min(3, n_vars) + 1))
        scope = tuple(int(v) for v in rng.choice(n_vars, size=size, replace=False))
        shape = tuple(cards[v] for v in scope)
        potentials.append(Potential(scope, rng.uniform(0.1, 1.0, shape)))
        covered.update(scope)
    for v in sorted(set(range(n_vars)) - covered):
        potentials.append(Potential((v,), rng.uniform(0.1, 1.0, (cards[v],))))
    return GraphicalModel(cards, tuple(potentials))
