"""Finite weighted graphs with the conventions the dynamics kernels need.

Vertices are labelled 1..n.  The six-vertex benchmark topologies use the
letters A..F, which map to 1..6 in order.  Each undirected edge is stored
once per unordered pair with a single nonnegative weight, so weight symmetry
holds by construction.  Sums over ordered vertex pairs are realised by
iterating every unordered edge in both directions through the precomputed
``tail``/``head`` index arrays (0-based, aligned with density vectors).
``diff`` and ``scatter`` own that ordered-edge convention: the flows take
edge differences x_tail - x_head with one and sum edge values onto their
tail vertices with the other.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import (
    DuplicateEdgeError,
    GraphConstructionError,
    NegativeWeightError,
    SelfLoopError,
    UnknownGraphNameError,
    VertexIndexError,
)

_COMPLETE_RE = re.compile(r"^complete\((\d+)\)$")


@dataclass(frozen=True)
class Graph:
    """Undirected weighted graph on vertices 1..n, no self-loops or multi-edges."""

    n: int
    edges: tuple[tuple[int, int], ...]
    weights: tuple[float, ...]

    tail: np.ndarray = field(init=False, repr=False, compare=False)
    head: np.ndarray = field(init=False, repr=False, compare=False)
    pair_weight: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 2:
            raise GraphConstructionError(f"need at least 2 vertices, got n={self.n}")
        if len(self.edges) != len(self.weights):
            raise GraphConstructionError("edge and weight counts differ")
        seen = set()
        for (i, j), w in zip(self.edges, self.weights):
            if not (1 <= i <= self.n) or not (1 <= j <= self.n):
                raise VertexIndexError(f"edge ({i}, {j}) outside vertex range 1..{self.n}")
            if i == j:
                raise SelfLoopError(f"self-loop at vertex {i}")
            if i > j:
                raise GraphConstructionError(f"edge ({i}, {j}) not stored with i < j")
            if (i, j) in seen:
                raise DuplicateEdgeError(f"duplicate edge ({i}, {j})")
            seen.add((i, j))
            if w < 0:
                raise NegativeWeightError(f"edge ({i}, {j}) has negative weight {w}")
        src = np.array([i - 1 for i, _ in self.edges], dtype=np.intp)
        dst = np.array([j - 1 for _, j in self.edges], dtype=np.intp)
        w = np.array(self.weights, dtype=float)
        object.__setattr__(self, "tail", np.concatenate([src, dst]))
        object.__setattr__(self, "head", np.concatenate([dst, src]))
        object.__setattr__(self, "pair_weight", np.concatenate([w, w]))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def diff(self, x: np.ndarray) -> np.ndarray:
        """x[tail] - x[head] along every ordered edge."""
        return x[self.tail] - x[self.head]

    def scatter(self, v: np.ndarray) -> np.ndarray:
        """Sum of the ordered-edge values v onto their tail vertices."""
        return np.bincount(self.tail, weights=v, minlength=self.n)

    def neighbors(self, j: int) -> tuple[int, ...]:
        """Sorted 1-based neighbour labels of vertex j."""
        if not (1 <= j <= self.n):
            raise VertexIndexError(f"vertex {j} outside 1..{self.n}")
        out = [b for a, b in self.edges if a == j] + [a for a, b in self.edges if b == j]
        return tuple(sorted(out))

    def degree(self, j: int) -> int:
        return len(self.neighbors(j))

    def to_json(self) -> str:
        doc = {"n": self.n, "edges": [[i, j, w] for (i, j), w in zip(self.edges, self.weights)]}
        return json.dumps(doc)


def build_graph(n: int, weighted_edges) -> Graph:
    """Validate and build a graph from 1-based unordered edges with weights.

    ``weighted_edges`` is either a mapping ``{(i, j): omega}`` or an iterable
    of ``(i, j, omega)`` triples.  Endpoint order within a pair is free.
    """
    if isinstance(weighted_edges, Mapping):
        items = [(i, j, w) for (i, j), w in weighted_edges.items()]
    else:
        items = [(i, j, w) for i, j, w in weighted_edges]
    pairs = []
    weights = []
    for i, j, w in items:
        i, j = int(i), int(j)
        if i == j:
            raise SelfLoopError(f"self-loop at vertex {i}")
        pairs.append((i, j) if i < j else (j, i))
        weights.append(float(w))
    order = sorted(range(len(pairs)), key=lambda k: pairs[k])
    return Graph(
        n=int(n),
        edges=tuple(pairs[k] for k in order),
        weights=tuple(weights[k] for k in order),
    )


def complete_graph(n: int) -> Graph:
    """All n(n-1)/2 unordered pairs with unit weight."""
    if n < 2:
        raise GraphConstructionError(f"complete graph needs n >= 2, got {n}")
    edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return Graph(n=n, edges=tuple(edges), weights=tuple(1.0 for _ in edges))


_NAMED_EDGES = {
    # Hexagon A-B-C-D-E-F-A.
    "cycle6": (6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)]),
    # The hexagon with edge A-F removed; A and F become degree-1 ends.
    "lattice6": (6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]),
    # Two triangles {A,B,C} and {D,E,F} joined by the edge C-D.
    "ribbon6": (6, [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (4, 6), (5, 6)]),
    # Square A-B-C-D-A.
    "square4": (4, [(1, 2), (2, 3), (3, 4), (1, 4)]),
}


def named_graph(name: str) -> Graph:
    """Benchmark topology by name: cycle6, lattice6, ribbon6, square4, complete(n)."""
    m = _COMPLETE_RE.match(name.strip())
    if m:
        return complete_graph(int(m.group(1)))
    try:
        n, edges = _NAMED_EDGES[name]
    except KeyError:
        raise UnknownGraphNameError(
            f"unknown graph {name!r}; expected one of "
            f"{sorted(_NAMED_EDGES)} or 'complete(n)'"
        ) from None
    return build_graph(n, [(i, j, 1.0) for i, j in edges])


def graph_from_json(text: str) -> Graph:
    """Parse ``{"n": int, "edges": [[i, j, omega], ...]}`` with 1-based indices."""
    doc = json.loads(text)
    try:
        n = doc["n"]
        edges = doc["edges"]
    except (KeyError, TypeError) as exc:
        raise GraphConstructionError(f"malformed graph document: {exc}") from exc
    return build_graph(n, [(e[0], e[1], e[2]) for e in edges])


def load_graph(spec: str) -> Graph:
    """Resolve a graph from a registry name or a JSON file path."""
    m = _COMPLETE_RE.match(spec.strip())
    if m or spec in _NAMED_EDGES:
        return named_graph(spec)
    try:
        with open(spec, "r", encoding="utf-8") as fh:
            return graph_from_json(fh.read())
    except OSError as exc:
        raise UnknownGraphNameError(f"{spec!r} is neither a known name nor a readable file") from exc
