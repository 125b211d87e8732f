"""Finite weighted graphs with the conventions the dynamics kernels need.

Vertices are labelled 1..n.  The six-vertex benchmark topologies use the
letters A..F, which map to 1..6 in order.  Each undirected edge is stored
once, as a row i < j of the read-only ``edges`` array with one nonnegative
weight in ``weights``, so weight symmetry holds by construction.  Sums over
ordered vertex pairs are realised by iterating every unordered edge in both
directions through the precomputed ``tail``/``head`` index arrays (0-based,
aligned with density vectors) and the doubled weights ``pair_weight``.  Four
methods are the only readers of those arrays, so the flows and H never see
how edges are stored: ``coupling(rule, x)`` gives omega * theta(x_tail, x_head)
per ordered edge, ``coupling_and_slope(rule, x)`` adds omega * d theta/d x_tail
from the same gather and one ``rule.theta_and_slope`` call, ``diff(x)`` gives
x_tail - x_head and ``scatter(v)`` sums edge values onto their tail vertices.
"""
from __future__ import annotations

import json
import numbers
import os
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


def _array(values, width=None) -> np.ndarray:
    """``values`` as an (m, width) float array, or (m,) without a width."""
    try:
        a = np.array(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise GraphConstructionError(f"malformed edge data: {exc}") from exc
    row = () if width is None else (width,)
    a = a.reshape((0, *row)) if a.size == 0 else a
    if a.ndim == 0 or a.shape[1:] != row:
        raise GraphConstructionError(f"edge data must have shape {('m', *row)}, got {a.shape}")
    return a


def _vertex_count(n) -> int:
    """``n`` as an int of at least 2; an integral float such as 3.0 is accepted."""
    if not (isinstance(n, numbers.Real) and float(n).is_integer()):
        raise GraphConstructionError(f"vertex count must be an integer, got {n!r}")
    if n < 2:
        raise GraphConstructionError(f"need at least 2 vertices, got n={int(n)}")
    return int(n)


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected weighted graph on vertices 1..n, no self-loops or multi-edges.

    Graphs compare by n, edges and weights and are not hashable.
    """

    n: int
    edges: np.ndarray
    weights: np.ndarray

    tail: np.ndarray = field(init=False, repr=False)
    head: np.ndarray = field(init=False, repr=False)
    pair_weight: np.ndarray = field(init=False, repr=False)
    _unit_weights: bool = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "n", _vertex_count(self.n))
        pairs, w = _array(self.edges, 2), _array(self.weights)
        if len(pairs) != len(w):
            raise GraphConstructionError("edge and weight counts differ")
        # Out-of-range labels land on 0 or n + 1, so in-range pairs keep distinct,
        # exact keys; a bad pair sharing a key fails its own, earlier check first.
        e = np.clip(pairs, 0, self.n + 1)
        i, j = e.T
        key = i * (self.n + 2) + j
        order = np.argsort(key, kind="stable")
        repeat = np.zeros(len(key), dtype=bool)
        repeat[order[1:]] = key[order[1:]] == key[order[:-1]]
        checks = (  # in the order they apply to each edge
            (GraphConstructionError, "non-integer label", np.any(e != np.round(e), axis=1)),
            (VertexIndexError, f"outside 1..{self.n}", np.any((e < 1) | (e > self.n), axis=1)),
            (SelfLoopError, "self-loop", i == j),
            (GraphConstructionError, "not stored with i < j", i > j),
            (DuplicateEdgeError, "duplicate edge", repeat),
            (NegativeWeightError, "negative weight", w < 0),
            (GraphConstructionError, "non-finite weight", ~np.isfinite(w)),
        )
        # The input is refused for the first failing check on the first edge that fails any.
        failed = np.flatnonzero(np.column_stack([mask for _, _, mask in checks]))
        if failed.size:
            k, c = divmod(int(failed[0]), len(checks))
            error, reason, _ = checks[c]
            raise error(f"edge ({pairs[k, 0]:g}, {pairs[k, 1]:g}) with weight {w[k]:g}: {reason}")
        edges = e.astype(np.intp)
        edges.flags.writeable = w.flags.writeable = False
        src, dst = edges.T - 1
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "tail", np.concatenate([src, dst]))
        object.__setattr__(self, "head", np.concatenate([dst, src]))
        object.__setattr__(self, "pair_weight", np.concatenate([w, w]))
        object.__setattr__(self, "_unit_weights", bool(np.all(w == 1.0)))

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and all(
            map(np.array_equal, (self.edges, self.weights), (other.edges, other.weights))
        )

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    # On unit weights both methods return the rule's arrays as they are: the
    # product by 1 is exact, and skipping it keeps the fields' cost unchanged.
    def coupling(self, rule, x: np.ndarray) -> np.ndarray:
        """omega * theta(x[tail], x[head]) along every ordered edge."""
        th = rule.theta(x[self.tail], x[self.head])
        return th if self._unit_weights else self.pair_weight * th

    def coupling_and_slope(self, rule, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """omega * theta and omega * d theta/d x_tail along every ordered edge."""
        th, slope = rule.theta_and_slope(x[self.tail], x[self.head])
        if self._unit_weights:
            return th, slope
        return self.pair_weight * th, self.pair_weight * slope

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
        lo, hi = self.edges[:, 0], self.edges[:, 1]
        return tuple(np.sort(np.concatenate([hi[lo == j], lo[hi == j]])).tolist())

    def degree(self, j: int) -> int:
        return len(self.neighbors(j))

    def to_json(self) -> str:
        rows = np.column_stack([self.edges.astype(object), self.weights.astype(object)])
        return json.dumps({"n": self.n, "edges": rows.tolist()})


def build_graph(n: int, weighted_edges) -> Graph:
    """Build a graph from 1-based unordered edges with weights.

    ``weighted_edges`` is either a mapping ``{(i, j): omega}`` or an iterable
    of ``(i, j, omega)`` triples.  Endpoint order within a pair is free: the
    pairs are normalised and sorted here, and ``Graph`` checks them.
    """
    if isinstance(weighted_edges, Mapping):
        pairs, weights = _array(list(weighted_edges), 2), _array(list(weighted_edges.values()))
    else:
        table = _array(list(weighted_edges), 3)
        pairs, weights = table[:, :2], table[:, 2]
    pairs = np.sort(pairs, axis=1)
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    return Graph(n=n, edges=pairs[order], weights=weights[order])


def complete_graph(n: int) -> Graph:
    """All n(n-1)/2 unordered pairs with unit weight."""
    n = _vertex_count(n)
    i, j = np.triu_indices(n, k=1)
    return Graph(n=n, edges=np.column_stack([i + 1, j + 1]), weights=np.ones(len(i)))


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
    return build_graph(n, dict.fromkeys(edges, 1.0))


def graph_from_json(text) -> Graph:
    """Parse ``{"n": int, "edges": [[i, j, omega], ...]}`` with 1-based indices.

    ``text`` is JSON text or the document it parses to (a dict).
    """
    try:
        doc = text if isinstance(text, Mapping) else json.loads(text)
        n, edges = doc["n"], doc["edges"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise GraphConstructionError(f"malformed graph document: {exc}") from exc
    return build_graph(n, edges)


def load_graph(spec) -> Graph:
    """Resolve a graph from a graph document (a dict), a registry name or a JSON file path."""
    if isinstance(spec, Mapping):
        return graph_from_json(spec)
    if isinstance(spec, str):
        try:
            return named_graph(spec)
        except UnknownGraphNameError:
            pass
    elif not isinstance(spec, os.PathLike):
        raise UnknownGraphNameError(f"a graph is a document, a name or a file path, got {spec!r}")
    try:
        with open(spec, "r", encoding="utf-8") as fh:
            return graph_from_json(fh.read())
    except OSError as exc:
        raise UnknownGraphNameError(f"{spec!r} is neither a known name nor a readable file") from exc
