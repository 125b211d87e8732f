"""Finite weighted graphs, and the vertex sums the flows take over them.

Vertices are labelled 1..n.  The six-vertex benchmark topologies use the
letters A..F, which map to 1..6 in order.  Each undirected edge is stored
once, as a row i < j of the read-only ``edges`` array with one nonnegative
weight in ``weights``, so weight symmetry holds by construction.  Sums over
ordered vertex pairs are realised by iterating every unordered edge in both
directions through the ``tail``/``head`` index arrays (0-based, aligned with
density vectors) and the doubled weights ``pair_weight``;
``coupling``/``coupling_and_slope`` (omega * theta and omega * d theta/d x_tail
per ordered edge), ``diff`` and ``scatter`` work at that edge level.

The flows and H reach a graph only through its vertex-level operators.  With
theta_ij = theta(x_i, x_j), theta'_ij = d theta_ij/d x_i and sums over the
neighbours j of i,

    F(u)_i    = sum_j omega_ij theta_ij (u_i - u_j)                   (flux)
    K(a, b)_i = sum_j omega_ij theta'_ij (a_i - a_j)(b_i - b_j)        (slope product)
    E(a, b)   = sum_i sum_j omega_ij theta_ij (a_i - a_j)(b_i - b_j)

``flux(rule, x, u)`` is F(u); ``second_order_terms`` gives F(S), K(g - S, g + S)
and F(g); ``hopf_cole_terms`` gives F(xi - xi*), K(xi*, xi), F(xi) and F(xi*);
``pair_energy`` is E(S - g, S + g) = 4 H; ``slope_is_finite`` tells whether
every omega theta'_ij is finite.  On ``Graph`` each is the per-edge
expression of its flow, so each vector is gathered once and the bits are
those of the edge formulas.

``CompleteGraph`` overrides them.  It holds every pair with one weight omega
and builds its edge arrays only when something reads them.  Under a
``MinPower`` rule it evaluates the operators on x sorted once, with prefix
sums, in O(n log n); other rules fall back to the edge list.
``complete_graph`` and ``build_graph`` return one for a complete graph with
one common weight from ``SORTED_MIN_N`` vertices up, the measured crossover
below which the edge list is faster.
"""
from __future__ import annotations

import json
import math
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
from .weights import MinPower

_COMPLETE_RE = re.compile(r"^complete\((\d+)\)$")

#: Vertex count from which a complete graph with one common weight evaluates
#: its operators on sorted densities, O(n log n), instead of on its n(n - 1)
#: ordered edges: the measured crossover of the two paths (see CHANGES.md).
SORTED_MIN_N = 48


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
        self._store_edges(e.astype(np.intp), w)

    def _store_edges(self, edges: np.ndarray, w: np.ndarray) -> None:
        """Keep checked edges and weights read-only, with the ordered-edge arrays."""
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

    # Edge level.  On unit weights the coupling arrays are the rule's arrays as
    # they are: the product by 1 is exact, and skipping it saves a pass.
    def _weighted(self, values: np.ndarray) -> np.ndarray:
        return values if self._unit_weights else self.pair_weight * values

    def coupling(self, rule, x: np.ndarray) -> np.ndarray:
        """omega * theta(x[tail], x[head]) along every ordered edge."""
        return self._weighted(rule.theta(x[self.tail], x[self.head]))

    def coupling_and_slope(self, rule, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """omega * theta and omega * d theta/d x_tail along every ordered edge."""
        th, slope = rule.theta_and_slope(x[self.tail], x[self.head])
        return self._weighted(th), self._weighted(slope)

    def diff(self, x: np.ndarray) -> np.ndarray:
        """x[tail] - x[head] along every ordered edge."""
        return x[self.tail] - x[self.head]

    def scatter(self, v: np.ndarray) -> np.ndarray:
        """Sum of the ordered-edge values v onto their tail vertices."""
        return np.bincount(self.tail, weights=v, minlength=self.n)

    # Vertex level: the operators of the module docstring, on the edge list.
    # Each is its flow's per-edge formula, operation for operation, so it
    # gives that formula's bits; each vector is gathered once for all the sums.
    def flux(self, rule, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        """F(u)_i = sum_j omega_ij theta(x_i, x_j) (u_i - u_j)."""
        xt, xh = x[self.tail], x[self.head]
        du = xt - xh if u is x else self.diff(u)
        return self.scatter(self._weighted(rule.theta(xt, xh)) * du)

    def second_order_terms(self, rule, x, S, g) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """F(S), K(g - S, g + S) and F(g); K's pair factor is (g_i - g_j)^2 - (S_i - S_j)^2."""
        diff, scatter = self.diff, self.scatter
        wth, wdth = self.coupling_and_slope(rule, x)
        dS, dg = diff(S), diff(g)
        return scatter(wth * dS), scatter((dg**2 - dS**2) * wdth), scatter(wth * dg)

    def hopf_cole_terms(self, rule, x, xi, xs) -> tuple[np.ndarray, ...]:
        """F(xi - xs), K(xs, xi), F(xi) and F(xs), with xs = xi*."""
        diff, scatter = self.diff, self.scatter
        wth, wdth = self.coupling_and_slope(rule, x)
        dxi, dxs = diff(xi), diff(xs)
        return (scatter(wth * diff(xi - xs)), scatter(dxs * dxi * wdth),
                scatter(wth * dxi), scatter(wth * dxs))

    def pair_energy(self, rule, x, S, g) -> float:
        """E(S - g, S + g), whose pair factor is (S_i - S_j)^2 - (g_i - g_j)^2."""
        wth, dS, dg = self.coupling(rule, x), self.diff(S), self.diff(g)
        return np.sum(wth * (dS**2 - dg**2))

    def slope_is_finite(self, rule, x) -> bool:
        """Whether omega * d theta/d x_tail is finite on every ordered edge."""
        return bool(np.isfinite(self.coupling_and_slope(rule, x)[1]).all())

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


def _rank(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    order = np.argsort(x, kind="stable")
    return order, x[order]


def _unrank(order: np.ndarray, ranked: np.ndarray) -> np.ndarray:
    """Rank-ordered values (last axis) back in vertex order."""
    out = np.empty_like(ranked)
    out[..., order] = ranked
    return out


def _ranked(order: np.ndarray, *vectors: np.ndarray) -> np.ndarray:
    """The vectors as rows in rank order, each less its lowest-ranked entry.

    The operators see differences only, and the shift keeps the expanded
    products (and sums such as g - S) at the scale of each vector's spread.
    """
    rows = np.array(vectors)[:, order]
    return rows - rows[:, :1]


def _pair_sums(a: np.ndarray, b: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """At each rank k, the sum of (a_k - a_r)(b_k - b_r) over the ranks r >= hi_k
    plus half that over lo_k <= r < hi_k, from exclusive prefix sums of a, b and a b."""
    ab = a * b
    prefix = np.zeros((3, len(ab) + 1))
    np.cumsum(np.array([a, b, ab]), axis=1, out=prefix[:, 1:])
    rest_a, rest_b, rest_ab = prefix[:, -1:] - 0.5 * (prefix[:, lo] + prefix[:, hi])
    return (len(ab) - 0.5 * (lo + hi)) * ab - a * rest_b - b * rest_a + rest_ab


class CompleteGraph(Graph):
    """Every pair of 1..n joined with one weight omega; the edge arrays are built
    on first read.

    Under a ``MinPower`` rule theta_ij = phi(min(x_i, x_j)), so ranking the
    vertices by x turns each operator into prefix sums: vertex k meets each
    lower-ranked vertex through that vertex's phi and each higher-ranked one
    through its own phi_k, and its slope reaches the higher-ranked vertices
    plus half its tie group.  One sort and a few cumulative sums replace the
    n(n - 1) ordered edges.  Other rules use the edge list.
    """

    def __init__(self, n: int, omega: float = 1.0):
        object.__setattr__(self, "n", _vertex_count(n))
        if not (isinstance(omega, numbers.Real) and math.isfinite(omega)):
            raise GraphConstructionError(f"the common weight must be a finite number, got {omega!r}")
        if omega < 0:
            raise NegativeWeightError(f"negative common weight {omega!r}")
        object.__setattr__(self, "omega", float(omega))

    def __getattr__(self, name):
        # Reached only while an edge array is unset: build them all now.
        if name not in ("edges", "weights", "tail", "head", "pair_weight", "_unit_weights"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        i, j = np.triu_indices(self.n, k=1)
        self._store_edges(np.column_stack([i + 1, j + 1]), np.full(len(i), self.omega))
        return vars(self)[name]

    def __repr__(self) -> str:
        return f"CompleteGraph(n={self.n}, omega={self.omega!r})"

    @property
    def edge_count(self) -> int:
        return self.n * (self.n - 1) // 2

    def _phi(self, rule, xr: np.ndarray) -> np.ndarray:
        phi = rule.phi(xr)
        return phi if self.omega == 1.0 else self.omega * phi

    def _dphi(self, rule, xr: np.ndarray) -> np.ndarray:
        """omega * phi'(x) at each rank; 0 at a strict maximum, which has no
        higher-ranked or tied vertex to reach."""
        dphi = rule.dphi(xr)
        dphi = dphi if self.omega == 1.0 else self.omega * dphi
        if xr[-1] > xr[-2]:
            dphi[-1] = 0.0
        return dphi

    def _fluxes(self, phi: np.ndarray, u: np.ndarray) -> np.ndarray:
        """F at each rank for each rank-ordered row of u.

        With inclusive prefix sums P, F_k = u_k P(phi)_k - P(phi u)_k
        + phi_k ((n - 1 - k) u_k + P(u)_k - P(u)_(n-1)).
        """
        k = len(u)
        sums = np.cumsum(np.concatenate([phi[None], phi * u, u]), axis=1)
        s_phi, s_phiu, s_u = sums[0], sums[1 : k + 1], sums[k + 1 :]
        higher = np.arange(self.n - 1, -1, -1, dtype=float)
        return u * s_phi - s_phiu + phi * (higher * u + s_u - s_u[:, -1:])

    def _slope_product(self, rule, xr: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """K(a, b) at each rank: omega phi'_k times the pair sum over the higher
        ranks plus half the tie group of k (k itself adds 0)."""
        lo, hi = np.searchsorted(xr, xr, "left"), np.searchsorted(xr, xr, "right")
        return self._dphi(rule, xr) * _pair_sums(a, b, lo, hi)

    def flux(self, rule, x, u):
        if not isinstance(rule, MinPower):
            return super().flux(rule, x, u)
        order, xr = _rank(x)
        return _unrank(order, self._fluxes(self._phi(rule, xr), _ranked(order, u))[0])

    def second_order_terms(self, rule, x, S, g):
        if not isinstance(rule, MinPower):
            return super().second_order_terms(rule, x, S, g)
        order, xr = _rank(x)
        rows = _ranked(order, S, g)
        f_S, f_g = self._fluxes(self._phi(rule, xr), rows)
        S, g = rows
        kinetic = self._slope_product(rule, xr, g - S, g + S)
        return tuple(_unrank(order, np.array([f_S, kinetic, f_g])))

    def hopf_cole_terms(self, rule, x, xi, xs):
        if not isinstance(rule, MinPower):
            return super().hopf_cole_terms(rule, x, xi, xs)
        order, xr = _rank(x)
        rows = _ranked(order, xi, xs)
        f_xi, f_xs = self._fluxes(self._phi(rule, xr), rows)
        xi, xs = rows
        cross = self._slope_product(rule, xr, xs, xi)
        return tuple(_unrank(order, np.array([f_xi - f_xs, cross, f_xi, f_xs])))

    def pair_energy(self, rule, x, S, g):
        if not isinstance(rule, MinPower):
            return super().pair_energy(rule, x, S, g)
        # Twice the sum over rank pairs k < r, whose weight is phi_k.
        order, xr = _rank(x)
        S, g = _ranked(order, S, g)
        above = np.arange(1, self.n + 1)
        pairs = _pair_sums(S - g, S + g, above, above)
        return 2.0 * float(np.dot(self._phi(rule, xr), pairs))

    def slope_is_finite(self, rule, x):
        if not isinstance(rule, MinPower):
            return super().slope_is_finite(rule, x)
        return bool(np.isfinite(self._dphi(rule, np.sort(x))).all())


def build_graph(n: int, weighted_edges) -> Graph:
    """Build a graph from 1-based unordered edges with weights.

    ``weighted_edges`` is either a mapping ``{(i, j): omega}`` or an iterable
    of ``(i, j, omega)`` triples.  Endpoint order within a pair is free: the
    pairs are normalised and sorted here, and ``Graph`` checks them.  Every
    pair with one common weight on ``SORTED_MIN_N`` or more vertices gives a
    ``CompleteGraph``.
    """
    if isinstance(weighted_edges, Mapping):
        pairs, weights = _array(list(weighted_edges), 2), _array(list(weighted_edges.values()))
    else:
        table = _array(list(weighted_edges), 3)
        pairs, weights = table[:, :2], table[:, 2]
    pairs = np.sort(pairs, axis=1)
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    graph = Graph(n=n, edges=pairs[order], weights=weights[order])
    n, w = graph.n, graph.weights
    if n >= SORTED_MIN_N and len(w) == n * (n - 1) // 2 and np.all(w == w[0]):
        return CompleteGraph(n, float(w[0]))
    return graph


def complete_graph(n: int) -> Graph:
    """All n(n-1)/2 unordered pairs with unit weight; a ``CompleteGraph`` from
    ``SORTED_MIN_N`` vertices up."""
    n = _vertex_count(n)
    if n >= SORTED_MIN_N:
        return CompleteGraph(n)
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
