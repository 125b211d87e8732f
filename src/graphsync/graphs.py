"""Finite weighted graphs, and the vertex sums the flows take over them.

Vertices are labelled 1..n.  The six-vertex benchmark topologies use the
letters A..F, which map to 1..6 in order.  Each undirected edge is stored
once, as a row i < j of the read-only ``edges`` array with one nonnegative
weight in ``weights``, so weight symmetry holds by construction.  Sums over
ordered vertex pairs are realised by iterating every unordered edge of
positive weight in both directions through the ``tail``/``head`` index arrays
(0-based, aligned with density vectors) and the doubled weights
``pair_weight``; a zero weight couples nothing, even where the slope is
infinite.  ``coupling``/``coupling_and_slope`` (omega * theta and
omega * d theta/d x_tail per ordered edge), ``diff`` and ``scatter`` work at
that edge level.

The flows and H reach a graph only through its vertex-level operators.  With
theta_ij = theta(x_i, x_j), theta'_ij = d theta_ij/d x_i and sums over the
neighbours j of i,

    F(u)_i    = sum_j omega_ij theta_ij (u_i - u_j)                   (flux)
    K(a, b)_i = sum_j omega_ij theta'_ij (a_i - a_j)(b_i - b_j)        (slope product)
    E(a, b)   = sum_i sum_j omega_ij theta_ij (a_i - a_j)(b_i - b_j)

``flux(rule, x, u)`` is F(u); ``second_order_terms`` gives F(S), K(g - S, g + S)
and F(g), and the Hopf-Cole field takes it at (S, g) = (xi - xi*, xi + xi*);
``pair_energy`` is E(S - g, S + g) = 4 H; ``slope_is_finite`` tells whether
every omega theta'_ij is finite.  On ``Graph`` each is the per-edge
expression of its flow, so each vector is gathered once and the bits are
those of the edge formulas.  Either backend's operators take arrays, and a list
as its ``np.asarray``.  A run binds each operator once, with ``held(operator,
rule, floats)``, so that no call tests a type or the rule again.  A graph of at
most ``FLOAT_MAX_N`` vertices also has loops on Python floats, where numpy's
per-call dispatch would outweigh the arithmetic: where ``on_floats`` holds for
a rule, ``held`` with ``floats`` binds ``flux`` (at u = x) or
``second_order_terms`` as a loop over the edges on lists of floats, with the
bits of the array formulas, and elsewhere refuses with a DomainError that
names the backend and the rule.  It holds under a rule that is a ``MinPower``
itself at one of ``FLOAT_ALPHAS``, the stock alphas, where phi and phi' are
IEEE products, square roots and a quotient, the same bits on floats as under
any numpy dispatch.

``CompleteGraph`` overrides them.  It holds every pair with one weight omega
and builds its edge arrays only when something reads them.  Under a
``MinPower`` rule it evaluates the operators on x in rank order, with prefix
sums, in O(n log n); other rules fall back to the edge list.  The graph keeps
no order: a run holds its own through ``held``, so it sorts once per rank
change, and a single operator call sorts afresh.  With no ties, the slope
sums take each rank as its own tie group without a search.  Its
``slope_is_finite`` needs no order: a strict maximum has no slope, a tied top
group only the half share of its ties, and a NaN entry, whose edges have
slope 0, ranks lowest.  It computes on no floats.  ``complete_graph`` and
``build_graph`` return one for a complete graph with one common weight from
``SORTED_MIN_N`` vertices up, the measured crossover below which the edge
list is faster.
"""
from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass, field
from functools import partial
from typing import Mapping

import numpy as np

from .errors import (
    DomainError,
    DuplicateEdgeError,
    GraphConstructionError,
    NegativeWeightError,
    SelfLoopError,
    UnknownGraphNameError,
    VertexIndexError,
    _reals,
    document,
    real,
)
from .integrate import FLOAT_MAX_N
from .weights import MinPower

_COMPLETE_RE = re.compile(r"^complete\((\d+)\)$")

#: Vertex count from which a complete graph with one common weight evaluates
#: its operators on sorted densities, O(n log n), instead of on its n(n - 1)
#: ordered edges: the measured crossover of the two paths (see CHANGES.md).
SORTED_MIN_N = 48

#: The alphas at which ``flux`` and ``second_order_terms`` have loops on lists of floats, with
#: the bits of arrays: the stock alphas, where ``MinPower``'s phi and phi' are products, square
#: roots and one quotient (``weights._STOCK``), or at alpha 1 ``np.maximum``'s rule and
#: ``m >= 0``.  IEEE arithmetic rounds each correctly, so floats and numpy, whichever kernels
#: numpy dispatches, give the same bits.
FLOAT_ALPHAS = (0.5, 1.0, 1.5, 2.0, 3.0)


def _array(values, width=None) -> np.ndarray:
    """``values`` as a new (m, width) float array, or (m,) without a width; each entry must
    be a real number and not a bool."""
    a = _reals(values)
    if a is None:
        raise GraphConstructionError(f"edge data must be real numbers, got {values!r}")
    a = np.array(a)  # a copy, which Graph makes read-only; never the caller's array
    row = () if width is None else (width,)
    a = a.reshape((0, *row)) if a.size == 0 else a
    if a.ndim == 0 or a.shape[1:] != row:
        raise GraphConstructionError(f"edge data must have shape {('m', *row)}, got {a.shape}")
    return a


def _vertex_count(n) -> int:
    """``n`` as an int of at least 2; an integral float such as 3.0 is accepted."""
    return int(real(n, "vertex count", "an integer >= 2", lambda v: v >= 2 and v % 1 == 0,
                    GraphConstructionError))


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
    _edge_tuples: tuple = field(init=False, repr=False)

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
        """Keep checked edges and weights read-only, with the ordered-edge arrays of
        the edges of positive weight, and on at most ``FLOAT_MAX_N`` vertices those
        edges as (tail, head, weight) tuples."""
        edges.flags.writeable = w.flags.writeable = False
        coupled = w > 0
        src, dst = edges[coupled].T - 1
        w_on = w[coupled]
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "tail", np.concatenate([src, dst]))
        object.__setattr__(self, "head", np.concatenate([dst, src]))
        object.__setattr__(self, "pair_weight", np.concatenate([w_on, w_on]))
        object.__setattr__(self, "_unit_weights", bool(np.all(w_on == 1.0)))
        object.__setattr__(self, "_edge_tuples", tuple(zip(src.tolist(), dst.tolist(), w_on.tolist()))
                           if self.n <= FLOAT_MAX_N else None)

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
    def flux(self, rule, x, u) -> np.ndarray:
        """F(u)_i = sum_j omega_ij theta(x_i, x_j) (u_i - u_j)."""
        x, u = np.asarray(x), np.asarray(u)
        xt, xh = x[self.tail], x[self.head]
        du = xt - xh if u is x else self.diff(u)
        return self.scatter(self._weighted(rule.theta(xt, xh)) * du)

    def second_order_terms(self, rule, x, S, g) -> tuple:
        """F(S), K(g - S, g + S) and F(g); K's pair factor is (g_i - g_j)^2 - (S_i - S_j)^2."""
        diff, scatter = self.diff, self.scatter
        wth, wdth = self.coupling_and_slope(rule, np.asarray(x))
        dS, dg = diff(np.asarray(S)), diff(np.asarray(g))
        return scatter(wth * dS), scatter((dg**2 - dS**2) * wdth), scatter(wth * dg)

    def pair_energy(self, rule, x, S, g) -> float:
        """E(S - g, S + g), whose pair factor is (S_i - S_j)^2 - (g_i - g_j)^2."""
        wth = self.coupling(rule, np.asarray(x))
        dS, dg = self.diff(np.asarray(S)), self.diff(np.asarray(g))
        return np.sum(wth * (dS**2 - dg**2))

    def slope_is_finite(self, rule, x) -> bool:
        """Whether omega * d theta/d x_tail is finite on every ordered edge."""
        return bool(np.isfinite(self.coupling_and_slope(rule, np.asarray(x))[1]).all())

    def held(self, operator: str, rule, floats: bool = False):
        """The operator named ``operator``, bound to ``rule``, as one run calls it: the edge
        list's own; with ``floats``, its loop on lists of floats (``flux`` of x alone) bound to
        the edge tuples, alpha and n, which a DomainError refuses where ``on_floats`` fails."""
        if not floats:
            return partial(getattr(Graph, operator), self, rule)
        loops = {"flux": _float_flux, "second_order_terms": _float_terms}
        if operator not in loops or not self.on_floats(rule):
            raise DomainError(f"{operator} on lists of floats: not on a {type(self).__name__} of "
                              f"{self.n} vertices under {rule!r}; only flux and "
                              f"second_order_terms, on an edge list of at most {FLOAT_MAX_N} "
                              f"vertices under a MinPower at alpha in {FLOAT_ALPHAS}")
        return partial(loops[operator], self._edge_tuples, rule.alpha, self.n)

    def on_floats(self, rule) -> bool:
        """Whether ``flux`` and ``second_order_terms`` have loops on lists of floats under
        ``rule``, with the bits of arrays: on at most ``FLOAT_MAX_N`` vertices, under a rule
        that is a ``MinPower`` itself (a subclass may override phi) at one of
        ``FLOAT_ALPHAS``."""
        return (self._edge_tuples is not None and type(rule) is MinPower
                and rule.alpha in FLOAT_ALPHAS)

    def neighbors(self, j: int) -> tuple[int, ...]:
        """Sorted 1-based neighbour labels of vertex j."""
        real(j, "vertex", f"an integer in 1..{self.n}",
             lambda v: 1 <= v <= self.n and v % 1 == 0, VertexIndexError)
        lo, hi = self.edges[:, 0], self.edges[:, 1]
        return tuple(np.sort(np.concatenate([hi[lo == j], lo[hi == j]])).tolist())

    def degree(self, j: int) -> int:
        return len(self.neighbors(j))

    def to_json(self) -> str:
        rows = np.column_stack([self.edges.astype(object), self.weights.astype(object)])
        return json.dumps({"n": self.n, "edges": rows.tolist()})


# The float loops below take phi and phi' inline, as weights._STOCK gives them, with no
# call per edge; m > 0 there, so c = max(m, 0) is m itself.
def _float_flux(edges, alpha: float, n: int, x: list) -> list:
    """``Graph.flux`` at u = x on a list of floats over the (tail, head, weight) tuples
    ``edges``, at one of ``FLOAT_ALPHAS``, with the bits of its array formula.

    bincount's sums: a vertex adds its edges forward in edge order, then its edges back,
    whose terms are exactly minus the forward ones.
    """
    out, terms, sqrt = [0.0] * n, [], math.sqrt
    for i, j, w in edges:
        a, b = x[i], x[j]
        m = a if a < b else b  # np.minimum's but at a NaN, where a - b is NaN anyway
        if alpha == 1.0:
            th = m if m > 0.0 or m != m else 0.0
        elif alpha == 2.0:
            th = m * m if m > 0.0 else 0.0
        elif alpha == 3.0:
            th = m * m * m if m > 0.0 else 0.0
        elif alpha == 0.5:
            th = sqrt(m) if m > 0.0 else 0.0
        else:
            th = m * sqrt(m) if m > 0.0 else 0.0
        v = w * th * (a - b)
        out[i] += v
        terms.append(v)
    for (_, j, _), v in zip(edges, terms):
        out[j] -= v
    return out


def _float_terms(edges, alpha: float, n: int, x: list, S: list, g: list) -> tuple:
    """``Graph.second_order_terms`` on lists of floats over the (tail, head, weight) tuples
    ``edges``, at one of ``FLOAT_ALPHAS``, with the bits of its array formulas.

    Each edge's terms are added to its tail in edge order, then its back terms to its
    head, which is ``bincount``'s order.  Back, the flux terms are exactly minus the
    forward ones and the pair factor is the same; the slope is each tail's own share.
    """
    f_S, kinetic, f_g, back, sqrt = [0.0] * n, [0.0] * n, [0.0] * n, [], math.sqrt
    for i, j, w in edges:
        a, b = x[i], x[j]
        m = a if a < b else b if b <= a else math.nan  # np.minimum's, NaN included
        # phi and phi' are 0 where m < 0 or NaN, but phi passes a NaN on at alpha 1, and
        # phi'(0) is 1 at alpha 1 and +inf at alpha 1/2.
        if alpha == 2.0:
            th, d = (m * m, 2.0 * m) if m > 0.0 else (0.0, 0.0)
        elif alpha == 1.0:
            th = m if m > 0.0 or m != m else 0.0
            d = 1.0 if m >= 0.0 else 0.0
        elif alpha == 3.0:
            mm = m * m
            th, d = (mm * m, 3.0 * mm) if m > 0.0 else (0.0, 0.0)
        elif alpha == 0.5:
            th = sqrt(m) if m > 0.0 else 0.0
            d = 0.5 / th if m > 0.0 else math.inf if m == 0.0 else 0.0
        else:
            th, d = (m * sqrt(m), 1.5 * sqrt(m)) if m > 0.0 else (0.0, 0.0)
        # _tie_share's rule: all of the slope to the smaller end, half each on a tie or a
        # NaN (where d is 0).
        da = d if a < b else 0.0 if b < a else 0.5 * d
        db = d if b < a else 0.0 if a < b else 0.5 * d
        wth, dS, dg = w * th, S[i] - S[j], g[i] - g[j]
        q = dg * dg - dS * dS
        vS, vg = wth * dS, wth * dg
        f_S[i] += vS
        kinetic[i] += q * (w * da)
        f_g[i] += vg
        back.append((j, vS, q * (w * db), vg))
    for j, vS, k, vg in back:
        f_S[j] -= vS
        kinetic[j] += k
        f_g[j] -= vg
    return f_S, kinetic, f_g


def _increasing(xr: np.ndarray) -> bool:
    """Whether xr is strictly increasing: no ties, and no NaN, which compares false."""
    return bool(np.greater(xr[1:], xr[:-1]).all())


def _rank_order(x: np.ndarray, order=None) -> np.ndarray:
    """``order`` if it puts x in strictly increasing order, the one order that sorts x
    then, else x's stable order."""
    return order if order is not None and _increasing(x[order]) else np.argsort(x, kind="stable")


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
    rows = np.array(vectors).take(order, axis=1)
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
    plus half its tie group.  A sort and a few cumulative sums replace the
    n(n - 1) ordered edges, and a run that holds its order through ``held`` sorts
    only when the ranks change; the graph keeps none.  Other rules use the edge list.
    """

    def __init__(self, n: int, omega: float = 1.0):
        object.__setattr__(self, "n", _vertex_count(n))
        real(omega, "the common weight", "finite", math.isfinite, GraphConstructionError)
        real(omega, "the common weight", ">= 0", lambda w: w >= 0, NegativeWeightError)
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

    def held(self, operator: str, rule, floats: bool = False):
        """``flux``, ``second_order_terms`` or ``pair_energy``, bound to ``rule``, as one run
        calls it: under a ``MinPower`` each call's frame is ``_rank_order`` of x and the last
        call's frame; under another rule, or with ``floats``, as on the edge list."""
        if floats or not isinstance(rule, MinPower):
            return super().held(operator, rule, floats)
        ranked = {"flux": self._flux, "second_order_terms": self._second_order_terms,
                  "pair_energy": self._pair_energy}[operator]
        last = None

        def in_held_frame(x, *vectors):
            nonlocal last
            x = np.asarray(x)
            last = _rank_order(x, last)
            return ranked(rule, x, *vectors, last)

        return in_held_frame

    def _phi(self, rule, xr: np.ndarray) -> np.ndarray:
        phi = rule.phi(xr)
        return phi if self.omega == 1.0 else self.omega * phi

    def _dphi(self, rule, x: np.ndarray, top, tied: bool = False) -> np.ndarray:
        """omega * phi'(x) at each entry, and 0 throughout when omega is 0.  At ``top``, an
        index or a mask (or None), omega * (phi'/2) where ``tied``, the share of a tie, and
        else 0: a strict maximum has no higher-ranked or tied vertex to reach."""
        dphi = rule.dphi(x) if self.omega else np.zeros_like(x)
        if top is not None:
            dphi[top] = 0.5 * dphi[top] if tied else 0.0
        return dphi if self.omega == 1.0 else self.omega * dphi

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
        if _increasing(xr):  # no ties: the searches would give k and k + 1
            lo, hi = np.arange(self.n), np.arange(1, self.n + 1)
        else:
            lo, hi = np.searchsorted(xr, xr, "left"), np.searchsorted(xr, xr, "right")
        return self._dphi(rule, xr, -1 if xr[-1] > xr[-2] else None) * _pair_sums(a, b, lo, hi)

    # Each call of an operator is a run of one call, which sorts x afresh.
    def flux(self, rule, x, u):
        return self.held("flux", rule)(x, u)

    def second_order_terms(self, rule, x, S, g):
        return self.held("second_order_terms", rule)(x, S, g)

    def pair_energy(self, rule, x, S, g):
        return self.held("pair_energy", rule)(x, S, g)

    # The operators under a MinPower with x in rank order ``order``, as ``held`` calls them.
    def _flux(self, rule, x, u, order):
        return _unrank(order, self._fluxes(self._phi(rule, x[order]), _ranked(order, u))[0])

    def _second_order_terms(self, rule, x, S, g, order):
        xr, rows = x[order], _ranked(order, S, g)
        f_S, f_g = self._fluxes(self._phi(rule, xr), rows)
        S, g = rows
        kinetic = self._slope_product(rule, xr, g - S, g + S)
        return tuple(_unrank(order, np.array([f_S, kinetic, f_g])))

    def _pair_energy(self, rule, x, S, g, order):
        # Twice the sum over rank pairs k < r, whose weight is phi_k.
        S, g = _ranked(order, S, g)
        above = np.arange(1, self.n + 1)
        pairs = _pair_sums(S - g, S + g, above, above)
        return 2.0 * float(np.dot(self._phi(rule, x[order]), pairs))

    def slope_is_finite(self, rule, x):
        if not isinstance(rule, MinPower):
            return super().slope_is_finite(rule, x)
        # Each vertex in its own place, no sort.  A vertex below the top reaches a higher one
        # through omega phi'; the top has no slope when strict, and omega (phi'/2) on each of
        # its ties.  An edge with a NaN end has slope 0, so a NaN vertex ranks lowest, as -inf,
        # where phi' is 0.
        x = np.fmax(x, -np.inf)
        low, high = np.partition(x, self.n - 2)[-2:]
        return bool(np.isfinite(self._dphi(rule, x, x == high, high == low)).all())

    def on_floats(self, rule):
        """False: the sorted operators have other bits than the edge formulas."""
        return False


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
    m = isinstance(name, str) and _COMPLETE_RE.match(name.strip())
    if m:
        return complete_graph(int(m.group(1)))
    try:
        n, edges = _NAMED_EDGES[name]
    except (KeyError, TypeError):  # TypeError: a name that is no string may be unhashable
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
    except (json.JSONDecodeError, TypeError) as exc:
        raise GraphConstructionError(f"malformed graph document: {exc}") from exc
    document(doc, "a graph document", ("n", "edges"), (), GraphConstructionError)
    return build_graph(doc["n"], doc["edges"])


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
