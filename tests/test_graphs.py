import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphsync as gs
from graphsync.graphs import _NAMED_EDGES
from graphsync.errors import (
    DuplicateEdgeError,
    GraphConstructionError,
    NegativeWeightError,
    SelfLoopError,
    UnknownGraphNameError,
    VertexIndexError,
)


def test_build_two_point_graph():
    g = gs.build_graph(2, {(1, 2): 1.0})
    assert g.n == 2
    assert g.edges.tolist() == [[1, 2]]
    assert g.weights.tolist() == [1.0]
    same = gs.graph_from_json('{"n": 2.0, "edges": [[1, 2, 1.0]]}')
    assert same == g and type(same.n) is int


def test_build_square_graph_matches_named():
    g = gs.build_graph(4, {(1, 2): 1, (2, 3): 1, (3, 4): 1, (4, 1): 1})
    assert g.edges.tolist() == gs.named_graph("square4").edges.tolist()


def test_edge_order_within_pair_is_free():
    g = gs.build_graph(3, [(2, 1, 0.5), (3, 1, 2.0)])
    assert g.edges.tolist() == [[1, 2], [1, 3]]
    assert g.weights.tolist() == [0.5, 2.0]


@pytest.mark.parametrize(
    "edges, err",
    [
        ({(1, 1): 1.0}, SelfLoopError),
        ([(1, 2, 1.0), (2, 1, 1.0)], DuplicateEdgeError),
        ({(1, 4): 1.0}, VertexIndexError),
        ({(0, 1): 1.0}, VertexIndexError),
        ({(1, 2): -0.5}, NegativeWeightError),
        ({(1, 2): math.nan}, GraphConstructionError),
        ({(1, 2): math.inf}, GraphConstructionError),
        ([(1.7, 2, 1.0)], GraphConstructionError),
        ('{"n": 3, "edges": [[1, 2]]}', GraphConstructionError),
        ('{"n": 3, "edges": [[1, 2, 1.0]', GraphConstructionError),
        ('{"n": 3.7, "edges": [[1, 2, 1.0]]}', GraphConstructionError),
        ('{"n": null, "edges": []}', GraphConstructionError),
        # Each entry must be a real number and not a bool, which numpy would convert.
        ([(1, 2, "2.5")], GraphConstructionError),
        ({(1, 2): True}, GraphConstructionError),
        ({(1, 2): "1"}, GraphConstructionError),
        ({(True, 2): 1.0}, GraphConstructionError),
        ([(1, 2, None)], GraphConstructionError),
        ([(1, 2, 1.0), (2, 3)], GraphConstructionError),
        ('{"n": 3, "edges": [[1, 2, true]]}', GraphConstructionError),
        ('{"n": 3, "edges": [[1, "2", 1.0]]}', GraphConstructionError),
    ],
)
def test_invalid_edges_rejected(edges, err):
    """Edge lists go through build_graph, JSON documents through graph_from_json."""
    with pytest.raises(err):
        if isinstance(edges, str):
            gs.graph_from_json(edges)
        else:
            gs.build_graph(3, edges)


@pytest.mark.parametrize("edges, weights", [
    ([[1, 2]], [True]), ([[True, 2]], [1.0]), ([[1, 2]], ["1"]), ([[1, 2.0]], np.array([True])),
    ([["1", 2]], [1.0]), ([[1, 2]], [[1.0]]), ([1, 2], [1.0]), (None, [1.0]),
])
def test_graph_refuses_edge_data_that_is_not_real_numbers(edges, weights):
    with pytest.raises(GraphConstructionError):
        gs.Graph(n=2, edges=edges, weights=weights)


def test_graph_copies_its_edge_arrays():
    # Numeric arrays are taken whole, but copied: the caller's stay writeable.
    edges, weights = np.array([[1, 2]]), np.array([0.5])
    g = gs.Graph(n=2, edges=edges, weights=weights)
    assert edges.flags.writeable and weights.flags.writeable
    assert not g.weights.flags.writeable and g.weights is not weights
    assert g == gs.Graph(n=2, edges=[[1.0, 2.0]], weights=[np.float64(0.5)])


@pytest.mark.parametrize("n, m", [(2, 1), (4, 6), (6, 15)])
def test_complete_graph_edge_counts(n, m):
    g = gs.complete_graph(n)
    assert g.edge_count == m
    assert all(w == 1.0 for w in g.weights)


def test_complete_graph_needs_two_vertices():
    with pytest.raises(GraphConstructionError):
        gs.complete_graph(1)
    for bad in (None, 2.5, "3", math.nan):
        with pytest.raises(GraphConstructionError):
            gs.complete_graph(bad)
    assert gs.complete_graph(3.0) == gs.complete_graph(3)


def test_named_graphs_topology():
    cyc = gs.named_graph("cycle6")
    assert cyc.edge_count == 6
    assert all(cyc.degree(j) == 2 for j in range(1, 7))

    lat = gs.named_graph("lattice6")
    assert lat.edge_count == 5
    assert lat.degree(1) == 1 and lat.degree(6) == 1

    rib = gs.named_graph("ribbon6")
    assert rib.edge_count == 7
    assert rib.degree(3) == 3 and rib.degree(4) == 3
    assert 4 not in rib.neighbors(1)

    assert gs.named_graph("complete(5)").edge_count == 10
    with pytest.raises(UnknownGraphNameError):
        gs.named_graph("mystery9")


@pytest.mark.parametrize("name", ["cycle6", "lattice6", "ribbon6", "square4", "complete(4)"])
def test_neighbor_relation_symmetric(name):
    g = gs.named_graph(name)
    for j in range(1, g.n + 1):
        for l in g.neighbors(j):
            assert j in g.neighbors(l)


def test_ordered_pair_arrays_cover_both_directions():
    g = gs.named_graph("square4")
    pairs = set(zip(g.tail.tolist(), g.head.tolist()))
    assert len(pairs) == 2 * g.edge_count
    assert all((b, a) in pairs for a, b in pairs)


def test_diff_and_scatter_follow_ordered_edges():
    g = gs.build_graph(3, [(1, 2, 0.5), (2, 3, 2.0)])
    x = np.array([1.0, 4.0, 9.0])
    np.testing.assert_array_equal(g.diff(x), [-3.0, -5.0, 3.0, 5.0])
    np.testing.assert_array_equal(g.scatter(g.pair_weight * g.diff(x)), [-1.5, -8.5, 10.0])


def test_coupling_methods_follow_ordered_edges():
    g = gs.build_graph(3, [(1, 2, 0.5), (2, 3, 2.0)])
    x = np.array([0.25, 0.5, 0.25])
    # min(x_tail, x_head)**2 times the weight; the slope 2 min goes to the smaller end.
    np.testing.assert_array_equal(g.coupling(gs.MinPower(2.0), x), [0.03125, 0.125, 0.03125, 0.125])
    wth, wslope = g.coupling_and_slope(gs.MinPower(2.0), x)
    np.testing.assert_array_equal(wth, [0.03125, 0.125, 0.03125, 0.125])
    np.testing.assert_array_equal(wslope, [0.25, 0.0, 0.0, 1.0])


def test_json_round_trip(tmp_path):
    g = gs.build_graph(3, [(1, 2, 0.5), (2, 3, 2.0)])
    doc = json.loads(g.to_json())
    assert doc == {"n": 3, "edges": [[1, 2, 0.5], [2, 3, 2.0]]}
    assert gs.graph_from_json(g.to_json()) == g

    path = tmp_path / "g.json"
    path.write_text(g.to_json())
    assert gs.load_graph(str(path)) == g
    assert gs.load_graph(path) == g


def test_load_graph_by_name_and_bad_spec():
    assert gs.load_graph("cycle6") == gs.named_graph("cycle6")
    with pytest.raises(UnknownGraphNameError):
        gs.load_graph("no-such-thing")
    for bad in (5, None, 2.5, ["cycle6"]):
        with pytest.raises(UnknownGraphNameError):
            gs.load_graph(bad)
        with pytest.raises(UnknownGraphNameError):
            gs.named_graph(bad)
    cycle = gs.named_graph("cycle6")
    for vertex in (0, 7, 1.5, "1", True, None, float("nan")):
        with pytest.raises(VertexIndexError):
            cycle.neighbors(vertex)


def test_graph_is_immutable():
    g = gs.complete_graph(3)
    with pytest.raises(Exception):
        g.n = 5
    with pytest.raises(ValueError):
        g.edges[0, 0] = 2
    with pytest.raises(ValueError):
        g.weights[0] = 2.0


def per_edge_graph_arrays(n, edges, weights):
    """Graph's former edge-by-edge check, plus a finite-weight check at the end.

    Returns (tail, head, pair_weight) built from the tuples of positive weight,
    as a zero weight couples nothing.
    """
    if n < 2:
        raise GraphConstructionError(f"need at least 2 vertices, got n={n}")
    if len(edges) != len(weights):
        raise GraphConstructionError("edge and weight counts differ")
    seen = set()
    for (i, j), w in zip(edges, weights):
        if not (1 <= i <= n) or not (1 <= j <= n):
            raise VertexIndexError(f"edge ({i}, {j}) outside vertex range 1..{n}")
        if i == j:
            raise SelfLoopError(f"self-loop at vertex {i}")
        if i > j:
            raise GraphConstructionError(f"edge ({i}, {j}) not stored with i < j")
        if (i, j) in seen:
            raise DuplicateEdgeError(f"duplicate edge ({i}, {j})")
        seen.add((i, j))
        if w < 0:
            raise NegativeWeightError(f"edge ({i}, {j}) has negative weight {w}")
        if not math.isfinite(w):
            raise GraphConstructionError(f"edge ({i}, {j}) has non-finite weight {w}")
    coupled = [(i, j, w) for (i, j), w in zip(edges, weights) if w > 0]
    src = np.array([i - 1 for i, _, _ in coupled], dtype=np.intp)
    dst = np.array([j - 1 for _, j, _ in coupled], dtype=np.intp)
    w = np.array([w for _, _, w in coupled], dtype=float)
    return np.concatenate([src, dst]), np.concatenate([dst, src]), np.concatenate([w, w])


def assert_matches_per_edge_check(n, edges, weights):
    """Graph refuses what the per-edge check refuses, with the same class, and
    otherwise builds its ordered-edge arrays bit for bit."""
    try:
        want = per_edge_graph_arrays(n, edges, weights)
    except GraphConstructionError as exc:
        with pytest.raises(GraphConstructionError) as info:
            gs.Graph(n=n, edges=edges, weights=weights)
        assert type(info.value) is type(exc)
        return
    g = gs.Graph(n=n, edges=edges, weights=weights)
    for got, ref in zip((g.tail, g.head, g.pair_weight), want):
        assert got.dtype == ref.dtype
        np.testing.assert_array_equal(got, ref)
    assert g.edges.tolist() == [list(e) for e in edges]
    assert g.weights.tolist() == list(weights)


@st.composite
def edge_lists(draw):
    """Random edge lists: loops, reversed and repeated pairs occur on their
    own; an out-of-range label and a negative or non-finite weight are each
    planted in a third of the lists."""
    n = draw(st.integers(2, 6))
    label = st.integers(1, n)
    pairs = draw(st.lists(st.tuples(label, label), max_size=8))
    if draw(st.booleans()):  # often valid: ordered, loop-free, distinct pairs
        pairs = sorted({(min(p), max(p)) for p in pairs if p[0] != p[1]})
    weights = draw(st.lists(st.floats(0.0, 10.0), min_size=len(pairs), max_size=len(pairs)))
    index = st.integers(0, max(len(pairs) - 1, 0))
    if pairs and draw(st.integers(0, 2)) == 0:
        k = draw(index)
        pairs.insert(draw(index), pairs[k])
        weights.insert(k, draw(st.floats(0.0, 10.0)))
    if pairs and draw(st.integers(0, 2)) == 0:
        k, bad = draw(index), draw(st.sampled_from([-1, 0, n + 1, n + 2]))
        i, j = pairs[k]
        pairs[k] = draw(st.sampled_from([(bad, j), (i, bad), (bad, bad)]))
    if pairs and draw(st.integers(0, 2)) == 0:
        weights[draw(index)] = draw(st.sampled_from([-0.5, -math.inf, math.nan, math.inf]))
    return n, tuple(pairs), tuple(weights)


@settings(max_examples=300, deadline=None)
@given(case=edge_lists())
def test_graph_matches_per_edge_check_on_random_edge_lists(case):
    assert_matches_per_edge_check(*case)


@pytest.mark.parametrize(
    "name", sorted(_NAMED_EDGES) + [f"complete({n})" for n in (2, 3, 4, 6, 64)]
)
def test_named_graphs_match_per_edge_check(name):
    g = gs.named_graph(name)
    if name in _NAMED_EDGES:
        pairs = sorted((min(p), max(p)) for p in _NAMED_EDGES[name][1])
    else:
        pairs = [(i, j) for i in range(1, g.n + 1) for j in range(i + 1, g.n + 1)]
    assert g.edges.tolist() == [list(p) for p in pairs]
    assert_matches_per_edge_check(g.n, tuple(pairs), (1.0,) * len(pairs))
