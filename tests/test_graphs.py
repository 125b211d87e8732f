import json

import numpy as np
import pytest

import graphsync as gs
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
    assert g.edges == ((1, 2),)
    assert g.weights == (1.0,)


def test_build_square_graph_matches_named():
    g = gs.build_graph(4, {(1, 2): 1, (2, 3): 1, (3, 4): 1, (4, 1): 1})
    assert g.edges == gs.named_graph("square4").edges


def test_edge_order_within_pair_is_free():
    g = gs.build_graph(3, [(2, 1, 0.5), (3, 1, 2.0)])
    assert g.edges == ((1, 2), (1, 3))
    assert g.weights == (0.5, 2.0)


@pytest.mark.parametrize(
    "edges, err",
    [
        ({(1, 1): 1.0}, SelfLoopError),
        ([(1, 2, 1.0), (2, 1, 1.0)], DuplicateEdgeError),
        ({(1, 4): 1.0}, VertexIndexError),
        ({(0, 1): 1.0}, VertexIndexError),
        ({(1, 2): -0.5}, NegativeWeightError),
    ],
)
def test_invalid_edges_rejected(edges, err):
    with pytest.raises(err):
        gs.build_graph(3, edges)


@pytest.mark.parametrize("n, m", [(2, 1), (4, 6), (6, 15)])
def test_complete_graph_edge_counts(n, m):
    g = gs.complete_graph(n)
    assert g.edge_count == m
    assert all(w == 1.0 for w in g.weights)


def test_complete_graph_needs_two_vertices():
    with pytest.raises(GraphConstructionError):
        gs.complete_graph(1)


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


def test_json_round_trip(tmp_path):
    g = gs.build_graph(3, [(1, 2, 0.5), (2, 3, 2.0)])
    doc = json.loads(g.to_json())
    assert doc == {"n": 3, "edges": [[1, 2, 0.5], [2, 3, 2.0]]}
    assert gs.graph_from_json(g.to_json()) == g

    path = tmp_path / "g.json"
    path.write_text(g.to_json())
    assert gs.load_graph(str(path)) == g


def test_load_graph_by_name_and_bad_spec():
    assert gs.load_graph("cycle6") == gs.named_graph("cycle6")
    with pytest.raises(UnknownGraphNameError):
        gs.load_graph("no-such-thing")


def test_graph_is_immutable():
    g = gs.complete_graph(3)
    with pytest.raises(Exception):
        g.n = 5
