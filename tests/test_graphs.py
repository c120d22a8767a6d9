"""Graph container, text format, and synthetic-family tests."""

import numpy as np
import pytest

from neuralwalker.errors import (
    BadIndex,
    DuplicateEdge,
    ParseError,
    SelfLoopEdge,
    Unsupported,
)
from neuralwalker.graphs import (
    build_graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    dumps_graph,
    erdos_renyi_graph,
    is_connected,
    load_graph,
    loads_graph,
    path_graph,
    random_regular_graph,
    save_graph,
    star_graph,
)


# -----------------------------------------------------------------------------
# Core container
# -----------------------------------------------------------------------------

def test_triangle_degrees_and_neighbors():
    g = complete_graph(3)
    assert g.n_nodes == 3
    assert g.n_edges == 3
    assert g.n_slots == 6
    assert [g.degree(v) for v in range(3)] == [2, 2, 2]
    assert g.neighbors(0).tolist() == [1, 2]
    assert g.neighbors(1).tolist() == [0, 2]


def test_path_degrees():
    g = path_graph(3)
    assert g.degrees().tolist() == [1, 2, 1]
    assert g.neighbors(1).tolist() == [0, 2]


def test_isolated_nodes_have_empty_neighborhoods():
    g = build_graph(4, [(0, 1)])
    assert g.degree(2) == 0
    assert g.degree(3) == 0
    assert g.neighbors(2).size == 0


def test_neighbors_sorted_ascending():
    g = build_graph(5, [(3, 1), (3, 4), (3, 0), (3, 2)])
    assert g.neighbors(3).tolist() == [0, 1, 2, 4]


def test_degree_sum_equals_twice_edges():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        g = erdos_renyi_graph(n, 0.4, seed=int(rng.integers(1 << 30)))
        assert int(g.degrees().sum()) == 2 * g.n_edges


def test_edge_slot_lookup_and_mirror_features():
    feats = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    g = build_graph(3, [(0, 1), (0, 2), (1, 2)], edge_features=feats)
    s_fwd = g.edge_slot(1, 2)
    s_bwd = g.edge_slot(2, 1)
    assert s_fwd != s_bwd
    assert g.edge_features[s_fwd].tolist() == [5.0, 6.0]
    assert g.edge_features[s_bwd].tolist() == [5.0, 6.0]
    with pytest.raises(BadIndex):
        g.edge_slot(0, 0)


def test_has_edges_vectorized_matches_scalar():
    g = erdos_renyi_graph(8, 0.35, seed=11)
    u, v = np.meshgrid(np.arange(8), np.arange(8), indexing="ij")
    vec = g.has_edges(u.ravel(), v.ravel()).reshape(8, 8)
    for a in range(8):
        for b in range(8):
            assert vec[a, b] == g.has_edge(a, b)


def test_build_rejects_self_loop():
    with pytest.raises(SelfLoopEdge):
        build_graph(3, [(0, 1), (2, 2)])


def test_build_rejects_out_of_range_endpoint():
    with pytest.raises(BadIndex):
        build_graph(3, [(0, 3)])
    with pytest.raises(BadIndex):
        build_graph(3, [(-1, 2)])


def test_build_rejects_duplicate_edges_either_orientation():
    with pytest.raises(DuplicateEdge):
        build_graph(3, [(0, 1), (1, 0)])
    with pytest.raises(DuplicateEdge):
        build_graph(3, [(0, 1), (0, 1)])
    # Directed graphs allow both orientations but not a repeat of one.
    g = build_graph(3, [(0, 1), (1, 0)], directed=True)
    assert g.n_slots == 2
    with pytest.raises(DuplicateEdge):
        build_graph(3, [(0, 1), (0, 1)], directed=True)


def test_node_feature_row_count_checked():
    with pytest.raises(BadIndex):
        build_graph(3, [(0, 1)], node_features=np.zeros((2, 1)))
    with pytest.raises(BadIndex):
        build_graph(3, [(0, 1)], edge_features=np.zeros((2, 1)))


# -----------------------------------------------------------------------------
# Connectivity and disjoint union
# -----------------------------------------------------------------------------

def test_is_connected():
    assert is_connected(cycle_graph(5))
    assert is_connected(build_graph(1, []))
    assert not is_connected(build_graph(4, [(0, 1), (2, 3)]))
    assert not is_connected(build_graph(3, [(0, 1)]))


def test_disjoint_union_offsets_and_structure():
    g1 = complete_graph(3, with_features=True)
    g2 = path_graph(2, with_features=True)
    union, offsets = disjoint_union([g1, g2])
    assert offsets.tolist() == [0, 3, 5]
    assert union.n_nodes == 5
    assert union.n_edges == 4
    assert union.has_edge(0, 1) and union.has_edge(3, 4)
    assert not union.has_edge(2, 3)
    # Per-graph slot blocks stay contiguous (first graph's slots come first).
    assert (union.slot_src[: g1.n_slots] < 3).all()
    assert (union.slot_src[g1.n_slots:] >= 3).all()


def test_disjoint_union_requires_matching_widths():
    with pytest.raises(Unsupported):
        disjoint_union([complete_graph(3, with_features=True), complete_graph(3)])
    with pytest.raises(BadIndex):
        disjoint_union([])


# -----------------------------------------------------------------------------
# Text format
# -----------------------------------------------------------------------------

def test_text_round_trip_bit_exact(tmp_path):
    feats = np.array([[0.1], [0.2], [-1.5]])
    efeats = np.array([[1e-17, 2.0], [0.3, np.pi]])
    g = build_graph(3, [(0, 1), (1, 2)], node_features=feats, edge_features=efeats)
    path = tmp_path / "g.graph"
    save_graph(g, path)
    g2 = load_graph(path)
    assert g2.n_nodes == g.n_nodes
    assert (g2.row_offsets == g.row_offsets).all()
    assert (g2.col_indices == g.col_indices).all()
    assert (g2.node_features == g.node_features).all()
    assert (g2.edge_features == g.edge_features).all()
    # Serialization itself is stable.
    assert dumps_graph(g2) == dumps_graph(g)


def test_text_comments_and_blank_lines():
    text = """
# a triangle
graph 3 0 0 0

0  # the first node
1
2
0 1
0 2   # slanted edge
1 2
"""
    g = loads_graph(text)
    assert g.n_nodes == 3 and g.n_edges == 3


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 1"):
        loads_graph("graf 3 0 0 0\n")
    with pytest.raises(ParseError, match="line 2"):
        loads_graph("graph 2 1 0 0\n0\n1 0.5\n")  # node 0 missing its feature
    with pytest.raises(ParseError, match="listed twice"):
        loads_graph("graph 2 0 0 0\n0\n0\n")
    with pytest.raises(ParseError, match="empty"):
        loads_graph("\n# nothing\n")
    with pytest.raises(ParseError):
        loads_graph("graph 2 0 0 0\n0\n")  # missing node record


def test_parse_rejects_header_the_text_cannot_hold():
    with pytest.raises(ParseError, match="line 1"):
        loads_graph("graph 1000000000000 1 0 0\n")
    with pytest.raises(ParseError, match="line 1"):
        loads_graph("graph 2 1000000000000 0 0\n0 1.0\n1 2.0\n")


def test_parse_edge_endpoint_out_of_range():
    with pytest.raises(BadIndex):
        loads_graph("graph 3 0 0 0\n0\n1\n2\n0 5\n")


def test_parse_rejects_mixed_width_rows():
    with pytest.raises(ParseError):
        loads_graph("graph 2 0 1 0\n0\n1\n0 1 0.5 0.7\n")


def test_parse_directed_flag():
    g = loads_graph("graph 2 0 0 1\n0\n1\n0 1\n")
    assert g.directed
    assert g.has_edge(0, 1) and not g.has_edge(1, 0)


# -----------------------------------------------------------------------------
# Synthetic families
# -----------------------------------------------------------------------------

def test_family_shapes():
    assert path_graph(1).n_edges == 0
    assert path_graph(4).n_edges == 3
    assert cycle_graph(3).n_edges == 3
    assert cycle_graph(6).degrees().tolist() == [2] * 6
    assert complete_graph(5).n_edges == 10
    assert star_graph(4).degrees().tolist() == [3, 1, 1, 1]
    with pytest.raises(Unsupported):
        cycle_graph(2)


def test_with_features_flag():
    g = cycle_graph(4, with_features=True)
    assert g.node_dim == 1
    assert (g.node_features == 1.0).all()
    assert cycle_graph(4).node_dim == 0


def test_erdos_renyi_seeded_and_connected_option():
    g1 = erdos_renyi_graph(10, 0.3, seed=5)
    g2 = erdos_renyi_graph(10, 0.3, seed=5)
    assert (g1.col_indices == g2.col_indices).all()
    g3 = erdos_renyi_graph(10, 0.3, seed=7)
    connected = erdos_renyi_graph(12, 0.25, seed=3, require_connected=True)
    assert is_connected(connected)
    assert g3.n_nodes == 10


def test_random_regular_degree_and_connectivity():
    for seed in range(5):
        g = random_regular_graph(20, 4, seed=seed)
        assert g.degrees().tolist() == [4] * 20
        assert is_connected(g)
    with pytest.raises(Unsupported):
        random_regular_graph(10, 3, seed=0)
    with pytest.raises(Unsupported):
        random_regular_graph(4, 4, seed=0)
