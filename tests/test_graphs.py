"""Graph container, text format, and synthetic-family tests."""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neuralwalker.errors import (
    BadIndex,
    DuplicateEdge,
    ParseError,
    SelfLoopEdge,
    Unsupported,
)
from neuralwalker.graphs import (
    _SCAN_DEGREE,
    Graph,
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


@st.composite
def _graphs_with_neighbour_sets(draw):
    """A small graph (random, star hub or edgeless, directed or not, often
    with isolated nodes) and its out-neighbour sets built in Python."""
    directed = draw(st.booleans())
    shape = draw(st.sampled_from(["random", "star", "edgeless"]))
    n = draw(st.integers(0 if shape == "edgeless" else 2, 12))
    if shape == "random":
        arcs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                             max_size=3 * n))
        arcs = [(u, v) for u, v in arcs if u != v]
    elif shape == "star":
        hub = draw(st.integers(0, n - 1))
        arcs = [(hub, v) if draw(st.booleans()) else (v, hub) for v in range(n) if v != hub]
    else:
        arcs = []
    edges = {}
    for u, v in arcs:
        edges.setdefault((u, v) if directed else (min(u, v), max(u, v)), None)
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        if not directed:
            nbrs[v].add(u)
    return build_graph(n, list(edges), directed=directed), nbrs


@settings(max_examples=150, deadline=None)
@given(_graphs_with_neighbour_sets())
def test_edge_lookup_matches_neighbour_sets(case):
    g, nbrs = case
    n = g.n_nodes
    # Every (u, v) with u a node; v also runs one past each end of the range.
    u, v = (a.ravel() for a in np.meshgrid(np.arange(n), np.arange(-1, n + 1), indexing="ij"))
    slots = g._find_slots(u, v)
    want = np.array([b in nbrs[a] for a, b in zip(u.tolist(), v.tolist())], dtype=bool)
    assert (g.has_edges(u, v) == want).all()
    assert ((slots >= 0) == want).all()
    assert (g.slot_src[slots[want]] == u[want]).all()
    assert (g.col_indices[slots[want]] == v[want]).all()
    for bad in (-2, -1, n):
        with pytest.raises(BadIndex):
            g.has_edges(np.array([bad]), np.array([0]))
    for a in range(n):
        for b in range(n):
            assert g.has_edge(a, b) == (b in nbrs[a])
            if b in nbrs[a]:
                assert g.edge_slot(a, b) == slots[a * (n + 2) + b + 1]
            else:
                with pytest.raises(BadIndex):
                    g.edge_slot(a, b)


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


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("n,n_edges,seed", [(2, 1, 0), (5, 7, 1), (40, 300, 2), (1000, 4000, 3)])
def test_build_slot_order_matches_a_lexsort_reference(directed, n, n_edges, seed):
    rng = np.random.default_rng(seed)
    pairs = rng.permutation(n * n)
    pairs = pairs[pairs // n != pairs % n]
    if not directed:  # one orientation per node pair, drawn at random
        lo, hi = np.minimum(pairs // n, pairs % n), np.maximum(pairs // n, pairs % n)
        _, first = np.unique(lo * n + hi, return_index=True)
        pairs = pairs[np.sort(first)]
    edges = np.stack([pairs // n, pairs % n], axis=1)[:n_edges]
    feats = rng.standard_normal((len(edges), 2))
    g = build_graph(n, edges, edge_features=feats, directed=directed)

    src, dst, f = edges[:, 0], edges[:, 1], feats
    if not directed:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
        f = np.concatenate([f, f])
    order = np.lexsort((dst, src))
    assert np.array_equal(g.slot_src, src[order])
    assert np.array_equal(g.col_indices, dst[order])
    assert g.edge_features.tobytes() == f[order].tobytes()
    assert np.array_equal(g.row_offsets, np.r_[0, np.cumsum(np.bincount(src, minlength=n))])


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


def _weakly_connected_by_union_find(n, arcs):
    parent = list(range(n))

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for u, v in arcs:
        parent[root(u)] = root(v)
    return len({root(v) for v in range(n)}) <= 1


def test_is_connected_on_directed_graphs_matches_union_find():
    one_way = build_graph(4, [(0, 1), (2, 1), (2, 3)], directed=True)
    assert is_connected(one_way)
    isolated = build_graph(4, [(0, 1), (1, 2), (2, 0)], directed=True)
    assert not is_connected(isolated)
    both_ways = build_graph(3, [(0, 1), (1, 0), (2, 1)], directed=True)
    assert is_connected(both_ways)
    assert not is_connected(build_graph(2, [], directed=True))
    assert is_connected(build_graph(0, [], directed=True))
    rng = np.random.default_rng(3)
    for _ in range(300):
        n = int(rng.integers(1, 12))
        p = rng.random() * 0.4
        arcs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p]
        g = build_graph(n, arcs, directed=True)
        assert is_connected(g) == _weakly_connected_by_union_find(n, arcs), arcs


def test_graph_stores_only_its_csr_arrays_and_features():
    init = [f.name for f in dataclasses.fields(Graph) if f.init]
    assert init == ["directed", "row_offsets", "col_indices", "node_features", "edge_features"]
    g = build_graph(4, [(2, 0), (1, 2), (0, 1)], directed=True)
    assert g.n_nodes == 4 and isinstance(g.n_nodes, int)
    assert g.slot_src.tolist() == [0, 1, 2]
    assert g.slot_src is g.slot_src


def test_graphs_compare_and_hash_by_identity():
    g, h = cycle_graph(4), cycle_graph(4)
    assert g == g and not g != g
    assert g != h and not g == h
    assert {g, h, g} == {g, h}
    assert len({g, h}) == 2 and hash(g) == hash(g)


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


def _union_by_rebuild(graphs):
    """The union as ``build_graph`` makes it from the offset edge list: each
    member's arcs (one slot per undirected edge) shifted by its node offset."""
    offsets = np.cumsum([0] + [g.n_nodes for g in graphs])
    edges, feats = [], []
    for g, off in zip(graphs, offsets):
        keep = np.ones(g.n_slots, dtype=bool) if g.directed else g.slot_src < g.col_indices
        edges.append(np.stack([g.slot_src[keep], g.col_indices[keep]], axis=1) + off)
        feats.append(g.edge_features[keep])
    return build_graph(int(offsets[-1]), np.concatenate(edges),
                       node_features=np.concatenate([g.node_features for g in graphs]),
                       edge_features=np.concatenate(feats), directed=graphs[0].directed)


def _random_member(rng, directed, d, de):
    """A graph on 0..6 nodes (so some are empty or edgeless) with random arcs
    and features of widths ``d`` and ``de``."""
    n = int(rng.integers(0, 7))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v and (directed or u < v)]
    keep = rng.random(len(pairs)) < rng.random()
    edges = [(v, u) if rng.random() < 0.5 and not directed else (u, v)
             for (u, v), k in zip(pairs, keep) if k]
    return build_graph(n, edges, node_features=rng.standard_normal((n, d)),
                       edge_features=rng.standard_normal((len(edges), de)),
                       directed=directed)


_GRAPH_FIELDS = ("row_offsets", "col_indices", "slot_src", "node_features", "edge_features")


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("d,de", [(0, 0), (1, 2), (2, 1)])
def test_disjoint_union_equals_the_rebuilt_union_byte_for_byte(directed, d, de):
    rng = np.random.default_rng(17 + d + 3 * de + 9 * directed)
    edgeless = build_graph(3, [], node_features=rng.standard_normal((3, d)),
                           edge_features=np.zeros((0, de)), directed=directed)
    empty = build_graph(0, [], node_features=np.zeros((0, d)),
                        edge_features=np.zeros((0, de)), directed=directed)
    member_sets = [[empty], [edgeless], [empty, edgeless, empty]]
    member_sets += [[_random_member(rng, directed, d, de)
                     for _ in range(int(rng.integers(1, 6)))] for _ in range(30)]
    for members in member_sets:
        before = [{f: getattr(g, f).copy() for f in _GRAPH_FIELDS} for g in members]
        union, offsets = disjoint_union(members)
        ref = _union_by_rebuild(members)
        assert offsets.tolist() == np.cumsum([0] + [g.n_nodes for g in members]).tolist()
        assert (union.n_nodes, union.directed) == (ref.n_nodes, ref.directed)
        assert type(union.n_nodes) is int
        for f in _GRAPH_FIELDS:
            got, want = getattr(union, f), getattr(ref, f)
            assert got.dtype == want.dtype and got.shape == want.shape, f
            assert got.tobytes() == want.tobytes(), f
            assert got.flags.c_contiguous
            for g, saved in zip(members, before):
                assert not np.shares_memory(got, getattr(g, f)), f
                assert getattr(g, f).tobytes() == saved[f].tobytes(), f


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


def test_erdos_renyi_negative_node_count_raises_bad_index():
    with pytest.raises(BadIndex):
        erdos_renyi_graph(-1, 0.5, seed=0)


@pytest.mark.parametrize("p", [-0.1, 1.5, float("nan"), float("inf")])
def test_erdos_renyi_edge_probability_outside_unit_interval_raises(p):
    with pytest.raises(Unsupported, match="edge probability"):
        erdos_renyi_graph(5, p, seed=0)


@pytest.mark.parametrize("require_connected", [False, True])
@pytest.mark.parametrize("max_tries", [0, -3])
def test_erdos_renyi_max_tries_below_one_raises(max_tries, require_connected):
    with pytest.raises(Unsupported, match="max_tries must be >= 1"):
        erdos_renyi_graph(5, 0.5, seed=0, require_connected=require_connected,
                          max_tries=max_tries)


def test_erdos_renyi_builds_no_candidate_with_an_isolated_node(monkeypatch):
    """Seed 3's first five G(8, 0.3) tries leave a node without an edge: only
    the sixth try reaches ``is_connected``."""
    import neuralwalker.graphs as graphs_mod

    seen = []
    real = graphs_mod.is_connected
    monkeypatch.setattr(graphs_mod, "is_connected", lambda g: seen.append(g) or real(g))
    g = erdos_renyi_graph(8, 0.3, seed=3, require_connected=True)
    assert seen == [g]
    assert (g.degrees() > 0).all()


def test_cached_node_pairs_cannot_be_written():
    """Every draw of a size shares its cached pairs, so a write must raise
    rather than change the graphs drawn after it."""
    import neuralwalker.graphs as graphs_mod

    erdos_renyi_graph(6, 0.5, seed=0)
    pairs, keys = graphs_mod._small_node_pairs(6)
    for a in (pairs, keys):
        with pytest.raises(ValueError, match="read-only"):
            a[..., 0] = 0


def test_random_regular_degree_and_connectivity():
    for seed in range(5):
        g = random_regular_graph(20, 4, seed=seed)
        assert g.degrees().tolist() == [4] * 20
        assert is_connected(g)
    with pytest.raises(Unsupported):
        random_regular_graph(10, 3, seed=0)
    with pytest.raises(Unsupported):
        random_regular_graph(4, 4, seed=0)


def _csr_sha256(g):
    digest = hashlib.sha256()
    for a in (g.row_offsets, g.col_indices, g.slot_src):
        digest.update(a.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("n,d,seed,sha", [
    (3, 2, 0, "0b53ea366e6923238f375c8144f2d7b88fee424bfadb0d8680d72b424355f433"),
    (7, 6, 0, "6aedc7ee0b572acb784a2a07f35ef4ba4a26cadd0d95e19e5a1258e62c3eb569"),
    (8, 6, 1, "7bf5f9a2001a27c734a9e2e7420f5b5578e37bdfd450b837f9b6f6f35d63af53"),
    (12, 8, 1, "eaf2e31a2efaf1979eadd60d2b64c829df835f75ebd4a2fe7621d4b40403f9a5"),
    # Rounds with both kinds of duplicate: the repair order shows in the bytes.
    (12, 8, 3, "5e24034e2425160629f7ad9d54fb5fa04a615015b5c63d7d652b3483eb0c995b"),
    (12, 8, 6, "1948c44e5a4595aa98bf2315b0028c0b2ee686dcb5c523e1dff86b5068d75547"),
    (20, 4, 3, "1c99e824d128b671b0cabbc4bcedb2b5a9d202805761c8144bea01627e3c3edc"),
    (50, 6, 2, "883bc0a85f5e92401d8c92e986eb291effb9a6fdd1560e920a26b3d73829f0d6"),
    (100, 8, 5, "13bd8f9e28df765c0f6eef391fa948edcdb0fe9b01e8ed5a7cc13f28a0d01a65"),
    (1000, 4, 0, "8bba8d005838b8a79c02bca6ab02564f9901c68bc4bd619ae9b49a4e6c64033f"),
    (100_000, 4, 0, "7226daa606cf60b0a1fdb313d393c571c956562c0c232d0d1497c709633d19c7"),
    (100_000, 4, 7, "6635244212ed286f23344e48d98e8eaac671ddad622182ed0ba60921f12a7877"),
])
def test_random_regular_graph_csr_is_pinned(n, d, seed, sha):
    """Pinned CSR bytes: the repair keeps its order and its ``rng`` draws."""
    assert _csr_sha256(random_regular_graph(n, d, seed=seed)) == sha


def _graph_sha256(g):
    """sha256 over the shape and bytes of every stored array of ``g``."""
    digest = hashlib.sha256()
    for a in (g.row_offsets, g.col_indices, g.node_features, g.edge_features):
        digest.update(repr(a.shape).encode())
        digest.update(a.tobytes())
    return digest.hexdigest()


# (n, p, seed, require_connected, with_features, sha256). With require_connected,
# the tries of (6, 0.3, 4), (10, 0.3, 9) and (30, 0.12, 42) are rejected both for
# an isolated node and by ``is_connected``; (2, 0.3, 0)'s first try has no edge.
_ER_PINS = [
    (0, 0.3, 1, False, False, "cffd503f8118c20aa284051c4860fa3ced3468c6aea059c553c5ec65656146c5"),
    (0, 0.3, 1, False, True, "af5208972414899c8852174eb49f4bde90aa6b1684fe7e11a7089a9f79715d38"),
    (0, 0.3, 1, True, False, "cffd503f8118c20aa284051c4860fa3ced3468c6aea059c553c5ec65656146c5"),
    (0, 0.3, 1, True, True, "af5208972414899c8852174eb49f4bde90aa6b1684fe7e11a7089a9f79715d38"),
    (1, 0.3, 1, False, False, "bbf399f1e45f6f5e1e76ee5de87f30088230ae054b074adf23a8ef960c33fe60"),
    (1, 0.3, 1, False, True, "34855e40d5794b041486f91e9ed28bf3956c68fc84c0a9fa86fd1f89b24b70d5"),
    (1, 0.3, 1, True, False, "bbf399f1e45f6f5e1e76ee5de87f30088230ae054b074adf23a8ef960c33fe60"),
    (1, 0.3, 1, True, True, "34855e40d5794b041486f91e9ed28bf3956c68fc84c0a9fa86fd1f89b24b70d5"),
    (2, 0.3, 0, False, False, "802244320a59e4c8ebfcc1a15d828729fbac4df960178a65771c7062a12be523"),
    (2, 0.3, 0, False, True, "a1d51d9842c1a87b67424faa44e6b7b34c1e31fb4331861b5b5c4de53ddec501"),
    (2, 0.3, 0, True, False, "fc2618fbf57411bd7576b20d899fc1a1c0f852349de8129dedd632c96812ac5e"),
    (2, 0.3, 0, True, True, "86bbfe7017d9cf2b274a958171ca121c966163ac23a746a1ea08db12c3b41c17"),
    (6, 0.3, 4, False, False, "47ba0db0bd8d1b93ceabef69ad3a6706d142ff80a647629b5965efd786fd2585"),
    (6, 0.3, 4, False, True, "58e2e16aa8713353eb2489a2186aca81dc2bc38393aaf9cc7e893d8c95e3b3e0"),
    (6, 0.3, 4, True, False, "3afd6c0d0a24bb41dae98ec6e7fc40e4b058683def0c063f1f52901902b4d7cd"),
    (6, 0.3, 4, True, True, "83b75840b44417fcb12598d13f1676b4a60b257c7cfaaf94299983cef453e879"),
    (10, 0.3, 9, False, False, "7a4d2e83eca566ef6f4d4562945ff2e2253f7b2ee6e3b6eaa4ab02560a57b22a"),
    (10, 0.3, 9, False, True, "d81bf3d4b63f78c18e1ef4f5280b9fa3ee422cd5a71536fbb83c60dd3e0fb783"),
    (10, 0.3, 9, True, False, "43f28e9783119919182680d2081266db628ba428cf3161f0850e1cec25a017a3"),
    (10, 0.3, 9, True, True, "5d7aebd5cbcf5a3e46bc202ea5b06d784aa1d1d890044859602d0fa17f0be271"),
    (30, 0.12, 42, False, False, "49335e06a68b4400e222dd488b4e735200816e1fcbd5f7f5f1f99a91f9f9a116"),
    (30, 0.12, 42, False, True, "d81dc29c3a6d71f1d57e791f2b3a35eff5b267236d8c1a58e6b99438800b6468"),
    (30, 0.12, 42, True, False, "75740c8edd7891bb068ca471da356c4a6cc6b99fc2093904bc8ddcbf64a7c041"),
    (30, 0.12, 42, True, True, "c8944188cf105dd1cdf0dab82dad63f83c9244b5a0fb08465ccfff55c79e851b"),
]


@pytest.mark.parametrize("n,p,seed,require_connected,with_features,sha", _ER_PINS)
def test_erdos_renyi_graph_bytes_are_pinned(n, p, seed, require_connected, with_features, sha):
    g = erdos_renyi_graph(n, p, seed=seed, with_features=with_features,
                          require_connected=require_connected)
    assert _graph_sha256(g) == sha


# G(8, 0.3): seed 3's first five tries leave a node without an edge; seed 13's
# first try covers every node but is disconnected, and its next four leave a
# node without an edge. Both accept their sixth try.
@pytest.mark.parametrize("seed,sha", [
    (3, "b171fe075ec617170ad8e86f977ed8d9f72d5c8e3e07dff59192d1c85091c5ad"),
    (13, "e19dcbafdd9722181ce95bbd8b0d380e638bb48124a91919c7f6aa2b42121664"),
])
def test_rejected_erdos_renyi_tries_count_toward_max_tries(seed, sha):
    g = erdos_renyi_graph(8, 0.3, seed=seed, require_connected=True, max_tries=6)
    assert _graph_sha256(g) == sha
    with pytest.raises(Unsupported, match="in 5 tries"):
        erdos_renyi_graph(8, 0.3, seed=seed, require_connected=True, max_tries=5)


@pytest.mark.parametrize("n,d,seed", [(7, 6, 1), (8, 6, 0), (9, 8, 0), (11, 10, 0),
                                      (5, 0, 0), (5, -2, 0)])
def test_random_regular_graph_infeasible_inputs_raise_unsupported(n, d, seed):
    """Failed repairs (the first four) and degrees that are not positive."""
    with pytest.raises(Unsupported):
        random_regular_graph(n, d, seed=seed)


@st.composite
def _broadcast_edge_queries(draw):
    """A graph whose longest row falls on either side of ``_SCAN_DEGREE`` (a
    star hub of about that degree over random arcs), its out-neighbour sets,
    sources ``u`` of shape (a, b, 1) and targets ``v`` of shape (a, b, k) in
    [-1, n + 1]; any of a, b, k may be 0."""
    directed = draw(st.booleans())
    n = draw(st.integers(1, 2 * _SCAN_DEGREE + 4))
    arcs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                         max_size=2 * n))
    hub = draw(st.integers(0, n - 1))
    spokes = draw(st.integers(_SCAN_DEGREE - 1, _SCAN_DEGREE + 2) | st.integers(0, n - 1))
    arcs += [(hub, v) for v in range(n) if v != hub][:spokes]
    edges = {}
    for a, b in arcs:
        if a != b:
            edges.setdefault((a, b) if directed else (min(a, b), max(a, b)), None)
    nbrs = [set() for _ in range(n)]
    for a, b in edges:
        nbrs[a].add(b)
        if not directed:
            nbrs[b].add(a)
    a, b, k = (draw(st.integers(0, 4)) for _ in range(3))
    u = np.array(draw(st.lists(st.integers(0, n - 1), min_size=a * b, max_size=a * b)),
                 dtype=np.int64).reshape(a, b, 1)
    v = np.array(draw(st.lists(st.integers(-1, n + 1), min_size=a * b * k,
                               max_size=a * b * k)), dtype=np.int64).reshape(a, b, k)
    return build_graph(n, list(edges), directed=directed), nbrs, u, v


@settings(max_examples=200, deadline=None)
@given(_broadcast_edge_queries())
def test_broadcast_has_edges_matches_neighbour_sets(case):
    g, nbrs, u, v = case
    ub, vb = np.broadcast_arrays(u, v)
    want = np.array([b in nbrs[a] for a, b in zip(ub.ravel().tolist(), vb.ravel().tolist())],
                    dtype=bool).reshape(vb.shape)
    for got in (g.has_edges(u, v), g.has_edges(ub, vb),
                g.has_edges(u.reshape(-1, 1), v.reshape(u.size, v.shape[2])).reshape(vb.shape)):
        assert got.dtype == bool and got.shape == want.shape
        assert (got == want).all()
    for bad in (-1, g.n_nodes):
        wrong = np.concatenate([u.ravel(), [bad]]).reshape(-1, 1)
        with pytest.raises(BadIndex):
            g.has_edges(wrong, np.zeros((wrong.size, 3), dtype=np.int64))


def test_broadcast_has_edges_searches_only_rows_past_the_limit(monkeypatch):
    calls = []
    find_slots = Graph._find_slots
    monkeypatch.setattr(Graph, "_find_slots",
                        lambda self, u, v: calls.append(np.shape(u)) or find_slots(self, u, v))
    v = np.array([[-1, 0, 1, 2, 3], [-1, 0, 1, 2, 3]])
    for leaves, sources, searched in ((_SCAN_DEGREE, [0, 1], []),
                                      (_SCAN_DEGREE + 1, [0, 1], [(5,)]),
                                      (_SCAN_DEGREE + 1, [0, 0], [(2, 5)])):
        calls.clear()
        got = star_graph(leaves + 1).has_edges(np.array(sources)[:, None], v)
        want = [[False, False, True, True, True] if s == 0 else [False, True, False, False, False]
                for s in sources]
        assert got.tolist() == want
        assert calls == searched
