"""Brute-force oracle tests: enumeration, expectations, refinement, census."""

import numpy as np
import pytest

from neuralwalker.encoding import encode_batch
from neuralwalker.errors import TooLarge, Unsupported
from neuralwalker.graphs import (
    build_graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    erdos_renyi_graph,
    is_connected,
    path_graph,
    star_graph,
)
from neuralwalker.oracle import (
    count_walks,
    enumerate_connected_graphs,
    enumerate_walks,
    exact_expectation,
    exists_covering_walk,
    separation_witness,
    triangle_count,
    wl_colors,
    wl_indistinguishable,
)
from neuralwalker.sampling import WalkBatch, sample_walks_iid, stationary_distribution


# -----------------------------------------------------------------------------
# Walk enumeration
# -----------------------------------------------------------------------------

def test_triangle_walks_are_twelve_uniform():
    nodes, slots, mask, probs = enumerate_walks(complete_graph(3), length=2)
    assert nodes.shape == (12, 3)
    assert np.allclose(probs, 1.0 / 12.0)
    assert mask.all()
    # Every walk respects adjacency (no repeated consecutive nodes on K3).
    assert (nodes[:, 0] != nodes[:, 1]).all()
    assert (nodes[:, 1] != nodes[:, 2]).all()


def test_path_non_backtracking_enumeration():
    nodes, _, _, probs = enumerate_walks(path_graph(3), length=2,
                                         non_backtracking=True)
    table = {tuple(row): p for row, p in zip(nodes.tolist(), probs)}
    # End starts are forced through; the middle start splits, then dead-ends.
    assert table[(0, 1, 2)] == pytest.approx(1 / 3)
    assert table[(2, 1, 0)] == pytest.approx(1 / 3)
    assert table[(1, 0, 1)] == pytest.approx(1 / 6)
    assert table[(1, 2, 1)] == pytest.approx(1 / 6)
    assert len(table) == 4


def test_probabilities_sum_to_one_on_random_graphs():
    rng = np.random.default_rng(5)
    for trial in range(50):
        n = int(rng.integers(2, 7))
        g = erdos_renyi_graph(n, 0.5, seed=int(rng.integers(1 << 30)))
        nb = bool(trial % 2)
        length = int(rng.integers(1, 5))
        _, _, _, probs = enumerate_walks(g, length, non_backtracking=nb)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_stationary_start_enumeration_marginals():
    g = star_graph(4)
    nodes, _, _, probs = enumerate_walks(g, length=2,
                                         start_distribution="stationary")
    pi = stationary_distribution(g)
    for v in range(4):
        assert probs[nodes[:, 0] == v].sum() == pytest.approx(pi[v])


def test_isolated_nodes_enumerate_as_masked_stayers():
    g = build_graph(3, [(0, 1)])
    nodes, slots, mask, probs = enumerate_walks(g, length=3)
    iso = nodes[:, 0] == 2
    assert iso.sum() == 1
    assert (nodes[iso] == 2).all()
    assert (slots[iso] == -1).all()
    assert (~mask[iso, 1:]).all()
    assert probs[iso][0] == pytest.approx(1 / 3)
    assert probs.sum() == pytest.approx(1.0)


def test_count_walks_matches_enumeration():
    rng = np.random.default_rng(9)
    for trial in range(30):
        n = int(rng.integers(2, 7))
        g = erdos_renyi_graph(n, 0.5, seed=int(rng.integers(1 << 30)))
        nb = bool(trial % 2)
        length = int(rng.integers(1, 5))
        nodes, _, _, _ = enumerate_walks(g, length, non_backtracking=nb)
        assert count_walks(g, length, nb) == nodes.shape[0]


def test_count_walks_pinned_values():
    assert count_walks(complete_graph(3), 2) == 12
    assert count_walks(complete_graph(3), 2, non_backtracking=True) == 6
    assert count_walks(path_graph(3), 2, non_backtracking=True) == 4


def test_enumeration_guard_trips_fast_without_expanding():
    import time
    t0 = time.monotonic()
    with pytest.raises(TooLarge):
        enumerate_walks(complete_graph(6), length=20)
    assert time.monotonic() - t0 < 1.0
    with pytest.raises(TooLarge):
        enumerate_walks(complete_graph(4), length=4, max_walks=10)
    with pytest.raises(Unsupported):
        enumerate_walks(complete_graph(3), length=0)


def test_sampler_law_matches_enumeration_with_dead_ends():
    # Non-backtracking walks on a path exercise the forced-backtrack rule;
    # the sampled law must match the enumerated one to TV < 0.01.
    g = path_graph(4)
    length = 3
    nodes, _, _, probs = enumerate_walks(g, length, non_backtracking=True)
    exact = {tuple(r): p for r, p in zip(nodes.tolist(), probs)}
    n_draws = 100_000
    batch = sample_walks_iid(g, n_walks=n_draws, length=length, seed=42,
                             non_backtracking=True)
    seen: dict[tuple, int] = {}
    for row in batch.nodes.tolist():
        seen[tuple(row)] = seen.get(tuple(row), 0) + 1
    assert set(seen) <= set(exact)
    tv = 0.5 * sum(abs(seen.get(w, 0) / n_draws - p) for w, p in exact.items())
    assert tv < 0.01


# -----------------------------------------------------------------------------
# Expectations
# -----------------------------------------------------------------------------

def test_constant_functional_has_unit_expectation():
    val = exact_expectation(complete_graph(4), 3,
                            lambda nodes, slots, mask: np.ones(len(nodes)))
    assert val == pytest.approx(1.0)


def test_triangle_closing_probability_on_k3():
    # After two steps on the triangle, the walk is adjacent to its start
    # exactly when it did not return: probability 1/2.
    def closing_flag(nodes, slots, mask):
        g = complete_graph(3)
        return g.has_edges(nodes[:, 2], nodes[:, 0]).astype(float)

    assert exact_expectation(complete_graph(3), 2, closing_flag) == pytest.approx(0.5)


def test_expectation_respects_start_distribution():
    # Mean start degree under the stationary law is sum(d^2) / (2 |E|).
    g = star_graph(4)

    def start_degree(nodes, slots, mask):
        return g.degrees()[nodes[:, 0]].astype(float)

    uniform = exact_expectation(g, 1, start_degree)
    stationary = exact_expectation(g, 1, start_degree,
                                   start_distribution="stationary")
    assert uniform == pytest.approx(6 / 4)
    assert stationary == pytest.approx((9 + 1 + 1 + 1) / 6)


def test_expectation_rejects_wrong_shape():
    with pytest.raises(Unsupported):
        exact_expectation(complete_graph(3), 1, lambda n, s, m: np.ones(3))


# -----------------------------------------------------------------------------
# Covering walks
# -----------------------------------------------------------------------------

def test_exists_covering_walk():
    assert exists_covering_walk(path_graph(3), 2)
    assert not exists_covering_walk(complete_graph(3), 1)
    assert exists_covering_walk(complete_graph(3), 2)
    assert not exists_covering_walk(build_graph(3, [(0, 1)]), 5)


# -----------------------------------------------------------------------------
# Triangle counting
# -----------------------------------------------------------------------------

def test_triangle_count_pinned():
    assert triangle_count(complete_graph(3)) == 1
    assert triangle_count(complete_graph(4)) == 4
    assert triangle_count(complete_graph(5)) == 10
    assert triangle_count(cycle_graph(6)) == 0
    assert triangle_count(path_graph(5)) == 0


def test_triangle_count_matches_adjacency_trace():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(3, 9))
        g = erdos_renyi_graph(n, 0.5, seed=int(rng.integers(1 << 30)))
        A = np.zeros((n, n))
        for s in range(g.n_slots):
            A[g.slot_src[s], g.col_indices[s]] = 1.0
        expected = int(round(np.trace(A @ A @ A) / 6))
        assert triangle_count(g) == expected


# -----------------------------------------------------------------------------
# Color refinement
# -----------------------------------------------------------------------------

def _naive_refinement_partition(graph, rounds):
    """Interned-tuple color refinement; returns the sorted class sizes and
    per-node class ids (canonical order)."""
    colors = [0] * graph.n_nodes
    for _ in range(rounds):
        keys = [
            (colors[v], tuple(sorted(colors[u] for u in graph.neighbors(v).tolist())))
            for v in range(graph.n_nodes)
        ]
        table = {k: i for i, k in enumerate(sorted(set(keys)))}
        colors = [table[k] for k in keys]
    return colors


def test_refinement_blind_to_two_triangles_vs_hexagon():
    two_triangles, _ = disjoint_union([cycle_graph(3), cycle_graph(3)])
    assert wl_indistinguishable(two_triangles, cycle_graph(6))


def test_refinement_separates_easy_pairs():
    assert not wl_indistinguishable(complete_graph(3), path_graph(3))
    assert not wl_indistinguishable(path_graph(4), star_graph(4))
    assert not wl_indistinguishable(complete_graph(3), complete_graph(4))


def test_refinement_relabel_invariant():
    rng = np.random.default_rng(7)
    for _ in range(10):
        g = erdos_renyi_graph(7, 0.4, seed=int(rng.integers(1 << 30)))
        perm = rng.permutation(7)
        edges = set()
        for s in range(g.n_slots):
            u, v = int(perm[g.slot_src[s]]), int(perm[g.col_indices[s]])
            if u < v:
                edges.add((u, v))
        relabeled = build_graph(7, sorted(edges))
        assert wl_indistinguishable(g, relabeled)
        assert sorted(wl_colors(g)) == sorted(wl_colors(relabeled))


def test_refinement_partition_matches_naive_on_random_graphs():
    rng = np.random.default_rng(13)
    for _ in range(500):
        n = int(rng.integers(2, 9))
        g = erdos_renyi_graph(n, float(rng.uniform(0.2, 0.8)),
                              seed=int(rng.integers(1 << 30)))
        digests = wl_colors(g, rounds=n)
        naive = _naive_refinement_partition(g, rounds=n)
        # Same partition: equal digests iff equal naive colors.
        for i in range(n):
            for j in range(i + 1, n):
                assert (digests[i] == digests[j]) == (naive[i] == naive[j])


# -----------------------------------------------------------------------------
# Separation battery
# -----------------------------------------------------------------------------

def test_witness_separates_refinement_blind_pair():
    two_triangles, _ = disjoint_union([cycle_graph(3), cycle_graph(3)])
    hexagon = cycle_graph(6)
    result = separation_witness(two_triangles, hexagon, length=2)
    assert result["gap"] >= 0.4
    # The lookback-2 adjacency flag closes a triangle on half the walks of
    # the triangle pair and never on the hexagon.
    assert result["table"]["adj[1]/sum"] == (0.5, 0.0)


def test_witness_zero_gap_on_identical_and_isomorphic_graphs():
    g = cycle_graph(5)
    same = separation_witness(g, g, length=3)
    assert same["gap"] == 0.0
    perm = [2, 0, 4, 1, 3]
    edges = set()
    for s in range(g.n_slots):
        u, v = perm[g.slot_src[s]], perm[g.col_indices[s]]
        if u < v:
            edges.add((u, v))
    iso = build_graph(5, sorted(edges))
    assert separation_witness(g, iso, length=3)["gap"] == pytest.approx(0.0, abs=1e-12)


# -----------------------------------------------------------------------------
# Census of small connected graphs
# -----------------------------------------------------------------------------

def test_census_counts():
    assert [len(enumerate_connected_graphs(n)) for n in range(1, 7)] == \
        [1, 1, 2, 6, 21, 112]


def test_census_members_are_connected_and_distinct():
    for n in (3, 4, 5):
        graphs = enumerate_connected_graphs(n)
        seen = set()
        for g in graphs:
            assert g.n_nodes == n
            assert is_connected(g)
            key = frozenset(
                (int(g.slot_src[s]), int(g.col_indices[s]))
                for s in range(g.n_slots) if g.slot_src[s] < g.col_indices[s]
            )
            assert key not in seen
            seen.add(key)
    with pytest.raises(Unsupported):
        enumerate_connected_graphs(7)


def test_covering_walk_encodings_identify_small_graphs():
    # The identity+adjacency feature matrices of node-covering walks pin the
    # graph down: across all connected graphs on n <= 5 nodes, no covering
    # walk signature is shared by two non-isomorphic graphs.
    for n in range(2, 6):
        length = n + 1
        owners: dict[bytes, int] = {}
        for idx, g in enumerate(enumerate_connected_graphs(n)):
            nodes, slots, mask, _ = enumerate_walks(g, length)
            covering = np.array([len(set(r)) == n for r in nodes.tolist()])
            assert covering.any(), f"graph {idx} on {n} nodes has no covering walk"
            batch = WalkBatch(nodes=nodes, edge_slots=slots, mask=mask,
                              start_nodes=nodes[:, 0].copy(), length=length)
            ident, adjac = encode_batch(g, batch, length + 1)
            signatures = np.concatenate([ident, adjac], axis=2)[covering]
            for sig in signatures:
                key = sig.tobytes()
                assert owners.setdefault(key, idx) == idx, \
                    f"covering-walk signature shared by graphs {owners[key]} and {idx}"
