"""Walk-encoding tests against a naive per-entry reference."""

import numpy as np
import pytest

from neuralwalker.encoding import (
    count_triangle_flags,
    encode_batch,
    walk_feature_matrix,
)
from neuralwalker.errors import BadWindow, ShapeError
from neuralwalker.graphs import (
    _SCAN_DEGREE,
    Graph,
    build_graph,
    complete_graph,
    cycle_graph,
    erdos_renyi_graph,
)
from neuralwalker.sampling import SamplerConfig, WalkBatch, sample_walks


def naive_encodings(graph, nodes, mask, window):
    """Direct double-loop transcription of the encoding definitions."""
    n_pos = len(nodes)
    ident = np.zeros((n_pos, window))
    adjac = np.zeros((n_pos, window - 1))
    for i in range(n_pos):
        for j in range(window):
            k = i - j - 1
            if k < 0 or not mask[i] or not mask[k]:
                continue
            if nodes[i] == nodes[k]:
                ident[i, j] = 1.0
            if j < window - 1 and graph.has_edge(int(nodes[i]), int(nodes[k])):
                adjac[i, j] = 1.0
    return ident, adjac


def one_walk(graph, nodes):
    """A batch holding the single unmasked walk ``nodes``."""
    nodes = np.asarray(nodes, dtype=np.int64).reshape(1, -1)
    slots = [graph.edge_slot(int(u), int(v)) for u, v in zip(nodes[0, :-1], nodes[0, 1:])]
    return WalkBatch(nodes=nodes, edge_slots=np.array([slots], dtype=np.int64),
                     mask=np.ones_like(nodes, dtype=bool))


# -----------------------------------------------------------------------------
# Agreement with the naive reference
# -----------------------------------------------------------------------------

def test_matches_naive_on_random_walks():
    rng = np.random.default_rng(0)
    for trial in range(30):
        n = int(rng.integers(3, 9))
        g = erdos_renyi_graph(n, 0.5, seed=int(rng.integers(1 << 30)),
                              require_connected=True)
        length = int(rng.integers(1, 9))
        window = int(rng.integers(1, length + 4))
        batch = sample_walks(g, SamplerConfig(length=length, rate=1.0),
                             seed=trial)
        ident, adjac = encode_batch(g, batch, window)
        for w in range(batch.n_walks):
            ref_i, ref_a = naive_encodings(g, batch.nodes[w], batch.mask[w],
                                           window)
            assert (ident[w] == ref_i).all()
            assert (adjac[w] == ref_a).all()


@pytest.mark.parametrize("directed", [False, True])
def test_matches_naive_with_a_hub_past_the_scan_limit(directed):
    # Node 0 has more neighbours than has_edges scans, so queries from it
    # take the lower bound while those from the leaves, joined in a ring,
    # are scanned.
    leaves = _SCAN_DEGREE + 4
    ring = [(i, i % leaves + 1) for i in range(1, leaves + 1)]
    hub = [(0, i) for i in range(1, leaves + 1)] + [(i, 0) for i in range(2, leaves + 1, 2)]
    g = build_graph(leaves + 1, ring + (hub if directed else hub[:leaves]), directed=directed)
    assert g.degrees().max() > _SCAN_DEGREE
    length = 7
    batch = sample_walks(g, SamplerConfig(length=length, rate=1.0), seed=3)
    for window in (1, 2, length, length + 5):
        ident, adjac = encode_batch(g, batch, window)
        for w in range(batch.n_walks):
            ref_i, ref_a = naive_encodings(g, batch.nodes[w], batch.mask[w], window)
            assert (ident[w] == ref_i).all()
            assert (adjac[w] == ref_a).all()


@pytest.mark.parametrize("window", [1, 2, 5, 30])
def test_one_has_edges_call_per_batch(monkeypatch, window):
    g = erdos_renyi_graph(12, 0.4, seed=1)
    batch = sample_walks(g, SamplerConfig(length=6, rate=1.0), seed=4)
    calls = []
    has_edges = Graph.has_edges
    monkeypatch.setattr(Graph, "has_edges",
                        lambda self, u, v: calls.append((u.shape, v.shape)) or has_edges(self, u, v))
    walk_feature_matrix(g, batch, window=window)
    k = min(window - 1, 6)
    assert calls == [((batch.n_walks, 7, 1), (batch.n_walks, 7, k))]


def test_cycle_closure_pins():
    # Walking all the way around a 4-cycle: the final position equals the
    # start (identity flag at lookback 4) and the position before it is the
    # start's neighbor (adjacency flag at lookback 3).
    g = cycle_graph(4)
    ident, adjac = (block[0] for block in encode_batch(g, one_walk(g, [0, 1, 2, 3, 0]), 4))
    assert ident[4, 3] == 1.0
    assert adjac[3, 2] == 1.0
    # No other identity flags: all intermediate nodes are distinct.
    assert ident.sum() == 1.0
    # Every real step contributes a lookback-1 adjacency flag.
    assert (adjac[1:, 0] == 1.0).all()


def test_first_row_is_always_zero():
    g = complete_graph(4)
    batch = sample_walks(g, SamplerConfig(length=5, rate=1.0), seed=1)
    ident, adjac = encode_batch(g, batch, 6)
    assert (ident[:, 0, :] == 0).all()
    assert (adjac[:, 0, :] == 0).all()


def test_no_self_loops_means_no_lookback_one_identity():
    g = complete_graph(5)
    batch = sample_walks(g, SamplerConfig(length=8, rate=1.0), seed=2)
    ident, _ = encode_batch(g, batch, 4)
    assert (ident[:, :, 0] == 0).all()


def test_masked_positions_encode_to_zero():
    g = build_graph(3, [(0, 1)])  # node 2 isolated
    batch = sample_walks(g, SamplerConfig(length=4, rate=1.0), seed=5)
    ident, adjac = encode_batch(g, batch, 3)
    iso = np.flatnonzero(batch.start_nodes == 2)[0]
    assert (ident[iso] == 0).all()
    assert (adjac[iso] == 0).all()


def test_window_beyond_walk_length():
    g = cycle_graph(3)
    nodes = np.array([0, 1, 2])
    ident, adjac = (block[0] for block in encode_batch(g, one_walk(g, nodes), 10))
    ref_i, ref_a = naive_encodings(g, nodes, np.ones(3, dtype=bool), 10)
    assert (ident == ref_i).all() and (adjac == ref_a).all()
    assert ident.shape == (3, 10) and adjac.shape == (3, 9)


# -----------------------------------------------------------------------------
# Configuration and shapes
# -----------------------------------------------------------------------------

def test_bad_window_rejected():
    g = cycle_graph(3)
    batch = sample_walks(g, SamplerConfig(length=2, rate=1.0), seed=0)
    with pytest.raises(BadWindow):
        encode_batch(g, batch, 0)
    with pytest.raises(BadWindow):
        walk_feature_matrix(g, batch, window=-1)


# -----------------------------------------------------------------------------
# Full feature matrix
# -----------------------------------------------------------------------------

def test_feature_matrix_layout():
    node_feats = np.arange(8, dtype=np.float64).reshape(4, 2)
    edge_feats = np.array([[10.0], [20.0], [30.0], [40.0]])
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)],
                    node_features=node_feats, edge_features=edge_feats)
    batch = sample_walks(g, SamplerConfig(length=3, rate=1.0), seed=7)
    F = walk_feature_matrix(g, batch)  # default window = length
    d, de, s = 2, 1, 3
    assert F.shape == (4, 4, d + de + 2 * s - 1)
    assert (F[:, :, :d] == node_feats[batch.nodes]).all()
    # Edge block: feature of the outgoing arc; zero at the final position.
    for w in range(4):
        for t in range(3):
            slot = batch.edge_slots[w, t]
            assert (F[w, t, d:d + de] == g.edge_features[slot]).all()
        assert (F[w, 3, d:d + de] == 0).all()
    # Encoding blocks agree with encode_batch.
    ident, adjac = encode_batch(g, batch, s)
    assert (F[:, :, d + de:d + de + s] == ident).all()
    assert (F[:, :, d + de + s:] == adjac).all()


def test_feature_matrix_masks_padded_rows():
    g = build_graph(3, [(0, 1)], node_features=np.ones((3, 1)))
    batch = sample_walks(g, SamplerConfig(length=2, rate=1.0), seed=1)
    F = walk_feature_matrix(g, batch, window=2)
    iso = np.flatnonzero(batch.start_nodes == 2)[0]
    assert (F[iso, 1:] == 0).all()
    assert F[iso, 0, 0] == 1.0  # start row keeps its node features


def test_feature_matrix_bytes_match_block_formula():
    # Negative features make every masked entry -0.0, so only the same
    # products in the same order give the same bytes.
    rng = np.random.default_rng(5)
    g = build_graph(7, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)],  # 5, 6 isolated
                    node_features=-rng.uniform(0.5, 2.0, size=(7, 2)),
                    edge_features=-rng.uniform(0.5, 2.0, size=(5, 3)))
    sampled = sample_walks(g, SamplerConfig(length=5, rate=1.0), seed=2)
    # A file-style walk whose position 1 is masked while step 1 has a slot.
    holed = WalkBatch(nodes=np.array([[0, 1, 2, 3]]),
                      edge_slots=np.array([[-1, g.edge_slot(1, 2), g.edge_slot(2, 3)]]),
                      mask=np.array([[True, False, True, True]]))
    for batch in (sampled, holed):
        l = batch.length
        for window in (None, 1, 2, l + 3):
            ident, adjac = encode_batch(g, batch, l if window is None else window)
            edge_block = np.zeros((batch.n_walks, l + 1, g.edge_dim))
            step_ok = batch.step_mask() & (batch.edge_slots >= 0)
            safe_slots = np.where(step_ok, batch.edge_slots, 0)
            edge_block[:, :l, :] = g.edge_features[safe_slots] * step_ok[:, :, None]
            want = np.concatenate([g.node_features[batch.nodes], edge_block, ident, adjac],
                                  axis=2) * batch.mask[:, :, None]
            got = walk_feature_matrix(g, batch, window=window)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


# -----------------------------------------------------------------------------
# Triangle flags
# -----------------------------------------------------------------------------

def _all_length2_walks(graph):
    walks = []
    for u in range(graph.n_nodes):
        for v in graph.neighbors(u):
            for w in graph.neighbors(v):
                walks.append((u, v, w))
    return np.asarray(walks, dtype=np.int64)


def test_triangle_flag_counts_pinned():
    assert count_triangle_flags(complete_graph(3),
                                _all_length2_walks(complete_graph(3))) == 6
    assert count_triangle_flags(cycle_graph(6),
                                _all_length2_walks(cycle_graph(6))) == 0
    assert count_triangle_flags(complete_graph(4),
                                _all_length2_walks(complete_graph(4))) == 24


def test_triangle_flags_shape_checked():
    with pytest.raises(ShapeError):
        count_triangle_flags(complete_graph(3), np.zeros((2, 4), dtype=np.int64))
