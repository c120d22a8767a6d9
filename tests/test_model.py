"""Model pipeline tests: packing, stage semantics, invariances, skip rules."""

import dataclasses

import numpy as np
import pytest

from neuralwalker import autodiff as ad
from neuralwalker import model as model_module
from neuralwalker.autodiff import Tensor
from neuralwalker.errors import ParseError, ShapeError, Unsupported
from neuralwalker.graphs import (
    build_graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    erdos_renyi_graph,
    path_graph,
)
from neuralwalker.model import (
    Model,
    ModelConfig,
    PackedGraphs,
    aggregate_edges,
    aggregate_nodes,
    embed_walks,
    global_mp_transformer,
    global_mp_virtual_node,
    local_mp_gin,
    pack_graphs,
    sample_walks_packed,
    walk_functional_readout,
)
from neuralwalker.sampling import SamplerConfig, WalkBatch, remap_walks, sample_walks


def _tiny_config(**overrides):
    base = dict(hidden_dim=8, n_blocks=1, seq_layer="conv", kernel=3,
                window=4, walk_length=4, node_dim=1, rate=1.0,
                non_backtracking=False, epochs=2, batch_size=8)
    base.update(overrides)
    return ModelConfig(**base)


# -----------------------------------------------------------------------------
# Configuration
# -----------------------------------------------------------------------------

def test_config_json_round_trip():
    cfg = _tiny_config(seq_layer="s4", state=7, head="classification")
    back = ModelConfig.from_json(cfg.to_json())
    assert back == cfg


def test_config_rejects_unknown_keys_and_values():
    with pytest.raises(ParseError, match="unknown config keys"):
        ModelConfig.from_json('{"hidden_dim": 8, "dropout": 0.1}')
    with pytest.raises(ParseError, match="JSON"):
        ModelConfig.from_json("{not json")
    with pytest.raises(Unsupported):
        _tiny_config(seq_layer="gru").validate()
    with pytest.raises(Unsupported):
        _tiny_config(pooling="max").validate()


@pytest.mark.parametrize("text", ["3", "null", '"x"', "[1]", "true"])
def test_config_must_be_a_json_object(text):
    with pytest.raises(ParseError, match="config must be a JSON object"):
        ModelConfig.from_json(text)


# -----------------------------------------------------------------------------
# Packing
# -----------------------------------------------------------------------------

def test_pack_graphs_offsets_and_ids():
    pack = pack_graphs([complete_graph(3, with_features=True),
                        path_graph(2, with_features=True)])
    assert pack.n_graphs == 2
    assert pack.node_offsets.tolist() == [0, 3, 5]
    assert pack.graph_ids.tolist() == [0, 0, 0, 1, 1]
    assert pack.slot_offsets.tolist() == [0, 6, 8]
    assert pack.n_nodes_per_graph.tolist() == [3, 2]


def test_packed_graphs_takes_only_its_members():
    assert [f.name for f in dataclasses.fields(PackedGraphs) if f.init] == ["members"]
    graphs = (complete_graph(3, with_features=True), path_graph(2, with_features=True))
    pack = PackedGraphs(graphs)
    assert pack.members is graphs and pack.n_graphs == 2
    with pytest.raises(TypeError):
        PackedGraphs(graphs, graph_ids=np.zeros(5, dtype=np.int64))
    with pytest.raises(TypeError):
        PackedGraphs(members=graphs, n_graphs=3)


@pytest.mark.parametrize("name, value", [
    ("graph_ids", np.zeros(5, dtype=np.int64)), ("n_graphs", 3), ("members", ()),
    ("union", None), ("node_offsets", np.zeros(3, dtype=np.int64)),
    ("slot_offsets", np.zeros(3, dtype=np.int64)),
])
def test_a_packs_attributes_cannot_be_assigned(name, value):
    pack = pack_graphs([complete_graph(3, with_features=True),
                        path_graph(2, with_features=True)])
    ids = pack.graph_ids.copy()
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(pack, name, value)
    assert pack.n_graphs == 2 and (pack.graph_ids == ids).all()


def test_packed_sampling_respects_graph_boundaries():
    graphs = [complete_graph(4, with_features=True),
              cycle_graph(5, with_features=True),
              path_graph(3, with_features=True)]
    pack = pack_graphs(graphs)
    batch, gids = sample_walks_packed(pack, length=6, rate=1.0,
                                      non_backtracking=True,
                                      start_distribution="uniform", seed=3)
    assert batch.n_walks == 12
    assert gids.tolist() == [0] * 4 + [1] * 5 + [2] * 3
    assert (gids == pack.graph_ids[batch.start_nodes]).all()
    for j in range(batch.n_walks):
        lo = pack.node_offsets[gids[j]]
        hi = pack.node_offsets[gids[j] + 1]
        assert ((batch.nodes[j] >= lo) & (batch.nodes[j] < hi)).all()


def test_packed_sampling_ignores_co_packed_graphs():
    # The walks drawn for the graph at pack position i depend only on the
    # seed, the position, and that graph -- never on what it is packed with.
    g = cycle_graph(5, with_features=True)
    results = []
    for partners in ([complete_graph(4, with_features=True)],
                     [path_graph(3, with_features=True)],
                     [path_graph(3, with_features=True),
                      complete_graph(6, with_features=True)]):
        pack = pack_graphs([partners[0], g] + partners[1:])
        batch, gids = sample_walks_packed(pack, length=5, rate=1.0,
                                          non_backtracking=False,
                                          start_distribution="uniform", seed=11)
        sel = gids == 1
        nodes = batch.nodes[sel] - pack.node_offsets[1]
        slots = batch.edge_slots[sel] - pack.slot_offsets[1]
        results.append((nodes, slots, batch.mask[sel]))
    for nodes, slots, mask in results[1:]:
        assert (nodes == results[0][0]).all()
        assert (slots == results[0][1]).all()
        assert (mask == results[0][2]).all()


# -----------------------------------------------------------------------------
# Walk embedding
# -----------------------------------------------------------------------------

def _embed_params(rng, d, pe_dim, zero=False):
    def mat(shape):
        return np.zeros(shape) if zero else rng.standard_normal(shape) * 0.3
    return {
        "blk.proj_edge.w": Tensor(mat((d, d)), requires_grad=True),
        "blk.proj_edge.b": Tensor(mat((d,)), requires_grad=True),
        "blk.proj_pe.w": Tensor(mat((pe_dim, d)), requires_grad=True),
        "blk.proj_pe.b": Tensor(mat((d,)), requires_grad=True),
    }


def _naive_embed(h_v, h_e, pe, batch, params):
    m, n_pos = batch.nodes.shape
    d = h_v.shape[1]
    we, be = params["blk.proj_edge.w"].data, params["blk.proj_edge.b"].data
    wp, bp = params["blk.proj_pe.w"].data, params["blk.proj_pe.b"].data
    out = np.zeros((m, n_pos, d))
    for w in range(m):
        for i in range(n_pos):
            if not batch.mask[w, i]:
                continue
            edge = np.zeros(d)
            if i < n_pos - 1 and batch.mask[w, i + 1] and batch.edge_slots[w, i] >= 0:
                edge = h_e[batch.edge_slots[w, i]]
            out[w, i] = (h_v[batch.nodes[w, i]] + edge @ we + be
                         + pe[w, i] @ wp + bp)
    return out


def test_embed_walks_matches_naive_reference():
    rng = np.random.default_rng(0)
    g = build_graph(5, [(0, 1), (1, 2), (2, 3)])  # node 4 isolated
    batch = sample_walks(g, SamplerConfig(length=4, rate=1.0), seed=2)
    d, window = 6, 3
    pe_dim = 2 * window - 1
    pe = rng.standard_normal((batch.n_walks, 5, pe_dim))
    h_v = rng.standard_normal((5, d))
    h_e = rng.standard_normal((g.n_slots, d))
    params = _embed_params(rng, d, pe_dim)
    out = embed_walks(Tensor(h_v), Tensor(h_e), pe, batch, params, "blk").data
    ref = _naive_embed(h_v, h_e, pe, batch, params)
    assert np.abs(out - ref).max() < 1e-12


def test_embed_walks_zero_projections_reduce_to_node_rows():
    rng = np.random.default_rng(1)
    g = complete_graph(4)
    batch = sample_walks(g, SamplerConfig(length=3, rate=1.0), seed=0)
    d, window = 5, 3
    pe = rng.standard_normal((4, 4, 2 * window - 1))
    h_v = rng.standard_normal((4, d))
    h_e = rng.standard_normal((g.n_slots, d))
    params = _embed_params(rng, d, 2 * window - 1, zero=True)
    out = embed_walks(Tensor(h_v), Tensor(h_e), pe, batch, params, "blk").data
    assert np.abs(out - h_v[batch.nodes]).max() < 1e-15


# -----------------------------------------------------------------------------
# Aggregation
# -----------------------------------------------------------------------------

def _naive_aggregate_nodes(seq, batch, n, normalization="visits", const=None):
    d = seq.shape[2]
    sums = np.zeros((n, d))
    counts = np.zeros(n)
    for w in range(batch.n_walks):
        for i in range(batch.length + 1):
            if batch.mask[w, i]:
                v = batch.nodes[w, i]
                sums[v] += seq[w, i]
                counts[v] += 1
    visited = (counts > 0).astype(float)
    if normalization == "visits":
        agg = sums / np.maximum(counts, 1.0)[:, None]
    else:
        agg = sums / const[:, None]
    return agg, visited


def _naive_aggregate_edges(seq, batch, n_slots):
    d = seq.shape[2]
    sums = np.zeros((n_slots, d))
    counts = np.zeros(n_slots)
    for w in range(batch.n_walks):
        for i in range(batch.length):
            s = batch.edge_slots[w, i]
            if batch.mask[w, i + 1] and s >= 0:
                sums[s] += seq[w, i]
                counts[s] += 1
    visited = (counts > 0).astype(float)
    return sums / np.maximum(counts, 1.0)[:, None], visited


def test_aggregation_matches_naive_reference():
    rng = np.random.default_rng(3)
    g = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4)])  # node 5 isolated
    batch = sample_walks(g, SamplerConfig(length=5, rate=1.0), seed=4)
    # Node 3 is a sink: the walk from it is masked after its start, and walks
    # that reach it take real steps along no edge slot.
    directed = build_graph(4, [(0, 1), (1, 2), (2, 0), (2, 3)], directed=True)
    sink_batch = sample_walks(directed, SamplerConfig(length=5, rate=1.0), seed=4)
    assert not sink_batch.mask.all()
    assert ((sink_batch.edge_slots < 0) & sink_batch.step_mask()).any()

    for graph, walks in ((g, batch), (directed, sink_batch)):
        n = graph.n_nodes
        seq = rng.standard_normal((walks.n_walks, 6, 3))
        agg, visited = aggregate_nodes(Tensor(seq), walks, n)
        ref, ref_vis = _naive_aggregate_nodes(seq, walks, n)
        assert np.abs(agg.data - ref).max() < 1e-12
        assert visited.dtype == bool and (visited == ref_vis).all()
        # Rate 1.0 starts a walk everywhere, so even the isolated node and the
        # sink are visited (at their start positions; the rest is masked out).
        assert visited.all()

        const = np.full(n, 2.5)
        agg_c, _ = aggregate_nodes(Tensor(seq), walks, n, const)
        ref_c, _ = _naive_aggregate_nodes(seq, walks, n, "constant", const)
        assert np.abs(agg_c.data - ref_c).max() < 1e-12

        agg_e, vis_e = aggregate_edges(Tensor(seq), walks, graph.n_slots)
        ref_e, ref_vis_e = _naive_aggregate_edges(seq, walks, graph.n_slots)
        assert np.abs(agg_e.data - ref_e).max() < 1e-12
        assert vis_e.dtype == bool and (vis_e == ref_vis_e).all()


def test_aggregate_single_and_double_visits():
    g = path_graph(3)
    batch = WalkBatch(nodes=np.array([[0, 1, 0]]),
                      edge_slots=np.array([[0, 1]]),
                      mask=np.ones((1, 3), dtype=bool))
    seq = np.array([[[2.0], [10.0], [4.0]]])
    agg, visited = aggregate_nodes(Tensor(seq), batch, 3)
    assert agg.data.ravel().tolist() == [3.0, 10.0, 0.0]  # node 0 seen twice
    assert visited.tolist() == [1.0, 1.0, 0.0]


def test_aggregation_gathers_nothing_and_no_mask_is_a_float_copy(monkeypatch):
    # Aggregation segments the flat sequence output with a discard id, and
    # every row mask and visit gate goes through ad.mask_rows, so no forward
    # multiplies by a constant 0/1 tensor.
    g = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4)])
    batch = sample_walks(g, SamplerConfig(length=5, rate=1.0), seed=4)
    seq = Tensor(np.random.default_rng(5).standard_normal((batch.n_walks, 6, 3)))
    gathers = []
    gather_rows = ad.gather_rows
    monkeypatch.setattr(ad, "gather_rows", lambda *a: gathers.append(a) or gather_rows(*a))
    aggregate_nodes(seq, batch, 6)
    aggregate_nodes(seq, batch, 6, norm_constant=np.full(6, 2.0))
    aggregate_edges(seq, batch, g.n_slots)
    assert gathers == []
    monkeypatch.undo()

    float_masks, muls = [], []
    mul = ad.mul

    def spy(a, b):
        muls.append(1)
        float_masks.extend(t.shape for t in (a, b) if isinstance(t, Tensor)
                           and not t.requires_grad and np.isin(t.data, (0.0, 1.0)).all())
        return mul(a, b)

    monkeypatch.setattr(ad, "mul", spy)
    # The criterion-6b training configuration, one taped forward.
    cfg = ModelConfig(hidden_dim=24, n_blocks=2, seq_layer="conv", kernel=5, window=8,
                      walk_length=20, node_dim=1, rate=1.0, non_backtracking=True,
                      head="regression", out_dim=1, pooling="sum", seed=0)
    graphs = [erdos_renyi_graph(k, 0.3, seed=k, with_features=True, require_connected=True)
              for k in (6, 8, 10)]
    with ad.Tape() as tape:
        Model(cfg).forward(graphs, seed=1)
    assert tape.records and muls
    assert float_masks == []


def test_a_training_step_builds_each_segment_plan_once(monkeypatch):
    # Model.forward makes one segment plan per index array: per pack the
    # column indices, slot sources and graph ids; per walk batch the walk
    # nodes, the clamped out-slots and the two aggregation ids. Each plan
    # builds its incidence once for every block, op and VJP.
    builds = []
    csr_array = ad.csr_array
    monkeypatch.setattr(ad, "csr_array", lambda *a, **k: builds.append(a) or csr_array(*a, **k))
    cfg = ModelConfig(hidden_dim=24, n_blocks=2, seq_layer="conv", kernel=5, window=8,
                      walk_length=20, node_dim=1, rate=1.0, non_backtracking=True,
                      head="regression", out_dim=1, pooling="sum", seed=0)
    graphs = [erdos_renyi_graph(k, 0.3, seed=k, with_features=True, require_connected=True)
              for k in (6, 8, 10)]
    model = Model(cfg)
    with ad.Tape() as tape:
        result = model.forward(graphs, seed=1)
        loss = ad.reduce_sum(ad.mul(result.prediction, result.prediction))
    ad.backward(loss, tape, leaves=model.params.values())
    assert 0 < len(builds) <= 7                # one build per call: 17
    builds.clear()
    model.forward(graphs, seed=1)
    assert 0 < len(builds) <= 4                # one build per call: 9


def test_walk_plans_over_other_sizes_raise_shape_error():
    g = path_graph(4)
    batch = sample_walks(g, SamplerConfig(length=3, rate=1.0), seed=2)
    seq = Tensor(np.ones((batch.n_walks, 4, 2)))
    plans = model_module._WalkPlans(batch, 5, g.n_slots + 1)
    with pytest.raises(ShapeError):
        aggregate_nodes(seq, plans, 4)
    with pytest.raises(ShapeError):
        aggregate_edges(seq, plans, g.n_slots)
    fitting = model_module._WalkPlans(batch, 4, g.n_slots)
    for got, want in ((aggregate_nodes(seq, fitting, 4), aggregate_nodes(seq, batch, 4)),
                      (aggregate_edges(seq, fitting, g.n_slots),
                       aggregate_edges(seq, batch, g.n_slots))):
        assert got[0].data.tobytes() == want[0].data.tobytes()
        assert got[1].tolist() == want[1].tolist()


# -----------------------------------------------------------------------------
# Message passing stages
# -----------------------------------------------------------------------------

def _gin_params(d, rng=None, identity=False):
    def mat(shape, eye=False):
        if identity:
            return np.eye(shape[0]) if eye else np.zeros(shape)
        return rng.standard_normal(shape) * 0.3
    return {
        "blk.gin_eps": Tensor(np.zeros(1), requires_grad=True),
        "blk.gin_edge.w": Tensor(mat((d, d))),
        "blk.gin_edge.b": Tensor(np.zeros(d)),
        "blk.gin_mlp.0.w": Tensor(mat((d, d), eye=True)),
        "blk.gin_mlp.0.b": Tensor(np.zeros(d)),
        "blk.gin_mlp.1.w": Tensor(mat((d, d), eye=True)),
        "blk.gin_mlp.1.b": Tensor(np.zeros(d)),
    }


def test_gin_edgeless_identity_mlp_doubles_positive_states():
    # No neighbors, eps 0, identity MLP: update is h + relu(h) = 2h for h > 0.
    pack = pack_graphs([build_graph(3, [])])
    h = np.abs(np.random.default_rng(5).standard_normal((3, 4))) + 0.1
    params = _gin_params(4, identity=True)
    out = local_mp_gin(pack, Tensor(h), Tensor(np.zeros((0, 4))), params, "blk")
    assert np.abs(out.data - 2 * h).max() < 1e-14


def test_gin_symmetric_graph_keeps_nodes_identical():
    pack = pack_graphs([complete_graph(4)])
    rng = np.random.default_rng(6)
    row = rng.standard_normal(5)
    h = np.tile(row, (4, 1))
    h_e = np.tile(rng.standard_normal(5), (pack.union.n_slots, 1))
    out = local_mp_gin(pack, Tensor(h), Tensor(h_e), _gin_params(5, rng), "blk").data
    assert np.abs(out - out[0]).max() < 1e-12


def test_gin_matches_naive_message_passing():
    rng = np.random.default_rng(7)
    g = erdos_renyi_graph(6, 0.5, seed=3, require_connected=True)
    pack = pack_graphs([g])
    d = 4
    h = rng.standard_normal((6, d))
    h_e = rng.standard_normal((g.n_slots, d))
    params = _gin_params(d, rng)
    params["blk.gin_eps"].data[:] = 0.3
    out = local_mp_gin(pack, Tensor(h), Tensor(h_e), params, "blk").data

    we, be = params["blk.gin_edge.w"].data, params["blk.gin_edge.b"].data
    w0, w1 = params["blk.gin_mlp.0.w"].data, params["blk.gin_mlp.1.w"].data
    ref = np.zeros_like(h)
    for v in range(6):
        acc = 1.3 * h[v]
        for pos in range(g.row_offsets[v], g.row_offsets[v + 1]):
            u = g.col_indices[pos]
            acc = acc + np.maximum(h[u] + (h_e[pos] @ we + be), 0.0)
        ref[v] = h[v] + np.maximum(acc @ w0, 0.0) @ w1
    assert np.abs(out - ref).max() < 1e-12


def test_virtual_node_zero_mlp_is_identity():
    d = 4
    params = {
        "blk.vn_mlp.0.w": Tensor(np.zeros((d, d))),
        "blk.vn_mlp.0.b": Tensor(np.zeros(d)),
        "blk.vn_mlp.1.w": Tensor(np.zeros((d, d))),
        "blk.vn_mlp.1.b": Tensor(np.zeros(d)),
    }
    h = np.random.default_rng(8).standard_normal((5, d))
    gids = np.array([0, 0, 0, 1, 1])
    out, star = global_mp_virtual_node(Tensor(h), Tensor(np.zeros((2, d))),
                                       gids, 2, params, "blk")
    assert (out.data == h).all()
    assert (star.data == 0).all()


def test_virtual_node_broadcasts_graph_sums():
    d = 2
    params = {
        "blk.vn_mlp.0.w": Tensor(np.eye(d)),
        "blk.vn_mlp.0.b": Tensor(np.zeros(d)),
        "blk.vn_mlp.1.w": Tensor(np.eye(d)),
        "blk.vn_mlp.1.b": Tensor(np.zeros(d)),
    }
    h = np.array([[1.0, 0.0], [2.0, 0.0], [4.0, 1.0]])
    gids = np.array([0, 0, 1])
    out, star = global_mp_virtual_node(Tensor(h), Tensor(np.zeros((2, d))),
                                       gids, 2, params, "blk")
    # star = relu(sum per graph) = sums here (non-negative inputs)
    assert star.data.tolist() == [[3.0, 0.0], [4.0, 1.0]]
    assert out.data.tolist() == [[4.0, 0.0], [5.0, 0.0], [8.0, 2.0]]


def _transformer_params(d, rng):
    params = {}
    for nm in ("attn_q", "attn_k", "attn_v", "attn_o"):
        params[f"blk.{nm}.w"] = Tensor(rng.standard_normal((d, d)) * 0.3)
        params[f"blk.{nm}.b"] = Tensor(rng.standard_normal(d) * 0.1)
    params["blk.attn_ffn.0.w"] = Tensor(rng.standard_normal((d, 2 * d)) * 0.3)
    params["blk.attn_ffn.0.b"] = Tensor(np.zeros(2 * d))
    params["blk.attn_ffn.1.w"] = Tensor(rng.standard_normal((2 * d, d)) * 0.3)
    params["blk.attn_ffn.1.b"] = Tensor(np.zeros(d))
    return params


def test_transformer_single_node_closed_form():
    rng = np.random.default_rng(9)
    d = 4
    params = _transformer_params(d, rng)
    h = rng.standard_normal((1, d))
    out = global_mp_transformer(Tensor(h), np.zeros(1, dtype=np.int64), 2,
                                params, "blk").data

    p = {k: t.data for k, t in params.items()}
    v = h[0] @ p["blk.attn_v.w"] + p["blk.attn_v.b"]
    mid = h[0] + (v @ p["blk.attn_o.w"] + p["blk.attn_o.b"])
    ffn = np.maximum(mid @ p["blk.attn_ffn.0.w"], 0.0) @ p["blk.attn_ffn.1.w"]
    assert np.abs(out[0] - (mid + ffn)).max() < 1e-12


def test_transformer_blocks_cross_graph_attention():
    rng = np.random.default_rng(10)
    d = 4
    params = _transformer_params(d, rng)
    gids = np.array([0, 0, 1, 1, 1])
    h1 = rng.standard_normal((5, d))
    h2 = h1.copy()
    h2[2:] += rng.standard_normal((3, d)) * 5.0  # perturb only graph 1
    out1 = global_mp_transformer(Tensor(h1), gids, 2, params, "blk").data
    out2 = global_mp_transformer(Tensor(h2), gids, 2, params, "blk").data
    assert np.abs(out1[:2] - out2[:2]).max() < 1e-12
    assert np.abs(out1[2:] - out2[2:]).max() > 1e-3


def test_transformer_pack_equals_per_graph_calls():
    # Unequal sizes: three of the four rows of the (4, 12) batch end in padding.
    rng = np.random.default_rng(11)
    d = 8
    params = _transformer_params(d, rng)
    sizes = [1, 3, 9, 12]
    gids = np.repeat(np.arange(len(sizes)), sizes)
    h = rng.standard_normal((gids.size, d))
    packed = global_mp_transformer(Tensor(h), gids, 2, params, "blk").data
    for g in range(len(sizes)):
        rows = gids == g
        alone = global_mp_transformer(Tensor(h[rows]), np.zeros(sizes[g], dtype=np.int64),
                                      2, params, "blk").data
        assert np.abs(packed[rows] - alone).max() < 1e-12


def test_transformer_passes_an_empty_pack_through():
    params = _transformer_params(4, np.random.default_rng(12))
    h = Tensor(np.zeros((0, 4)))
    assert global_mp_transformer(h, np.zeros(0, dtype=np.int64), 2, params, "blk") is h


# -----------------------------------------------------------------------------
# Full forward pass
# -----------------------------------------------------------------------------

def test_zero_block_model_reads_out_raw_features():
    cfg = _tiny_config(n_blocks=0, head="regression", pooling="mean")
    model = Model(cfg, seed=1)
    g = path_graph(4, with_features=True)
    result = model.forward(g, seed=0)
    w = model.params["head.w"].data
    b = model.params["head.b"].data
    expected = g.node_features.mean(axis=0) @ w + b
    assert np.abs(result.prediction.data[0] - expected).max() < 1e-14
    assert result.batch is None


def test_forward_is_deterministic_in_seed():
    cfg = _tiny_config(head="classification", n_classes=3)
    model = Model(cfg, seed=0)
    graphs = [cycle_graph(5, with_features=True),
              path_graph(4, with_features=True)]
    r1 = model.forward(graphs, seed=7)
    r2 = model.forward(graphs, seed=7)
    assert (r1.prediction.data == r2.prediction.data).all()
    r3 = model.forward(graphs, seed=8)
    assert not (r1.prediction.data == r3.prediction.data).all()


@pytest.mark.parametrize("seq_layer", ["conv", "attention", "s4", "selective"])
@pytest.mark.parametrize("global_mp", ["virtual_node", "transformer", "none"])
def test_forward_shapes_across_architectures(seq_layer, global_mp):
    cfg = _tiny_config(seq_layer=seq_layer, global_mp=global_mp,
                       head="classification", n_classes=2, heads=2, state=4)
    model = Model(cfg, seed=2)
    graphs = [cycle_graph(4, with_features=True),
              complete_graph(3, with_features=True)]
    result = model.forward(graphs, seed=1)
    assert result.node_embeddings.shape == (7, cfg.hidden_dim)
    assert result.pooled.shape == (2, cfg.hidden_dim)
    assert result.prediction.shape == (2, 2)
    assert np.isfinite(result.prediction.data).all()


@pytest.mark.parametrize("seq_layer", ["s4", "selective"])
def test_forward_bits_are_the_same_with_and_without_a_tape(seq_layer):
    cfg = _tiny_config(seq_layer=seq_layer, global_mp="transformer", heads=2, state=4,
                       bidirectional=True, head="regression")
    model = Model(cfg, seed=3)
    graphs = [cycle_graph(5, with_features=True), path_graph(4, with_features=True)]
    plain = model.forward(graphs, seed=9)
    with ad.Tape() as tape:
        taped = model.forward(graphs, seed=9)
    assert tape.records
    for name in ("node_embeddings", "pooled", "prediction"):
        assert getattr(plain, name).data.tobytes() == getattr(taped, name).data.tobytes()


def test_forward_with_edge_features():
    rng = np.random.default_rng(11)
    edges = [(0, 1), (1, 2), (2, 3)]
    g = build_graph(4, edges, node_features=np.ones((4, 2)),
                    edge_features=rng.standard_normal((3, 3)))
    cfg = _tiny_config(node_dim=2, edge_dim=3, head="regression")
    model = Model(cfg, seed=3)
    result = model.forward(g, seed=0)
    assert result.prediction.shape == (1, 1)
    assert np.isfinite(result.prediction.data).all()


@pytest.mark.parametrize("node_dim, edge_dim", [(1, 2), (2, 0)],
                         ids=["edge-features-the-config-lacks", "wider-node-features"])
def test_forward_rejects_feature_widths_other_than_the_configs(node_dim, edge_dim):
    g = build_graph(3, [(0, 1), (1, 2)], node_features=np.ones((3, node_dim)),
                    edge_features=np.ones((2, edge_dim)))
    model = Model(_tiny_config(node_dim=1, edge_dim=0, head="regression"), seed=3)
    with pytest.raises(ShapeError, match=rf"\({node_dim}, {edge_dim}\) != config \(1, 0\)"):
        model.forward(g, seed=0)


def test_forward_on_a_pack_with_no_edges():
    g = build_graph(3, [], node_features=np.ones((3, 1)))
    model = Model(_tiny_config(head="regression"), seed=3)
    with ad.Tape() as tape:
        result = model.forward([g, g], seed=0)
        loss = ad.reduce_sum(result.prediction)
    assert not result.batch.mask[:, 1:].any()
    assert np.isfinite(result.prediction.data).all()
    ad.backward(loss, tape, leaves=list(model.params.values()))
    assert not model.params["edge_embed"].grad.any()
    assert model.params["node_in.w"].grad.any()


def test_unvisited_nodes_keep_their_state_bit_for_bit():
    # With message passing off, a node no walk touches must pass through the
    # block unchanged, regardless of parameter values.
    cfg = _tiny_config(local_mp="none", global_mp="none", pooling="none",
                       n_blocks=2)
    model = Model(cfg, seed=4)
    g = path_graph(4, with_features=True)
    pack = pack_graphs([g])
    walks = WalkBatch(nodes=np.array([[0, 1, 0, 1, 0]]),
                      edge_slots=np.array([[0, 0, 0, 0]]),
                      mask=np.ones((1, 5), dtype=bool))
    initial = (Tensor(g.node_features) @ model.params["node_in.w"]
               + model.params["node_in.b"]).data
    result = model.forward(pack, walks=walks)
    assert (result.node_embeddings.data[2] == initial[2]).all()
    assert (result.node_embeddings.data[3] == initial[3]).all()
    assert not (result.node_embeddings.data[0] == initial[0]).all()


def test_isomorphic_graphs_give_identical_outputs_on_remapped_walks():
    rng = np.random.default_rng(12)
    g = erdos_renyi_graph(7, 0.45, seed=9, require_connected=True)
    g = build_graph(7, [(int(g.slot_src[s]), int(g.col_indices[s]))
                        for s in range(g.n_slots) if g.slot_src[s] < g.col_indices[s]],
                    node_features=np.ones((7, 1)))
    perm = rng.permutation(7)
    edges = set()
    for s in range(g.n_slots):
        u, v = int(perm[g.slot_src[s]]), int(perm[g.col_indices[s]])
        edges.add((min(u, v), max(u, v)))
    g_iso = build_graph(7, sorted(edges), node_features=np.ones((7, 1)))

    cfg = _tiny_config(head="regression", window=5, walk_length=6)
    model = Model(cfg, seed=5)
    batch = sample_walks(g, SamplerConfig(length=6, rate=1.0), seed=21)
    mapped = remap_walks(batch, perm, g_iso)
    r1 = model.forward(pack_graphs([g]), walks=batch)
    r2 = model.forward(pack_graphs([g_iso]), walks=mapped)
    assert np.abs(r1.prediction.data - r2.prediction.data).max() < 1e-9
    assert np.abs(r1.pooled.data - r2.pooled.data).max() < 1e-9


def test_untrained_model_separates_refinement_blind_pair():
    two_triangles, _ = disjoint_union([cycle_graph(3, with_features=True),
                                       cycle_graph(3, with_features=True)])
    hexagon = cycle_graph(6, with_features=True)
    cfg = _tiny_config(window=3, walk_length=2, non_backtracking=False)
    model = Model(cfg, seed=6)
    p1 = model.forward(two_triangles, seed=0).pooled.data
    p2 = model.forward(hexagon, seed=0).pooled.data
    assert np.linalg.norm(p1 - p2) > 1e-6


# -----------------------------------------------------------------------------
# Normalization variants and the functional readout
# -----------------------------------------------------------------------------

def test_walk_functional_readout_equals_plain_walk_average():
    rng = np.random.default_rng(13)
    g = complete_graph(5, with_features=True)
    batch = sample_walks(g, SamplerConfig(length=4, rate=1.0), seed=2)
    D = 3
    features = rng.standard_normal((batch.n_walks, 5, D))
    u = rng.standard_normal(D)
    b = 0.7
    got = walk_functional_readout(g, batch, features, u, b)
    per_walk = features @ u            # (m, l+1)
    want = float(per_walk.sum(axis=1).mean() / batch.length + b)
    assert abs(got - want) < 1e-12


def test_constant_forward_on_injected_sampled_walks_equals_the_sampled_forward():
    # Each walk belongs to the graph of its start node, so injecting the
    # pack's own sampled walks gives the same per-graph constants. At rate 0.5
    # the two graphs get 2 walks each on 5 and 3 nodes, so the constants differ.
    pack = pack_graphs([cycle_graph(5, with_features=True),
                        path_graph(3, with_features=True)])
    model = Model(_tiny_config(normalization="constant", head="regression", rate=0.5),
                  seed=8)
    sampled = model.forward(pack, seed=4)
    injected = model.forward(pack, walks=sampled.batch)
    assert sampled.batch.n_walks == 4
    for got, want in ((injected.prediction, sampled.prediction),
                      (injected.node_embeddings, sampled.node_embeddings)):
        assert got.data.tobytes() == want.data.tobytes()


def test_normalization_variants_agree_when_visits_match_constant():
    # On a start-everywhere length-1 batch over a vertex-transitive graph,
    # every node is visited the same number of times, so the two
    # normalizations coincide when the constant equals that count.
    g = cycle_graph(4, with_features=True)
    batch = WalkBatch(nodes=np.array([[0, 1], [1, 2], [2, 3], [3, 0]]),
                      edge_slots=np.array([[g.edge_slot(0, 1)],
                                           [g.edge_slot(1, 2)],
                                           [g.edge_slot(2, 3)],
                                           [g.edge_slot(3, 0)]]),
                      mask=np.ones((4, 2), dtype=bool))
    seq = np.random.default_rng(14).standard_normal((4, 2, 3))
    visits, _ = aggregate_nodes(Tensor(seq), batch, 4)
    const, _ = aggregate_nodes(Tensor(seq), batch, 4, np.full(4, 2.0))
    assert np.abs(visits.data - const.data).max() < 1e-14


# -----------------------------------------------------------------------------
# State round trips
# -----------------------------------------------------------------------------

def test_state_arrays_round_trip():
    cfg = _tiny_config(head="classification")
    model = Model(cfg, seed=7)
    state = model.state_arrays()
    other = Model(cfg, seed=99)
    g = cycle_graph(5, with_features=True)
    before = other.forward(g, seed=0).prediction.data.copy()
    other.load_state_arrays(state)
    after = other.forward(g, seed=0).prediction.data
    reference = model.forward(g, seed=0).prediction.data
    assert (after == reference).all()
    assert not (before == after).all()


def test_load_state_rejects_mismatches():
    model = Model(_tiny_config(), seed=0)
    state = model.state_arrays()
    bad = dict(state)
    bad.pop(sorted(bad)[0])
    with pytest.raises(ShapeError):
        model.load_state_arrays(bad)
    bad2 = dict(state)
    key = sorted(bad2)[0]
    bad2[key] = np.zeros((17, 3))
    with pytest.raises(ShapeError):
        model.load_state_arrays(bad2)
    bad3 = dict(state)
    bad3["not_a_param"] = np.zeros(1)
    with pytest.raises(ShapeError):
        model.load_state_arrays(bad3)
