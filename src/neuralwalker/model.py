"""Walk-based graph network.

One forward pass samples a batch of random walks, embeds each walk position
(node embedding + projected edge embedding + projected positional encoding),
runs a sequence layer along every walk, averages the per-position outputs back
onto the nodes and edge slots they came from, and refines node states with
local (GIN-style) and global (virtual node or transformer) message passing.
Blocks repeat this pipeline; a pooling + linear head reads out predictions.

Graphs are processed as packed disjoint unions: a mini-batch is one
block-diagonal graph plus per-node graph ids, so aggregation, virtual nodes,
attention masks, pooling, and normalization constants are all segment
operations. A single graph is a batch of one.

Skip-connection guarantee: the aggregation update is
``h <- h_prev + visited * LN(agg)`` with a 0/1 visited gate, so a node (or
edge slot) that no walk touches keeps its state bit-for-bit through the
aggregate step at arbitrary parameters.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .encoding import encode_batch
from .errors import ParseError, ShapeError, Unsupported
from .graphs import Graph, disjoint_union
from .sampling import WalkBatch, child_seeds, _distinct_starts, _run_walks
from .seqlayers import make_seq_layer

__all__ = [
    "ModelConfig",
    "PackedGraphs",
    "ForwardResult",
    "Model",
    "pack_graphs",
    "sample_walks_packed",
    "embed_walks",
    "aggregate_nodes",
    "aggregate_edges",
    "local_mp_gin",
    "global_mp_virtual_node",
    "global_mp_transformer",
    "walk_functional_readout",
]


# =============================================================================
# Configuration
# =============================================================================

@dataclass
class ModelConfig:
    """Hyperparameters for the model, its sampler, and training."""

    # architecture
    hidden_dim: int = 32
    n_blocks: int = 2
    seq_layer: str = "conv"            # conv | attention | s4 | selective
    kernel: int = 5
    heads: int = 4
    state: int = 16
    bidirectional: bool = False
    local_mp: str = "gin"              # gin | none
    global_mp: str = "virtual_node"    # virtual_node | transformer | none
    pooling: str = "mean"              # mean | sum | none
    head: str = "none"                 # none | regression | classification
    n_classes: int = 2
    out_dim: int = 1
    # inputs
    node_dim: int = 1
    edge_dim: int = 0
    # walks and encodings
    walk_length: int = 10
    rate: float = 1.0
    eval_rate: float = 1.0
    non_backtracking: bool = True
    start_distribution: str = "uniform"
    window: int = 8
    normalization: str = "visits"      # visits | constant
    # training
    epochs: int = 100
    batch_size: int = 32
    base_lr: float = 3e-3
    weight_decay: float = 1e-2
    warmup_epochs: int = 2
    seed: int = 0

    def validate(self) -> None:
        if self.seq_layer not in ("conv", "attention", "s4", "selective"):
            raise Unsupported(f"unknown seq_layer {self.seq_layer!r}")
        if self.local_mp not in ("gin", "none"):
            raise Unsupported(f"unknown local_mp {self.local_mp!r}")
        if self.global_mp not in ("virtual_node", "transformer", "none"):
            raise Unsupported(f"unknown global_mp {self.global_mp!r}")
        if self.pooling not in ("mean", "sum", "none"):
            raise Unsupported(f"unknown pooling {self.pooling!r}")
        if self.head not in ("none", "regression", "classification"):
            raise Unsupported(f"unknown head {self.head!r}")
        if self.normalization not in ("visits", "constant"):
            raise Unsupported(f"unknown normalization {self.normalization!r}")

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ModelConfig":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"config is not valid JSON: {exc}") from None
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ParseError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls(**raw)
        cfg.validate()
        return cfg


# =============================================================================
# Graph packing
# =============================================================================

@dataclass
class PackedGraphs:
    """A mini-batch as one disjoint-union graph."""

    union: Graph
    node_offsets: np.ndarray    # (G+1,)
    graph_ids: np.ndarray       # (n_total,) graph id per node
    slot_offsets: np.ndarray    # (G+1,) slot-index offset per graph
    n_graphs: int
    members: list

    @property
    def n_nodes_per_graph(self) -> np.ndarray:
        return np.diff(self.node_offsets)


def pack_graphs(graphs) -> PackedGraphs:
    graphs = list(graphs)
    union, offsets = disjoint_union(graphs)
    sizes = np.diff(offsets)
    graph_ids = np.repeat(np.arange(len(graphs), dtype=np.int64), sizes)
    slot_offsets = np.zeros(len(graphs) + 1, dtype=np.int64)
    np.cumsum([g.n_slots for g in graphs], out=slot_offsets[1:])
    return PackedGraphs(union=union, node_offsets=offsets, graph_ids=graph_ids,
                        slot_offsets=slot_offsets, n_graphs=len(graphs),
                        members=graphs)


def sample_walks_packed(pack: PackedGraphs, length: int, rate: float,
                        non_backtracking: bool, start_distribution: str,
                        seed: int) -> tuple[WalkBatch, np.ndarray]:
    """Per-graph distinct-start sampling, executed as one vectorized run on the
    union graph. Walk j of graph i uses the stream mix(mix(seed, i), j), so the
    batch is independent of packing order."""
    starts_all, seeds_all, gids = [], [], []
    graph_masters = child_seeds(seed, pack.n_graphs)
    for i, g in enumerate(pack.members):
        m = max(1, int(round(rate * g.n_nodes)))
        m = min(m, g.n_nodes)
        master = int(graph_masters[i])
        starts = _distinct_starts(g, m, start_distribution, master)
        starts_all.append(starts + pack.node_offsets[i])
        seeds_all.append(child_seeds(master, m))
        gids.append(np.full(m, i, dtype=np.int64))
    starts = np.concatenate(starts_all)
    seeds = np.concatenate(seeds_all)
    batch = _run_walks(pack.union, starts, length, seeds, non_backtracking)
    return batch, np.concatenate(gids)


# =============================================================================
# Pipeline stages (pure functions over parameter dicts)
# =============================================================================

def _linear(x: Tensor, params: dict, name: str) -> Tensor:
    return ad.add(ad.matmul(x, params[f"{name}.w"]), params[f"{name}.b"])


def _mlp(x: Tensor, params: dict, name: str) -> Tensor:
    return _linear(ad.relu(_linear(x, params, f"{name}.0")), params, f"{name}.1")


def _layernorm(x: Tensor, params: dict, name: str) -> Tensor:
    return ad.layernorm(x, params[f"{name}.gain"], params[f"{name}.bias"])


def embed_walks(h_v: Tensor, h_e: Tensor, pe: np.ndarray, batch: WalkBatch,
                params: dict, prefix: str) -> Tensor:
    """Per-position walk embeddings:
    ``h_V(w_i) + proj_edge(h_E(w_i w_{i+1})) + proj_pe(pe_i)``.

    The edge input of the final position (and of masked steps) is zero before
    projection; fully padded rows are zeroed at the end.
    """
    m, n_pos = batch.nodes.shape
    d = h_v.shape[1]
    node_part = ad.gather_rows(h_v, batch.nodes)                     # (m, T, d)
    step_ok = batch.step_mask() & (batch.edge_slots >= 0)
    safe = np.where(step_ok, batch.edge_slots, 0)
    step_keep = np.broadcast_to(step_ok[:, :, None], (m, n_pos - 1, d))
    edge_in = ad.mul(ad.gather_rows(h_e, safe), Tensor(step_keep.astype(np.float64)))
    edge_in = ad.concat([edge_in, Tensor(np.zeros((m, 1, d)))], axis=1)
    out = ad.add(node_part, _linear(edge_in, params, f"{prefix}.proj_edge"))
    out = ad.add(out, _linear(Tensor(pe), params, f"{prefix}.proj_pe"))
    keep = np.broadcast_to(batch.mask[:, :, None], (m, n_pos, d))
    return ad.mul(out, Tensor(keep.astype(np.float64)))


def _average_rows(seq_out: Tensor, flat_idx: np.ndarray, ids: np.ndarray, n_rows: int,
                  norm_constant: np.ndarray | None = None) -> tuple[Tensor, np.ndarray]:
    """Pick rows ``flat_idx`` of the flattened (walk, position) sequence output
    and average them per id, dividing by the visit count or, when given, by
    ``norm_constant``. Returns (average, 0/1 visited flag per id)."""
    m, n_pos, d = seq_out.shape
    values = ad.gather_rows(ad.reshape(seq_out, (m * n_pos, d)), flat_idx)
    visited = (np.bincount(ids, minlength=n_rows) > 0).astype(np.float64)
    if norm_constant is None:
        return ad.segment_mean(values, ids, n_rows), visited
    inv = np.broadcast_to((1.0 / norm_constant)[:, None], (n_rows, d))
    return ad.mul(ad.scatter_add(values, ids, n_rows), Tensor(inv.copy())), visited


def aggregate_nodes(seq_out: Tensor, batch: WalkBatch, n_nodes: int,
                    normalization: str = "visits",
                    norm_constant: np.ndarray | None = None) -> tuple[Tensor, np.ndarray]:
    """Average sequence outputs over each node's walk occurrences.

    Returns (aggregate, visited) where ``visited`` is the 0/1 per-node
    indicator of having at least one unmasked occurrence. With
    ``normalization="constant"`` the sum is divided by ``norm_constant``
    (per-node) instead of the empirical visit count.
    """
    if normalization == "visits":
        norm_constant = None
    elif norm_constant is None:
        raise ShapeError("constant normalization needs norm_constant")
    flat_idx = np.flatnonzero(batch.mask.ravel())
    return _average_rows(seq_out, flat_idx, batch.nodes.ravel()[flat_idx], n_nodes,
                         norm_constant)


def aggregate_edges(seq_out: Tensor, batch: WalkBatch,
                    n_slots: int) -> tuple[Tensor, np.ndarray]:
    """Average the sequence output at each step's source position over the
    edge slots the steps traversed."""
    m, n_pos, _ = seq_out.shape
    step_ok = batch.step_mask() & (batch.edge_slots >= 0)
    flat_idx = np.arange(m * n_pos).reshape(m, n_pos)[:, :-1][step_ok]
    return _average_rows(seq_out, flat_idx, batch.edge_slots[step_ok], n_slots)


def local_mp_gin(pack: PackedGraphs, h_v: Tensor, h_e: Tensor,
                 params: dict, prefix: str) -> Tensor:
    """GIN-with-edges update:
    ``h + MLP((1 + eps) h(v) + sum_u relu(h(u) + proj(h_E(uv))))``."""
    union = pack.union
    if union.n_slots:
        msg = ad.add(ad.gather_rows(h_v, union.col_indices),
                     _linear(h_e, params, f"{prefix}.gin_edge"))
        neigh = ad.scatter_add(ad.relu(msg), union.slot_src, union.n_nodes)
    else:
        neigh = Tensor(np.zeros_like(h_v.data))
    eps = params[f"{prefix}.gin_eps"]
    one_plus = ad.add(eps, 1.0)                              # shape (1,)
    scaled = ad.mul(h_v, ad.expand(one_plus, (h_v.shape[1],)))
    core = ad.add(scaled, neigh)
    return ad.add(h_v, _mlp(core, params, f"{prefix}.gin_mlp"))


def global_mp_virtual_node(h_v: Tensor, star_prev: Tensor, graph_ids: np.ndarray,
                           n_graphs: int, params: dict,
                           prefix: str) -> tuple[Tensor, Tensor]:
    """Virtual-node exchange: star = MLP(star_prev + sum_v h(v)) per graph,
    then every node receives its graph's star state additively."""
    sums = ad.scatter_add(h_v, graph_ids, n_graphs)
    star = _mlp(ad.add(star_prev, sums), params, f"{prefix}.vn_mlp")
    h_out = ad.add(h_v, ad.gather_rows(star, graph_ids))
    return h_out, star


def global_mp_transformer(h_v: Tensor, graph_ids: np.ndarray, heads: int,
                          params: dict, prefix: str) -> Tensor:
    """Transformer update over the nodes of each graph:
    ``h' = h + Attn(h); out = h' + FFN(h')`` with cross-graph attention
    blocked by an additive mask."""
    n, d = h_v.shape
    if d % heads != 0:
        raise ShapeError(f"width {d} not divisible by {heads} heads")
    dh = d // heads
    x = ad.reshape(h_v, (1, n, d))
    q = ad.transpose(ad.reshape(_linear(x, params, f"{prefix}.attn_q"), (1, n, heads, dh)), (0, 2, 1, 3))
    k = ad.transpose(ad.reshape(_linear(x, params, f"{prefix}.attn_k"), (1, n, heads, dh)), (0, 2, 1, 3))
    v = ad.transpose(ad.reshape(_linear(x, params, f"{prefix}.attn_v"), (1, n, heads, dh)), (0, 2, 1, 3))
    scores = ad.scale(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(dh))
    block = np.where(graph_ids[:, None] == graph_ids[None, :], 0.0, -1e30)
    scores = ad.add(scores, Tensor(np.broadcast_to(block, (1, heads, n, n)).copy()))
    ctx = ad.matmul(ad.softmax(scores, axis=-1), v)
    ctx = ad.reshape(ad.transpose(ctx, (0, 2, 1, 3)), (n, d))
    attn_out = _linear(ctx, params, f"{prefix}.attn_o")
    h_mid = ad.add(h_v, attn_out)
    return ad.add(h_mid, _mlp(h_mid, params, f"{prefix}.attn_ffn"))


# =============================================================================
# The model
# =============================================================================

@dataclass
class ForwardResult:
    node_embeddings: Tensor          # (n_total, d)
    pooled: Tensor | None            # (G, d) or None when pooling == "none"
    prediction: Tensor | None        # (G, out) or None when head == "none"
    pack: PackedGraphs
    batch: WalkBatch | None
    walk_graph_ids: np.ndarray | None


class Model:
    """Parameter container plus the forward pipeline."""

    def __init__(self, config: ModelConfig, seed: int | None = None):
        config.validate()
        self.config = config
        rng = np.random.default_rng(config.seed if seed is None else seed)
        self.params: dict[str, Tensor] = {}
        self.seq_layers = []
        d = config.hidden_dim
        pe_dim = 2 * config.window - 1

        def lin(name: str, n_in: int, n_out: int) -> None:
            self.params[f"{name}.w"] = ad.param_uniform(rng, (n_in, n_out))
            self.params[f"{name}.b"] = ad.param_zeros((n_out,))

        def norm(name: str) -> None:
            self.params[f"{name}.gain"] = Tensor(np.ones(d), requires_grad=True)
            self.params[f"{name}.bias"] = ad.param_zeros((d,))

        if config.n_blocks > 0:
            lin("node_in", config.node_dim, d)
            if config.edge_dim > 0:
                lin("edge_in", config.edge_dim, d)
            else:
                self.params["edge_embed"] = ad.param_uniform(rng, (1, d), fan_in=d)
        for t in range(config.n_blocks):
            p = f"block{t}"
            lin(f"{p}.proj_edge", d, d)
            lin(f"{p}.proj_pe", pe_dim, d)
            layer = make_seq_layer(config.seq_layer, d, rng, kernel=config.kernel,
                                   heads=config.heads, state=config.state,
                                   bidirectional=config.bidirectional)
            self.seq_layers.append(layer)
            for name, tensor in layer.params.items():
                self.params[f"{p}.seq.{name}"] = tensor
            norm(f"{p}.ln_node")
            norm(f"{p}.ln_edge")
            if config.local_mp == "gin":
                self.params[f"{p}.gin_eps"] = ad.param_zeros((1,))
                lin(f"{p}.gin_edge", d, d)
                lin(f"{p}.gin_mlp.0", d, d)
                lin(f"{p}.gin_mlp.1", d, d)
                norm(f"{p}.ln_local")
            if config.global_mp == "virtual_node":
                lin(f"{p}.vn_mlp.0", d, d)
                lin(f"{p}.vn_mlp.1", d, d)
                norm(f"{p}.ln_global")
            elif config.global_mp == "transformer":
                for nm in ("attn_q", "attn_k", "attn_v", "attn_o"):
                    lin(f"{p}.{nm}", d, d)
                lin(f"{p}.attn_ffn.0", d, 2 * d)
                lin(f"{p}.attn_ffn.1", 2 * d, d)
                norm(f"{p}.ln_global")
        if config.head != "none":
            head_out = config.n_classes if config.head == "classification" else config.out_dim
            head_in = d if config.n_blocks > 0 else config.node_dim
            lin("head", head_in, head_out)

    # ------------------------------------------------------------------

    def _initial_states(self, pack: PackedGraphs) -> tuple[Tensor, Tensor]:
        cfg = self.config
        union = pack.union
        h_v = _linear(Tensor(union.node_features), self.params, "node_in")
        if cfg.edge_dim > 0:
            h_e = _linear(Tensor(union.edge_features), self.params, "edge_in")
        else:
            h_e = ad.expand(self.params["edge_embed"],
                            (max(union.n_slots, 1), cfg.hidden_dim))
            if union.n_slots == 0:
                h_e = ad.slice_axis(h_e, 0, 0, 0)
        return h_v, h_e

    def _norm_constants(self, pack: PackedGraphs, walk_gids: np.ndarray,
                        length: int) -> np.ndarray:
        """Per-node constant m_g * l / n_g used by the 'constant' variant."""
        m_per_graph = np.bincount(walk_gids, minlength=pack.n_graphs)
        n_per_graph = np.maximum(pack.n_nodes_per_graph, 1)
        const = m_per_graph * length / n_per_graph
        return np.maximum(const, 1e-300)[pack.graph_ids]

    def forward(self, graphs, seed: int = 0, walks: WalkBatch | None = None,
                walk_graph_ids: np.ndarray | None = None,
                rate: float | None = None) -> ForwardResult:
        """Run the pipeline on one graph or a list of graphs.

        ``walks`` may inject a precomputed batch (complete walk sets, file
        pipelines, relabeling harnesses); otherwise walks are sampled with the
        config's sampler settings at ``seed``. ``rate`` overrides the config's
        sampling rate (evaluation uses ``eval_rate``).
        """
        cfg = self.config
        pack = graphs if isinstance(graphs, PackedGraphs) else pack_graphs(
            [graphs] if isinstance(graphs, Graph) else list(graphs))
        if cfg.n_blocks == 0:
            pooled, pred = self._readout(Tensor(pack.union.node_features), pack)
            return ForwardResult(Tensor(pack.union.node_features), pooled, pred,
                                 pack, None, None)
        if walks is None:
            batch, walk_gids = sample_walks_packed(
                pack, cfg.walk_length, cfg.rate if rate is None else rate,
                cfg.non_backtracking, cfg.start_distribution, seed)
        else:
            batch = walks
            walk_gids = (walk_graph_ids if walk_graph_ids is not None
                         else pack.graph_ids[batch.start_nodes])
        ident, adjac = encode_batch(pack.union, batch, cfg.window)
        pe = np.concatenate([ident, adjac], axis=2)

        h_v, h_e = self._initial_states(pack)
        star = Tensor(np.zeros((pack.n_graphs, cfg.hidden_dim)))
        const = (self._norm_constants(pack, walk_gids, batch.length)
                 if cfg.normalization == "constant" else None)
        for t in range(cfg.n_blocks):
            p = f"block{t}"
            h_w = embed_walks(h_v, h_e, pe, batch, self.params, p)
            seq_out = self.seq_layers[t](h_w, batch.mask)
            agg_v, visited_v = aggregate_nodes(seq_out, batch, pack.union.n_nodes,
                                               cfg.normalization, const)
            gate_v = np.broadcast_to(visited_v[:, None], agg_v.shape).copy()
            h_v = ad.add(h_v, ad.mul(_layernorm(agg_v, self.params, f"{p}.ln_node"),
                                     Tensor(gate_v)))
            if pack.union.n_slots:
                agg_e, visited_e = aggregate_edges(seq_out, batch, pack.union.n_slots)
                gate_e = np.broadcast_to(visited_e[:, None], agg_e.shape).copy()
                h_e = ad.add(h_e, ad.mul(_layernorm(agg_e, self.params, f"{p}.ln_edge"),
                                         Tensor(gate_e)))
            if cfg.local_mp == "gin":
                h_v = _layernorm(local_mp_gin(pack, h_v, h_e, self.params, p),
                                 self.params, f"{p}.ln_local")
            if cfg.global_mp == "virtual_node":
                h_v, star = global_mp_virtual_node(h_v, star, pack.graph_ids,
                                                   pack.n_graphs, self.params, p)
                h_v = _layernorm(h_v, self.params, f"{p}.ln_global")
            elif cfg.global_mp == "transformer":
                h_v = _layernorm(
                    global_mp_transformer(h_v, pack.graph_ids, cfg.heads,
                                          self.params, p),
                    self.params, f"{p}.ln_global")
        pooled, pred = self._readout(h_v, pack)
        return ForwardResult(h_v, pooled, pred, pack, batch, walk_gids)

    def _readout(self, h_v: Tensor, pack: PackedGraphs) -> tuple[Tensor | None, Tensor | None]:
        cfg = self.config
        pooled = None
        if cfg.pooling == "mean":
            pooled = ad.segment_mean(h_v, pack.graph_ids, pack.n_graphs)
        elif cfg.pooling == "sum":
            pooled = ad.scatter_add(h_v, pack.graph_ids, pack.n_graphs)
        pred = None
        if cfg.head != "none":
            if pooled is None:
                pred = _linear(h_v, self.params, "head")     # node-level head
            else:
                pred = _linear(pooled, self.params, "head")
        return pooled, pred

    # ------------------------------------------------------------------

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {k: v.data.copy() for k, v in sorted(self.params.items())}

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        missing = set(self.params) - set(arrays)
        extra = set(arrays) - set(self.params)
        if missing or extra:
            raise ShapeError(f"state mismatch: missing {sorted(missing)[:3]}, extra {sorted(extra)[:3]}")
        for k, arr in arrays.items():
            if self.params[k].data.shape != arr.shape:
                raise ShapeError(f"parameter {k}: shape {arr.shape} != {self.params[k].data.shape}")
            self.params[k].data = arr.copy()


# =============================================================================
# Analysis readout (walk-functional form)
# =============================================================================

def walk_functional_readout(graph: Graph, batch: WalkBatch, features: np.ndarray,
                            u: np.ndarray, b: float,
                            normalization: str = "constant") -> float:
    """Linear functional of walk features routed through the production
    aggregate -> mean-pool -> linear-head path.

    ``features`` is (m, l+1, D) (identity sequence layer); the head is
    ``u . pooled + b``. With the constant normalization ``m*l/n`` this equals
    the plain per-walk average ``(1/m) sum_W f(X_W)`` with
    ``f(X) = (1/l) sum_i (u . X[i]) + b`` exactly.
    """
    pack = pack_graphs([graph])
    m_l_over_n = np.full(graph.n_nodes, batch.n_walks * batch.length / graph.n_nodes)
    agg, _ = aggregate_nodes(Tensor(features), batch, graph.n_nodes,
                             normalization, m_l_over_n)
    pooled = ad.segment_mean(agg, pack.graph_ids, 1)
    value = pooled.data[0] @ np.asarray(u, dtype=np.float64) + float(b)
    return float(value)
