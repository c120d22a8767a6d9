"""Walk-based graph network.

One forward pass samples a batch of random walks, embeds each walk position
(node embedding + projected edge embedding + projected positional encoding),
runs a sequence layer along every walk, averages the per-position outputs back
onto the nodes and edge slots they came from, and refines node states with
local (GIN-style) and global (virtual node or transformer) message passing.
Blocks repeat this pipeline; a pooling + linear head reads out predictions.

Graphs are processed as packed disjoint unions: a mini-batch is one
block-diagonal graph plus per-node graph ids, so aggregation, virtual nodes,
pooling, and normalization constants are all segment operations. Under the
``"constant"`` normalization a walk belongs to the graph of its start node, so
a walk batch carries no graph ids of its own. The global transformer instead
pads each graph's nodes to one (G, n_max, d) batch and runs the walk attention
block on it, with padded keys masked. A single graph is a batch of one.

Each index array a forward gathers or segments by becomes one
``autodiff.Segments`` plan, built once and shared by every block and VJP: the
pack's graph ids, CSR columns and slot sources (cached on the pack), and the
walk batch's nodes, out-slots and two aggregation ids (``_WalkPlans``).

Skip-connection guarantee: the aggregation update is
``h <- h_prev + visited * LN(agg)`` with the bool visited flags applied by
``autodiff.mask_rows``, so a node (or edge slot) that no walk touches keeps
its state bit-for-bit through the aggregate step at arbitrary parameters.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property
from numbers import Integral, Real

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .encoding import encode_batch
from .errors import (BadHeads, BadKernel, BadLength, BadSchedule, BadWindow, ParseError,
                     SamplerError, ShapeError, TooManyWalks, Unsupported)
from .graphs import Graph, disjoint_union
from .sampling import WalkBatch, child_seeds, _distinct_starts, _run_walks
from .seqlayers import SEQ_LAYER_KINDS, attention_block, make_seq_layer

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

# Field annotation (a string, under postponed evaluation) -> accepted value type.
_FIELD_TYPES = {"int": Integral, "float": Real, "bool": bool, "str": str}
_CHOICES = {"seq_layer": SEQ_LAYER_KINDS, "local_mp": ("gin", "none"),
            "global_mp": ("virtual_node", "transformer", "none"),
            "pooling": ("mean", "sum", "none"), "head": ("none", "regression", "classification"),
            "start_distribution": ("uniform", "stationary"),
            "normalization": ("visits", "constant")}
# field -> (smallest allowed value, error raised below it)
_MINIMUM = {
    "hidden_dim": (1, ShapeError), "n_blocks": (0, ShapeError), "kernel": (1, BadKernel),
    "heads": (1, BadHeads), "state": (1, ShapeError), "n_classes": (1, ShapeError),
    "out_dim": (1, ShapeError), "node_dim": (0, ShapeError), "edge_dim": (0, ShapeError),
    "walk_length": (1, BadLength), "window": (1, BadWindow), "epochs": (0, BadSchedule),
    "batch_size": (1, BadSchedule), "base_lr": (0, BadSchedule),
    "weight_decay": (0, BadSchedule), "warmup_epochs": (0, BadSchedule),
    "seed": (0, SamplerError),
}


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
        """Check each field's type, then its choices or range. A wrong type
        raises ParseError; a bad value raises the error the layer, sampler,
        encoder or optimizer that uses it raises."""
        for f in fields(self):
            value = getattr(self, f.name)
            if (isinstance(value, bool) != (f.type == "bool")
                    or not isinstance(value, _FIELD_TYPES[f.type])):
                raise ParseError(f"config field {f.name} must be {f.type}, got {value!r}")
            if f.name in _CHOICES and value not in _CHOICES[f.name]:
                raise Unsupported(f"unknown {f.name} {value!r}")
            low, error = _MINIMUM.get(f.name, (None, None))
            if low is not None and not low <= value < np.inf:
                raise error(f"config field {f.name} must be finite and >= {low}, got {value!r}")
        for name in ("rate", "eval_rate"):
            if not 0.0 < getattr(self, name) <= 1.0:
                raise TooManyWalks(f"{name} must be in (0, 1], got {getattr(self, name)}")
        if self.seq_layer == "conv" and self.kernel % 2 == 0:
            raise BadKernel(f"conv kernel must be odd and positive, got {self.kernel}")
        attends = self.seq_layer == "attention" or self.global_mp == "transformer"
        if attends and self.hidden_dim % self.heads:
            raise BadHeads(f"width {self.hidden_dim} not divisible by {self.heads} heads")

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ModelConfig":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"config is not valid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise ParseError("config must be a JSON object")
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

@dataclass(frozen=True, eq=False)
class PackedGraphs:
    """A mini-batch as one disjoint-union graph.

    Stored: ``members``, the graphs in pack order. Derived, and never
    assignable: ``union`` and ``node_offsets`` ((G+1,), graph i's nodes are
    ``node_offsets[i]:node_offsets[i+1]``) from one ``disjoint_union`` call at
    construction; ``graph_ids`` (the graph of each node), ``n_graphs``,
    ``slot_offsets`` ((G+1,), likewise for edge slots), ``n_nodes_per_graph``.
    """

    members: tuple
    union: Graph = field(init=False)
    node_offsets: np.ndarray = field(init=False)

    def __post_init__(self):
        union, node_offsets = disjoint_union(self.members)
        object.__setattr__(self, "union", union)
        object.__setattr__(self, "node_offsets", node_offsets)

    @property
    def n_graphs(self) -> int:
        return len(self.members)

    @cached_property
    def graph_ids(self) -> np.ndarray:
        return np.repeat(np.arange(self.n_graphs, dtype=np.int64), self.n_nodes_per_graph)

    @property
    def slot_offsets(self) -> np.ndarray:
        return self.union.row_offsets[self.node_offsets]

    @property
    def n_nodes_per_graph(self) -> np.ndarray:
        return np.diff(self.node_offsets)

    # Segment plans of the pack's index arrays, built on first use and shared
    # by every block, op and VJP of the forwards that use this pack.
    @cached_property
    def _graph_ids_plan(self) -> ad.Segments:
        return ad.Segments(self.graph_ids, self.n_graphs)

    @cached_property
    def _col_indices_plan(self) -> ad.Segments:
        return ad.Segments(self.union.col_indices, self.union.n_nodes)

    @cached_property
    def _slot_src_plan(self) -> ad.Segments:
        return ad.Segments(self.union.slot_src, self.union.n_nodes)


def pack_graphs(graphs) -> PackedGraphs:
    return PackedGraphs(tuple(graphs))


def sample_walks_packed(pack: PackedGraphs, length: int, rate: float,
                        non_backtracking: bool, start_distribution: str,
                        seed: int) -> tuple[WalkBatch, np.ndarray]:
    """Per-graph distinct-start sampling, executed as one vectorized run on the
    union graph. Walk j of the graph at pack position i uses the stream
    mix(mix(seed, i), j), so a graph's walks depend on the seed, its position
    in the pack and the graph itself, never on the other members. Returns the
    batch and each walk's graph id, which is the graph of its start node."""
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


class _WalkPlans:
    """The index arrays of one walk batch on a pack of ``n_nodes`` nodes and
    ``n_slots`` edge slots, as segment plans. Each is built on first use.
    ``Model.forward`` makes one per forward, so every block shares them; the
    walk-level functions wrap a bare :class:`WalkBatch` in a one-use instance.
    """

    def __init__(self, batch: WalkBatch, n_nodes: int, n_slots: int):
        self.batch, self.n_nodes, self.n_slots = batch, n_nodes, n_slots

    @cached_property
    def out_slots(self) -> np.ndarray:
        """(m, l+1) CSR slot of the real step leaving each position; -1 where none
        does (the last position, masked steps, and steps that stay on a sink)."""
        slots = np.where(self.batch.step_mask(), self.batch.edge_slots, -1)
        return np.pad(slots, ((0, 0), (0, 1)), constant_values=-1)

    @cached_property
    def nodes(self) -> ad.Segments:
        """The node at each position."""
        return ad.Segments(self.batch.nodes, self.n_nodes)

    @cached_property
    def slots(self) -> ad.Segments:
        """The out-slot of each position, clamped to 0 where there is none."""
        return ad.Segments(np.maximum(self.out_slots, 0), self.n_slots)

    @cached_property
    def node_rows(self) -> ad.Segments:
        """Flat node id per position, with the discard id ``n_nodes`` at
        masked positions."""
        ids = np.where(self.batch.mask, self.batch.nodes, self.n_nodes)
        return ad.Segments(ids.ravel(), self.n_nodes + 1)

    @cached_property
    def slot_rows(self) -> ad.Segments:
        """Flat out-slot per position, with the discard id ``n_slots`` where
        no step leaves it."""
        ids = np.where(self.out_slots >= 0, self.out_slots, self.n_slots)
        return ad.Segments(ids.ravel(), self.n_slots + 1)


def _walk_plans(batch: WalkBatch | _WalkPlans, n_nodes: int = 0,
                n_slots: int = 0) -> _WalkPlans:
    return batch if isinstance(batch, _WalkPlans) else _WalkPlans(batch, n_nodes, n_slots)


def embed_walks(h_v: Tensor, h_e: Tensor, pe: np.ndarray, batch: WalkBatch | _WalkPlans,
                params: dict, prefix: str) -> Tensor:
    """Per-position walk embeddings:
    ``h_V(w_i) + proj_edge(h_E(w_i w_{i+1})) + proj_pe(pe_i)``.

    ``batch`` is a :class:`WalkBatch` or the walk plans of ``Model.forward``.
    The edge input of a position with no step leaving it is zero before
    projection; fully padded rows are zeroed at the end.
    """
    walks = _walk_plans(batch, h_v.shape[0], h_e.shape[0])
    slots = walks.out_slots
    edge_rows = (ad.gather_rows(h_e, walks.slots) if h_e.shape[0]
                 else Tensor(np.zeros(slots.shape + h_e.shape[1:])))   # a pack with no edges
    edge_in = _linear(ad.mask_rows(edge_rows, slots >= 0), params, f"{prefix}.proj_edge")
    out = ad.add(ad.gather_rows(h_v, walks.nodes), edge_in)
    out = ad.add(out, _linear(Tensor(pe), params, f"{prefix}.proj_pe"))
    return ad.mask_rows(out, walks.batch.mask)


def _average_rows(seq_out: Tensor, rows: ad.Segments, n_rows: int,
                  norm_constant: np.ndarray | None = None) -> tuple[Tensor, np.ndarray]:
    """Average the rows of the flat (walk, position) sequence output per id of
    the plan ``rows``, dividing by the visit count or by ``norm_constant``.
    Positions holding the discard id ``n_rows`` fill one extra, dropped row.
    Returns (average, bool visited flag per id)."""
    m, n_pos, d = seq_out.shape
    segment = ad.segment_mean if norm_constant is None else ad.scatter_add
    agg = ad.slice_axis(segment(ad.reshape(seq_out, (m * n_pos, d)), rows, n_rows + 1),
                        0, 0, n_rows)
    if norm_constant is not None:
        agg = ad.mul(agg, ad.expand(Tensor(1.0 / norm_constant[:, None]), (n_rows, d)))
    return agg, rows.counts[:n_rows] > 0


def aggregate_nodes(seq_out: Tensor, batch: WalkBatch | _WalkPlans, n_nodes: int,
                    norm_constant: np.ndarray | None = None) -> tuple[Tensor, np.ndarray]:
    """Average sequence outputs over each node's walk occurrences.

    ``batch`` is a :class:`WalkBatch` or the walk plans of ``Model.forward``.
    Returns (aggregate, visited) where ``visited`` is the bool per-node flag
    of having at least one unmasked occurrence. The sum is divided by the
    empirical visit count, or by the per-node ``norm_constant`` when one is
    given (the constant normalization).
    """
    return _average_rows(seq_out, _walk_plans(batch, n_nodes=n_nodes).node_rows, n_nodes,
                         norm_constant)


def aggregate_edges(seq_out: Tensor, batch: WalkBatch | _WalkPlans,
                    n_slots: int) -> tuple[Tensor, np.ndarray]:
    """Average the sequence output at each step's source position over the
    edge slots the steps traversed. ``batch`` is as in :func:`aggregate_nodes`."""
    return _average_rows(seq_out, _walk_plans(batch, n_slots=n_slots).slot_rows, n_slots)


def local_mp_gin(pack: PackedGraphs, h_v: Tensor, h_e: Tensor,
                 params: dict, prefix: str) -> Tensor:
    """GIN-with-edges update:
    ``h + MLP((1 + eps) h(v) + sum_u relu(h(u) + proj(h_E(uv))))``."""
    union = pack.union
    msg = ad.add(ad.gather_rows(h_v, pack._col_indices_plan),
                 _linear(h_e, params, f"{prefix}.gin_edge"))
    neigh = ad.scatter_add(ad.relu(msg), pack._slot_src_plan, union.n_nodes)
    eps = params[f"{prefix}.gin_eps"]
    one_plus = ad.add(eps, 1.0)                              # shape (1,)
    scaled = ad.mul(h_v, ad.expand(one_plus, (h_v.shape[1],)))
    core = ad.add(scaled, neigh)
    return ad.add(h_v, _mlp(core, params, f"{prefix}.gin_mlp"))


def global_mp_virtual_node(h_v: Tensor, star_prev: Tensor,
                           graph_ids: np.ndarray | ad.Segments, n_graphs: int,
                           params: dict, prefix: str) -> tuple[Tensor, Tensor]:
    """Virtual-node exchange: star = MLP(star_prev + sum_v h(v)) per graph,
    then every node receives its graph's star state additively.
    ``graph_ids`` is an array or its :class:`~neuralwalker.autodiff.Segments`
    plan."""
    sums = ad.scatter_add(h_v, graph_ids, n_graphs)
    star = _mlp(ad.add(star_prev, sums), params, f"{prefix}.vn_mlp")
    h_out = ad.add(h_v, ad.gather_rows(star, graph_ids))
    return h_out, star


def global_mp_transformer(h_v: Tensor, graph_ids: np.ndarray, heads: int,
                          params: dict, prefix: str) -> Tensor:
    """Transformer update over the nodes of each graph:
    ``h' = h + Attn(h); out = h' + FFN(h')``. The pack becomes a (G, n_max, d)
    batch with one graph per row; padding repeats node 0, is masked as keys
    and dropped from the output. An empty pack is returned unchanged."""
    n, d = h_v.shape
    if n == 0:
        return h_v
    gids = np.asarray(graph_ids, dtype=np.int64)
    counts = np.bincount(gids)
    mask = np.arange(counts.max()) < counts[:, None]        # (G, n_max)
    order = np.argsort(gids, kind="stable")
    index = np.zeros(mask.shape, dtype=np.int64)
    index[mask] = order
    flat = np.empty(n, dtype=np.int64)                      # node -> row of the batch
    flat[order] = np.flatnonzero(mask)
    linears = [(params[f"{prefix}.attn_{r}.w"], params[f"{prefix}.attn_{r}.b"])
               for r in ("q", "k", "v", "o", "ffn.0", "ffn.1")]
    out = attention_block(ad.gather_rows(h_v, index), mask, heads, linears)
    return ad.gather_rows(ad.reshape(out, (mask.size, d)), flat)


def _norm_constants(pack: PackedGraphs, batch: WalkBatch) -> np.ndarray:
    """Per-node constant m_g * l / n_g used by the 'constant' variant; a
    walk counts towards the graph of its start node."""
    m_per_graph = np.bincount(pack.graph_ids[batch.start_nodes], minlength=pack.n_graphs)
    n_per_graph = np.maximum(pack.n_nodes_per_graph, 1)
    const = m_per_graph * batch.length / n_per_graph
    return np.maximum(const, 1e-300)[pack.graph_ids]


# =============================================================================
# The model
# =============================================================================

@dataclass
class ForwardResult:
    node_embeddings: Tensor          # (n_total, d)
    pooled: Tensor | None            # (G, d) or None when pooling == "none"
    prediction: Tensor | None        # (G, out), or (n_total, out) for a node-level head;
                                     # None when head == "none"
    pack: PackedGraphs
    batch: WalkBatch | None


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
            h_e = ad.expand(self.params["edge_embed"], (union.n_slots, cfg.hidden_dim))
        return h_v, h_e

    def forward(self, graphs, seed: int = 0, walks: WalkBatch | None = None,
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
        widths, want = (pack.union.node_dim, pack.union.edge_dim), (cfg.node_dim, cfg.edge_dim)
        if widths != want:
            raise ShapeError(f"graph (node_dim, edge_dim) {widths} != config {want}")
        if cfg.n_blocks == 0:
            pooled, pred = self._readout(Tensor(pack.union.node_features), pack)
            return ForwardResult(Tensor(pack.union.node_features), pooled, pred, pack, None)
        batch = walks if walks is not None else sample_walks_packed(
            pack, cfg.walk_length, cfg.rate if rate is None else rate,
            cfg.non_backtracking, cfg.start_distribution, seed)[0]
        ident, adjac = encode_batch(pack.union, batch, cfg.window)
        pe = np.concatenate([ident, adjac], axis=2)

        h_v, h_e = self._initial_states(pack)
        star = Tensor(np.zeros((pack.n_graphs, cfg.hidden_dim)))
        const = (_norm_constants(pack, batch)
                 if cfg.normalization == "constant" else None)
        walks = _WalkPlans(batch, pack.union.n_nodes, pack.union.n_slots)
        for t in range(cfg.n_blocks):
            p = f"block{t}"
            h_w = embed_walks(h_v, h_e, pe, walks, self.params, p)
            seq_out = self.seq_layers[t](h_w, batch.mask)
            agg_v, visited_v = aggregate_nodes(seq_out, walks, pack.union.n_nodes, const)
            h_v = ad.add(h_v, ad.mask_rows(_layernorm(agg_v, self.params, f"{p}.ln_node"),
                                           visited_v))
            agg_e, visited_e = aggregate_edges(seq_out, walks, pack.union.n_slots)
            h_e = ad.add(h_e, ad.mask_rows(_layernorm(agg_e, self.params, f"{p}.ln_edge"),
                                           visited_e))
            if cfg.local_mp == "gin":
                h_v = _layernorm(local_mp_gin(pack, h_v, h_e, self.params, p),
                                 self.params, f"{p}.ln_local")
            if cfg.global_mp == "virtual_node":
                h_v, star = global_mp_virtual_node(h_v, star, pack._graph_ids_plan,
                                                   pack.n_graphs, self.params, p)
                h_v = _layernorm(h_v, self.params, f"{p}.ln_global")
            elif cfg.global_mp == "transformer":
                h_v = _layernorm(
                    global_mp_transformer(h_v, pack.graph_ids, cfg.heads,
                                          self.params, p),
                    self.params, f"{p}.ln_global")
        pooled, pred = self._readout(h_v, pack)
        return ForwardResult(h_v, pooled, pred, pack, batch)

    def _readout(self, h_v: Tensor, pack: PackedGraphs) -> tuple[Tensor | None, Tensor | None]:
        cfg = self.config
        pooled = None
        if cfg.pooling == "mean":
            pooled = ad.segment_mean(h_v, pack._graph_ids_plan, pack.n_graphs)
        elif cfg.pooling == "sum":
            pooled = ad.scatter_add(h_v, pack._graph_ids_plan, pack.n_graphs)
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
                            u: np.ndarray, b: float) -> float:
    """Linear functional of walk features routed through the production
    aggregate -> mean-pool -> linear-head path.

    ``features`` is (m, l+1, D) (identity sequence layer); the head is
    ``u . pooled + b``. With the constant normalization ``m*l/n`` this equals
    the plain per-walk average ``(1/m) sum_W f(X_W)`` with
    ``f(X) = (1/l) sum_i (u . X[i]) + b`` exactly.
    """
    pack = pack_graphs([graph])
    agg, _ = aggregate_nodes(Tensor(features), batch, graph.n_nodes,
                             _norm_constants(pack, batch))
    pooled = ad.segment_mean(agg, pack.graph_ids, 1)
    value = pooled.data[0] @ np.asarray(u, dtype=np.float64) + float(b)
    return float(value)
