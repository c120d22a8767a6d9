"""Seeded random-walk sampling over CSR graphs.

Walks are generated batch-vectorized, one step across all walks at a time, but
every walk draws from its own counter-based SplitMix64 stream derived from
(master seed, walk index). The batch is therefore a pure function of
(graph, config, seed): execution order, batching, and worker count cannot
change it.

Two sampling modes exist:

* :func:`sample_walks` - the model path. Start nodes are pairwise distinct
  (seeded permutation, or a seeded weighted draw without replacement for the
  degree-stationary distribution) and the walk count obeys ``m <= n``.
* :func:`sample_walks_iid` - the analysis path. Starts are i.i.d. draws, any
  ``m`` is allowed; used by convergence and distribution diagnostics where the
  estimator theory assumes independent samples.

Transition kernel (shared by both modes): uniform over neighbors; with
``non_backtracking`` the previous node is excluded whenever at least one other
neighbor exists, and a degree-1 dead end falls back to backtracking for that
step. A walk starting on an isolated node stays there with positions 1..l
pad-masked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import json

import numpy as np

from .errors import BadIndex, BadLength, NeverCovers, ParseError, TooManyWalks, Unsupported
from .graphs import Graph, is_connected

__all__ = [
    "SamplerConfig",
    "WalkBatch",
    "CoverageStats",
    "sample_walks",
    "sample_walks_iid",
    "transition",
    "stationary_distribution",
    "measure_cover_time",
    "remap_walks",
    "walks_to_jsonl",
    "walks_from_jsonl",
]


# =============================================================================
# Counter-based RNG (SplitMix64)
# =============================================================================

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64 = np.uint64
_START_COUNTER = _U64(0xFFFFFFFF00000000)  # reserved counter for i.i.d. start draws


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, vectorized over uint64."""
    z = np.asarray(z, dtype=np.uint64).copy()
    z ^= z >> _U64(30)
    z *= _MIX1
    z ^= z >> _U64(27)
    z *= _MIX2
    z ^= z >> _U64(31)
    return z


def child_seeds(master_seed: int, n: int) -> np.ndarray:
    """Per-walk seeds: the SplitMix64 stream of ``master_seed`` at indices 0..n-1."""
    j = np.arange(1, n + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return _mix64(_U64(master_seed & 0xFFFFFFFFFFFFFFFF) + j * _GOLDEN)


def _uniform01(seeds: np.ndarray, counter: int | np.uint64) -> np.ndarray:
    """One double in [0, 1) per seed at the given stream position."""
    with np.errstate(over="ignore"):
        bits = _mix64(seeds + (_U64(counter) + _U64(1)) * _GOLDEN)
    return (bits >> _U64(11)).astype(np.float64) * (2.0 ** -53)


# =============================================================================
# Containers
# =============================================================================

@dataclass
class SamplerConfig:
    """Walk-sampling parameters.

    Exactly one of ``rate`` / ``n_walks`` decides the batch size: an explicit
    ``n_walks`` wins, otherwise ``m = max(1, round(rate * n))``. Both are
    capped by the distinct-start constraint ``m <= n``.
    """

    length: int
    rate: float | None = 1.0
    n_walks: int | None = None
    non_backtracking: bool = False
    start_distribution: str = "uniform"  # "uniform" | "stationary"
    seed: int = 0

    def resolve_n_walks(self, n_nodes: int) -> int:
        if self.n_walks is not None:
            m = int(self.n_walks)
            if m < 1:
                raise TooManyWalks(f"n_walks must be >= 1, got {m}")
        else:
            rate = float(self.rate)
            if not (0.0 < rate <= 1.0):
                raise TooManyWalks(f"rate must be in (0, 1], got {rate}")
            m = max(1, int(round(rate * n_nodes)))
        if m > n_nodes:
            raise TooManyWalks(f"{m} walks > {n_nodes} nodes (starts must be distinct)")
        return m

    def validate(self) -> None:
        if int(self.length) < 1:
            raise BadLength(f"walk length must be >= 1, got {self.length}")
        if self.start_distribution not in ("uniform", "stationary"):
            raise Unsupported(f"unknown start distribution {self.start_distribution!r}")


@dataclass
class WalkBatch:
    """A batch of equal-length walks.

    Attributes
    ----------
    nodes : ndarray of int64, shape (m, l+1)
        Node index at each position. Isolated-node walks repeat the start.
    edge_slots : ndarray of int64, shape (m, l)
        CSR slot of the arc taken at each step; -1 where the step is masked.
    mask : ndarray of bool, shape (m, l+1)
        True at real positions. Column 0 is always True; columns 1..l are
        False exactly for isolated-node walks.
    start_nodes : ndarray of int64, shape (m,)
    length : int
    """

    nodes: np.ndarray
    edge_slots: np.ndarray
    mask: np.ndarray
    start_nodes: np.ndarray
    length: int

    @property
    def n_walks(self) -> int:
        return int(self.nodes.shape[0])

    def step_mask(self) -> np.ndarray:
        """(m, l) bool: step i is real iff position i+1 is real."""
        return self.mask[:, 1:]

    def validate(self, graph: Graph) -> None:
        """Check a batch that did not come from the sampler (a walks file)
        against the graph it claims to walk on.

        Raises
        ------
        BadIndex
            If a node lies outside ``[0, graph.n_nodes)``.
        ParseError
            If the slot of a real step is not the arc ``nodes[i] -> nodes[i+1]``,
            or a masked step carries a slot other than -1.
        """
        if self.nodes.size and (self.nodes.min() < 0 or self.nodes.max() >= graph.n_nodes):
            raise BadIndex(f"walk node out of range [0, {graph.n_nodes})")
        src, dst, slots = self.nodes[:, :-1], self.nodes[:, 1:], self.edge_slots
        is_arc = np.zeros(slots.shape, dtype=bool)
        if graph.n_slots:
            inside = (slots >= 0) & (slots < graph.n_slots)
            safe = np.where(inside, slots, 0)
            is_arc = inside & (graph.slot_src[safe] == src) & (graph.col_indices[safe] == dst)
        bad = np.where(self.step_mask(), ~is_arc, slots != -1)
        if bad.any():
            w, i = (int(k) for k in np.argwhere(bad)[0])
            if self.mask[w, i + 1]:
                raise ParseError(f"walk {w} step {i}: edge slot {slots[w, i]} is not "
                                 f"the arc {src[w, i]} -> {dst[w, i]}")
            raise ParseError(f"walk {w} step {i}: masked step carries edge slot {slots[w, i]}")


@dataclass
class CoverageStats:
    """Visit statistics of a batch over a graph."""

    n_nodes: int
    visit_counts: np.ndarray  # (n,), unmasked positions only
    visited_fraction: float

    @classmethod
    def from_batch(cls, graph: Graph, batch: WalkBatch) -> "CoverageStats":
        visited = batch.nodes[batch.mask]
        counts = np.bincount(visited, minlength=graph.n_nodes).astype(np.int64)
        frac = float(np.mean(counts > 0)) if graph.n_nodes else 0.0
        return cls(graph.n_nodes, counts, frac)


# =============================================================================
# Start-node selection
# =============================================================================

def stationary_distribution(graph: Graph) -> np.ndarray:
    """pi(v) = d(v) / 2|E| for undirected graphs.

    Raises
    ------
    Unsupported
        For directed graphs (the degree formula does not apply).
    """
    if graph.directed:
        raise Unsupported("stationary distribution formula requires an undirected graph")
    if graph.n_slots == 0:
        raise Unsupported("stationary distribution undefined without edges")
    deg = graph.degrees().astype(np.float64)
    return deg / (2.0 * graph.n_edges)


def _distinct_starts(graph: Graph, m: int, distribution: str, seed: int) -> np.ndarray:
    rng = np.random.default_rng(np.uint64(_mix64(_U64(seed & 0xFFFFFFFFFFFFFFFF) ^ _U64(0xA5A5A5A5))))
    n = graph.n_nodes
    if distribution == "uniform":
        return rng.permutation(n)[:m].astype(np.int64)
    # Weighted draw without replacement (Efraimidis-Spirakis keys): the m
    # largest u^(1/w) are a without-replacement sample proportional to w.
    w = stationary_distribution(graph)
    u = rng.random(n)
    with np.errstate(divide="ignore"):
        keys = np.where(w > 0, u ** (1.0 / np.maximum(w, 1e-300)), -1.0)
    order = np.argsort(-keys, kind="stable")
    starts = order[:m].astype(np.int64)
    if np.any(w[starts] <= 0):
        raise TooManyWalks(f"only {int((w > 0).sum())} nodes have positive stationary mass")
    return starts


# =============================================================================
# Vectorized walk generation
# =============================================================================

def _bisect_neighbor_pos(col: np.ndarray, off: np.ndarray, deg: np.ndarray,
                         target: np.ndarray) -> np.ndarray:
    """Index of ``target`` inside each sorted CSR row (rows given by off/deg).

    Caller guarantees the target is present wherever the result is used.
    """
    lo = np.zeros(off.shape[0], dtype=np.int64)
    hi = deg.astype(np.int64).copy()
    limit = max(col.shape[0] - 1, 0)
    while True:
        open_rows = lo < hi
        if not np.any(open_rows):
            break
        mid = (lo + hi) >> 1
        idx = np.minimum(off + mid, limit)
        val = col[idx]
        go_right = open_rows & (val < target)
        lo = np.where(go_right, mid + 1, lo)
        hi = np.where(open_rows & ~go_right, mid, hi)
    return lo


def _advance(graph: Graph, cur: np.ndarray, prev: np.ndarray, u: np.ndarray,
             non_backtracking: bool) -> tuple[np.ndarray, np.ndarray]:
    """One transition for every walk; returns (next_nodes, slots) with slot -1
    where the current node is isolated (walk stays put)."""
    off = graph.row_offsets[cur]
    deg = (graph.row_offsets[cur + 1] - off).astype(np.int64)
    alive = deg > 0
    if non_backtracking:
        excl = alive & (prev >= 0) & (deg >= 2)
    else:
        excl = np.zeros(cur.shape, dtype=bool)
    eff = np.maximum(deg - excl.astype(np.int64), 1)
    r = np.minimum((u * eff).astype(np.int64), eff - 1)
    if np.any(excl):
        pos = _bisect_neighbor_pos(graph.col_indices, off, deg, prev)
        r = np.where(excl & (r >= pos), r + 1, r)
    slot = np.minimum(off + r, max(graph.n_slots - 1, 0))
    nxt = np.where(alive, graph.col_indices[slot] if graph.n_slots else cur, cur)
    slot = np.where(alive, slot, -1)
    return nxt.astype(np.int64), slot.astype(np.int64)


def _run_walks(graph: Graph, starts: np.ndarray, length: int, seeds: np.ndarray,
               non_backtracking: bool) -> WalkBatch:
    m = starts.shape[0]
    nodes = np.empty((m, length + 1), dtype=np.int64)
    slots = np.full((m, length), -1, dtype=np.int64)
    nodes[:, 0] = starts
    deg0 = graph.degrees()[starts]
    alive = deg0 > 0
    prev = np.full(m, -1, dtype=np.int64)
    cur = starts.astype(np.int64).copy()
    for t in range(length):
        u = _uniform01(seeds, t)
        nxt, slot = _advance(graph, cur, prev, u, non_backtracking)
        nodes[:, t + 1] = nxt
        slots[:, t] = slot
        prev, cur = cur, nxt
    mask = np.ones((m, length + 1), dtype=bool)
    mask[~alive, 1:] = False
    slots[~alive, :] = -1
    return WalkBatch(nodes=nodes, edge_slots=slots, mask=mask,
                     start_nodes=starts.astype(np.int64), length=length)


def sample_walks(graph: Graph, config: SamplerConfig, seed: int | None = None) -> WalkBatch:
    """Sample a batch of walks with pairwise-distinct start nodes.

    Parameters
    ----------
    graph : Graph
    config : SamplerConfig
    seed : int, optional
        Overrides ``config.seed`` (used by resampling loops and the CLI).

    Returns
    -------
    WalkBatch
        Identical for identical (graph, config, seed) regardless of execution
        environment; walk ``j`` depends only on the master seed and ``j``.
    """
    config.validate()
    if graph.n_nodes == 0:
        raise BadIndex("cannot sample walks on an empty graph")
    master = int(config.seed if seed is None else seed)
    m = config.resolve_n_walks(graph.n_nodes)
    starts = _distinct_starts(graph, m, config.start_distribution, master)
    seeds = child_seeds(master, m)
    return _run_walks(graph, starts, int(config.length), seeds, config.non_backtracking)


def sample_walks_iid(graph: Graph, n_walks: int, length: int, seed: int,
                     non_backtracking: bool = False,
                     start_distribution: str = "uniform") -> WalkBatch:
    """I.i.d.-start variant for estimator diagnostics (any ``n_walks``).

    Starts are independent draws (uniform, or the degree-stationary law via
    inverse CDF); transitions use the same kernel and per-walk streams as
    :func:`sample_walks`.
    """
    if length < 1:
        raise BadLength(f"walk length must be >= 1, got {length}")
    if n_walks < 1:
        raise TooManyWalks(f"n_walks must be >= 1, got {n_walks}")
    if graph.n_nodes == 0:
        raise BadIndex("cannot sample walks on an empty graph")
    seeds = child_seeds(seed, n_walks)
    u = _uniform01(seeds, _START_COUNTER)
    if start_distribution == "uniform":
        starts = np.minimum((u * graph.n_nodes).astype(np.int64), graph.n_nodes - 1)
    elif start_distribution == "stationary":
        cdf = np.cumsum(stationary_distribution(graph))
        starts = np.searchsorted(cdf, u, side="right").astype(np.int64)
        starts = np.minimum(starts, graph.n_nodes - 1)
    else:
        raise Unsupported(f"unknown start distribution {start_distribution!r}")
    return _run_walks(graph, starts, int(length), seeds, non_backtracking)


# =============================================================================
# Scalar reference kernel and cover times
# =============================================================================

def transition(graph: Graph, current: int, previous: int | None,
               non_backtracking: bool, rng: np.random.Generator) -> int:
    """Single reference transition (same semantics as the batch kernel).

    Returns the next node; ``current`` itself if it is isolated.
    """
    nbrs = graph.neighbors(current)
    if nbrs.shape[0] == 0:
        return current
    if non_backtracking and previous is not None and nbrs.shape[0] >= 2:
        allowed = nbrs[nbrs != previous]
        if allowed.shape[0] == 0:  # cannot happen for simple graphs, kept for clarity
            allowed = nbrs
    else:
        allowed = nbrs
    return int(allowed[rng.integers(allowed.shape[0])])


def measure_cover_time(graph: Graph, trials: int, seed: int,
                       step_cap: int | None = None) -> np.ndarray:
    """Steps a uniform random walk needs to visit every node, per trial.

    Each trial starts at a uniformly random node and runs the plain
    (backtracking) kernel until all nodes are seen.

    Returns
    -------
    ndarray of int64, shape (trials,)

    Raises
    ------
    NeverCovers
        If the graph is disconnected (cover time is infinite).
    """
    if not is_connected(graph):
        raise NeverCovers("disconnected graph is never covered")
    n = graph.n_nodes
    if step_cap is None:
        step_cap = max(1000, 400 * n * max(graph.n_edges, 1))
    rng = np.random.default_rng(np.uint64(_mix64(_U64(seed & 0xFFFFFFFFFFFFFFFF) ^ _U64(0xC0FFEE))))
    out = np.zeros(trials, dtype=np.int64)
    for t in range(trials):
        cur = int(rng.integers(n))
        seen = np.zeros(n, dtype=bool)
        seen[cur] = True
        remaining = n - 1
        steps = 0
        while remaining > 0:
            cur = transition(graph, cur, None, False, rng)
            steps += 1
            if not seen[cur]:
                seen[cur] = True
                remaining -= 1
            if steps > step_cap:
                raise NeverCovers(f"trial {t} exceeded step cap {step_cap}")
        out[t] = steps
    return out


def remap_walks(batch: WalkBatch, perm: np.ndarray, target: Graph) -> WalkBatch:
    """Translate a batch onto a relabeled copy of its graph.

    ``perm[v]`` is node v's index in ``target``; edge slots are looked up
    fresh so they index the target's CSR layout. Used by isomorphism-
    invariance checks: a model must produce identical pooled outputs on
    (graph, batch) and (relabeled graph, remapped batch).
    """
    perm = np.asarray(perm, dtype=np.int64)
    nodes = perm[batch.nodes]
    step_ok = batch.step_mask() & (batch.edge_slots >= 0)
    slots = np.full_like(batch.edge_slots, -1)
    if step_ok.any():
        src = nodes[:, :-1][step_ok]
        dst = nodes[:, 1:][step_ok]
        found = np.searchsorted(target._slot_keys, src * target.n_nodes + dst)
        slots[step_ok] = found
    return WalkBatch(nodes=nodes, edge_slots=slots, mask=batch.mask.copy(),
                     start_nodes=perm[batch.start_nodes], length=batch.length)


# =============================================================================
# JSON-lines serialization (one record per walk)
# =============================================================================

def walks_to_jsonl(batch: WalkBatch) -> str:
    lines = []
    for j in range(batch.n_walks):
        rec = {
            "walk_id": j,
            "nodes": batch.nodes[j].tolist(),
            "edge_slots": batch.edge_slots[j].tolist(),
            "mask": batch.mask[j].astype(int).tolist(),
        }
        lines.append(json.dumps(rec, separators=(",", ":")))
    return "\n".join(lines) + "\n"


def walks_from_jsonl(text: str) -> WalkBatch:
    nodes, slots, mask = [], [], []
    length = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
            row_nodes = rec["nodes"]
            row_slots = rec["edge_slots"]
            row_mask = rec["mask"]
        except (json.JSONDecodeError, KeyError, TypeError):
            raise ParseError(f"line {lineno}: malformed walk record") from None
        if length is None:
            length = len(row_nodes) - 1
        if len(row_nodes) != length + 1 or len(row_slots) != length or len(row_mask) != length + 1:
            raise ParseError(f"line {lineno}: inconsistent walk lengths")
        nodes.append(row_nodes)
        slots.append(row_slots)
        mask.append(row_mask)
    if length is None:
        raise ParseError("empty walks file")
    nodes = np.asarray(nodes, dtype=np.int64)
    return WalkBatch(
        nodes=nodes,
        edge_slots=np.asarray(slots, dtype=np.int64),
        mask=np.asarray(mask, dtype=np.int64).astype(bool),
        start_nodes=nodes[:, 0].copy(),
        length=length,
    )
