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
step. On a directed graph "neighbor" means out-neighbor, and the previous node
is excluded only when it is one. A walk starting on an isolated node stays
there with positions 1..l pad-masked. The excluded arc is found without a
search: each walk carries the slot it arrived by, and the graph's reverse-slot
table, built on first use and kept on the graph, names the arc back.
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


def _salted_rng(seed: int, salt: int) -> np.random.Generator:
    """A PCG64 generator on the stream that ``salt`` splits off ``seed``."""
    return np.random.default_rng(_U64(_mix64(_U64(seed & 0xFFFFFFFFFFFFFFFF) ^ _U64(salt))))


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
        CSR slot of the arc taken at each step; -1 where the step is masked,
        and -1 on a real step where the walk stays put on a node with
        out-degree 0 (a sink of a directed graph).
    mask : ndarray of bool, shape (m, l+1)
        True at real positions. Column 0 is always True; columns 1..l are
        False exactly for walks whose start node has out-degree 0.

    Properties, derived from ``nodes`` and not settable: ``n_walks`` (m),
    ``length`` (l), and ``start_nodes``, the (m,) view of column 0.
    """

    nodes: np.ndarray
    edge_slots: np.ndarray
    mask: np.ndarray

    @property
    def n_walks(self) -> int:
        return int(self.nodes.shape[0])

    @property
    def length(self) -> int:
        return int(self.nodes.shape[1]) - 1

    @property
    def start_nodes(self) -> np.ndarray:
        return self.nodes[:, 0]

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
            If a walk's steps are not all real or all masked, a walk whose
            start node has out-degree > 0 is masked, the slot of a real step is
            not the arc ``nodes[i] -> nodes[i+1]`` (or -1 for a stay on a node
            with out-degree 0), or a masked step carries a slot other than -1.
        """
        if self.nodes.size and (self.nodes.min() < 0 or self.nodes.max() >= graph.n_nodes):
            raise BadIndex(f"walk node out of range [0, {graph.n_nodes})")
        src, dst, slots = self.nodes[:, :-1], self.nodes[:, 1:], self.edge_slots
        steps = self.step_mask()
        sink = graph.degrees() == 0
        masked = ~steps.all(axis=1)
        bad_walk = masked & (steps.any(axis=1) | ~sink[self.nodes[:, 0]])
        if bad_walk.any():
            w = int(np.argmax(bad_walk))
            raise ParseError(f"walk {w}: only a walk whose start node has out-degree 0 "
                             f"may mask steps, and then it masks all of them")
        ok = (slots == -1) & (dst == src) & sink[src]
        if graph.n_slots:
            inside = (slots >= 0) & (slots < graph.n_slots)
            safe = np.where(inside, slots, 0)
            ok |= inside & (graph.slot_src[safe] == src) & (graph.col_indices[safe] == dst)
        bad = np.where(steps, ~ok, slots != -1)
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
    rng = _salted_rng(seed, 0xA5A5A5A5)
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

def _advance(graph: Graph, cur: np.ndarray, back: np.ndarray,
             u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One transition for every walk; returns (next_nodes, slots) with slot -1
    where the current node has out-degree 0 (the walk stays put). The slot
    ``back`` (-1: none) is excluded wherever another out-arc remains."""
    off = graph.row_offsets[cur]
    deg = (graph.row_offsets[cur + 1] - off).astype(np.int64)
    alive = deg > 0
    excl = (back >= 0) & (deg >= 2)
    eff = np.maximum(deg - excl.astype(np.int64), 1)
    r = np.minimum((u * eff).astype(np.int64), eff - 1)
    if np.any(excl):
        r = np.where(excl & (r >= back - off), r + 1, r)
    slot = np.minimum(off + r, max(graph.n_slots - 1, 0))
    nxt = np.where(alive, graph.col_indices[slot] if graph.n_slots else cur, cur)
    slot = np.where(alive, slot, -1)
    return nxt.astype(np.int64), slot.astype(np.int64)


def _run_walks(graph: Graph, starts: np.ndarray, length: int, seeds: np.ndarray,
               non_backtracking: bool) -> WalkBatch:
    m = starts.shape[0]
    nodes = np.empty((m, length + 1), dtype=np.int64)
    slots = np.empty((m, length), dtype=np.int64)
    nodes[:, 0] = starts
    back = np.full(m, -1, dtype=np.int64)
    if non_backtracking:
        reverse = graph._reverse_slots
    cur = starts.astype(np.int64)
    for t in range(length):
        cur, slot = _advance(graph, cur, back, _uniform01(seeds, t))
        nodes[:, t + 1] = cur
        slots[:, t] = slot
        if non_backtracking:
            back = reverse[slot]
    mask = np.ones((m, length + 1), dtype=bool)
    mask[graph.degrees()[starts] == 0, 1:] = False
    return WalkBatch(nodes=nodes, edge_slots=slots, mask=mask)


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
    allowed = nbrs
    if non_backtracking and previous is not None and nbrs.shape[0] >= 2:
        allowed = nbrs[nbrs != previous]  # CSR rows hold distinct targets: never empty
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
    rng = _salted_rng(seed, 0xC0FFEE)
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

    Raises
    ------
    BadIndex
        If ``target`` lacks the arc of a real step.
    """
    perm = np.asarray(perm, dtype=np.int64)
    nodes = perm[batch.nodes]
    step_ok = batch.step_mask() & (batch.edge_slots >= 0)
    slots = np.full_like(batch.edge_slots, -1)
    if step_ok.any():
        src = nodes[:, :-1][step_ok]
        dst = nodes[:, 1:][step_ok]
        found = target._find_slots(src, dst)
        if np.any(found < 0):
            k = int(np.argmax(found < 0))
            raise BadIndex(f"target graph has no arc {src[k]} -> {dst[k]} for a walk step")
        slots[step_ok] = found
    return WalkBatch(nodes=nodes, edge_slots=slots, mask=batch.mask.copy())


# =============================================================================
# JSON-lines serialization (one record per walk)
# =============================================================================

# Walks formatted per block: a block is one (walks x words) uint64 array, 576
# bytes per walk of length 20, so the formatter's temporaries do not grow with
# the batch. On 100k walks of length 20 the writer and the reader took the
# same time at 256 to 2048 walks per block; at 512 a block's words and their
# two byte copies (under 1 MiB) fit in one core's 2 MiB L2 cache.
_FORMAT_BLOCK = 512

# An integer takes one 8-byte word per six-digit group, the most significant
# group first. The digits of a group sit right-aligned in bytes 2..7; byte 0
# of the integer's first word holds its "," separator and byte 1 its "-" sign.
# NUL bytes are padding, dropped once per block.
_GROUP = 10 ** 6
_COMMA, _MINUS, _ZEROS = (np.frombuffer(w.ljust(8, b"\0"), dtype=np.uint64)[0]
                          for w in (b",", b"\0-", b"\0\0" + b"0" * 6))
# The constant pieces around a record's four integer lists, NUL-padded to words.
_RECORD = tuple(np.frombuffer(piece.ljust(-(-len(piece) // 8) * 8, b"\0"), dtype=np.uint64)
                for piece in (b'{"walk_id":', b',"nodes":[', b'],"edge_slots":[',
                              b'],"mask":[', b']}\n'))


def _digit_table(largest: int) -> np.ndarray:
    """The word of every group value below ``10**d``, where ``d`` is the digit
    count of ``largest`` capped at six: its digits right-aligned with no
    leading zeros. OR-ing in ``_ZEROS`` writes the leading zeros of a group
    that follows another."""
    d = min(len(str(largest)), 6)
    table = np.zeros((10,) * d + (8,), dtype=np.uint8)
    digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    for k in range(d):           # digit k of d, most significant first
        table[..., 8 - d + k] = digits.reshape((10,) + (1,) * (d - 1 - k))
    flat = table.reshape(-1, 8)
    for k in range(d - 1):       # values below 10**(d-1-k) have no digit k
        flat[:10 ** (d - 1 - k), 8 - d + k] = 0
    return flat.view(np.uint64).ravel()


def _put_ints(out: np.ndarray, values: np.ndarray, table: np.ndarray,
              lead: np.ndarray) -> None:
    """Write the int64 ``values`` (k, n) into ``out`` (k, n, groups) as
    words from ``table``, with the separator words ``lead`` (n,) and the
    signs OR'd into each integer's first word."""
    q = np.abs(values).view(np.uint64)  # abs(int64 min) wraps to 2**63 as uint64
    negative = values < 0
    if negative.any():
        lead = lead | negative * _MINUS
    groups = out.shape[2]
    for p in range(groups - 1, -1, -1):   # word p; the least significant is last
        word = np.take(table, q % _GROUP if p else q)
        if p < groups - 1:
            word[q == 0] = 0              # a group above the integer's top one
        if p:
            q = q // _GROUP
            word |= (q > 0) * _ZEROS      # a group below a non-empty one
            out[..., p] = word
        else:
            np.bitwise_or(word, lead, out=out[..., 0])


def _format_walks(nodes: np.ndarray, edge_slots: np.ndarray, mask: np.ndarray):
    """The canonical text of a batch as ASCII bytes, yielded one block of
    ``_FORMAT_BLOCK`` walks at a time.

    A block is one (walks x words) uint64 array: the constant pieces of a
    record are NUL-padded words, each integer takes its field's number of
    six-digit group words, gathered from one digit table sized by the
    largest magnitude, and ``bytes.translate`` drops the padding. No integer
    becomes a Python object.
    """
    m = nodes.shape[0]
    if m == 0:
        yield b"\n"
        return
    fields = (np.arange(m)[:, None], nodes, edge_slots, mask)
    largest = [max(int(f.max()), -int(f.min())) if f.size else 0 for f in fields]
    row, parts = [_RECORD[0]], []
    for field, top, piece in zip(fields, largest, _RECORD[1:]):
        n, groups = field.shape[1], -(-len(str(top)) // 6)
        lead = np.full(n, _COMMA)
        lead[:1] = 0                      # no separator before a list's first entry
        start = sum(r.size for r in row)
        parts.append((field, slice(start, start + n * groups), n, groups, lead))
        row += [np.zeros(n * groups, dtype=np.uint64), piece]
    cells = np.empty((min(m, _FORMAT_BLOCK), sum(r.size for r in row)), dtype=np.uint64)
    cells[:] = np.concatenate(row)
    table = _digit_table(max(largest))
    for i in range(0, m, _FORMAT_BLOCK):
        k = min(_FORMAT_BLOCK, m - i)
        for field, cols, n, groups, lead in parts:
            values = np.asarray(field[i:i + k], dtype=np.int64)
            _put_ints(cells[:k, cols].reshape(k, n, groups), values, table, lead)
        yield cells[:k].tobytes().translate(None, b"\0")


# Every byte but a digit or "-" becomes a space, leaving the integers of a
# walks file as one whitespace-separated list.
_DIGITS_ONLY = bytes(c if c in b"0123456789-" else 0x20 for c in range(256))


def _read_canonical(text: str) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """(nodes, edge_slots, mask) of text that :func:`_format_walks` wrote, or
    None for any other text.

    The integers are read in one pass, and the arrays are accepted only if
    :func:`_format_walks` gives ``text`` back byte for byte, compared block
    by block as it formats. ``np.fromstring`` alone would also accept
    leading zeros, ``"1 - 2"``, and integers past int64 (it saturates them);
    the rewrite rejects all of those.
    """
    m = text.count("\n")
    if m == 0 or not text.isascii():
        return None
    try:
        ints = np.fromstring(text.encode("ascii").translate(_DIGITS_ONLY),
                             dtype=np.int64, sep=" ")
    except ValueError:  # a "-" that does not start a number
        return None
    if ints.size % (3 * m) or ints.size == 0:
        return None
    table = ints.reshape(m, -1)
    l1 = table.shape[1] // 3
    nodes, slots, mask = table[:, 1:l1 + 1], table[:, l1 + 1:2 * l1], table[:, 2 * l1:]
    end = 0
    for block in _format_walks(nodes, slots, mask):
        if not text.startswith(block.decode("ascii"), end):
            return None
        end += len(block)
    if end != len(text):
        return None
    # Contiguous copies: column views would keep the whole table alive, walk
    # ids included, and give the encoder strided rows.
    return nodes.copy(), slots.copy(), mask.copy()


def walks_to_jsonl(batch: WalkBatch) -> str:
    """Serialize a batch as JSON lines, one record per walk.

    Record ``j`` is ``{"walk_id":j,"nodes":[...],"edge_slots":[...],"mask":[...]}``
    with compact separators, the mask as 0/1, and a ``\\n`` after every record;
    a batch with no walks gives ``"\\n"``. Each line equals
    ``json.dumps(record, separators=(",", ":"))`` for any int64 entries. The
    text is built by :func:`_format_walks`, the formatter whose output the
    reader checks canonical text against.
    """
    return b"".join(_format_walks(batch.nodes, batch.edge_slots, batch.mask)).decode("ascii")


def _int_rows(rows: list, name: str) -> np.ndarray:
    """Stack per-walk lists into an (m, k) int64 array; anything but flat
    lists of integers raises ParseError."""
    try:
        arr = np.asarray(rows)
    except (ValueError, OverflowError):  # ragged nesting, or an integer past int64
        raise ParseError(f"walk {name} must be flat lists of integers") from None
    if arr.ndim != 2 or (arr.size and arr.dtype.kind != "i"):
        raise ParseError(f"walk {name} must be flat lists of integers")
    return arr.astype(np.int64, copy=False)


def _read_records(text: str) -> tuple[list, list, list]:
    """Per-row lists of (nodes, edge_slots, mask), one JSON record per line."""
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
            if length is None:
                length = len(row_nodes) - 1
            same = (len(row_nodes) == length + 1 and len(row_slots) == length
                    and len(row_mask) == length + 1)
        except (json.JSONDecodeError, KeyError, TypeError):
            raise ParseError(f"line {lineno}: malformed walk record") from None
        if not same:
            raise ParseError(f"line {lineno}: inconsistent walk lengths")
        # numpy reads a bool among ints as 0/1; only lines that spell one
        # need the per-element check.
        if ("true" in line or "false" in line) and any(
                isinstance(v, bool) for row in (row_nodes, row_slots, row_mask) for v in row):
            raise ParseError(f"line {lineno}: walk entries must be integers, not booleans")
        nodes.append(row_nodes)
        slots.append(row_slots)
        mask.append(row_mask)
    if length is None:
        raise ParseError("empty walks file")
    return nodes, slots, mask


def walks_from_jsonl(text: str) -> WalkBatch:
    """Parse a walks file.

    Text in the form :func:`walks_to_jsonl` writes is read in one vectorised
    pass. Any other text, such as other separators or key order, blank lines,
    or a missing final newline, is parsed one JSON record per line; the
    result is the same, and so is every error.

    Raises
    ------
    ParseError
        If a record is malformed, the walks differ in length, a node, slot or
        mask entry is not an integer (JSON ``true``/``false`` included), a
        mask entry is not 0 or 1, or a mask row is neither all 1s nor a 1
        followed by 0s.
    """
    rows = _read_canonical(text) or _read_records(text)
    nodes = _int_rows(rows[0], "nodes")
    mask = _int_rows(rows[2], "mask")
    if np.any((mask != 0) & (mask != 1)):
        raise ParseError("walk mask entries must be 0 or 1")
    if not mask[:, 0].all() or np.any(mask[:, 1:] != mask[:, 1:2]):
        raise ParseError("walk mask must be all 1s, or a 1 followed by 0s")
    return WalkBatch(nodes=nodes, edge_slots=_int_rows(rows[1], "edge_slots"),
                     mask=mask.astype(bool))
