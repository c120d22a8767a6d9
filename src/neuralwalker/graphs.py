"""Graph containers, text-file I/O, and synthetic graph families.

The central type is :class:`Graph`, an immutable CSR adjacency structure with
optional dense node/edge features. Undirected graphs store both orientations of
every edge as separate *slots* that share one feature row, so samplers and
message passing can treat every graph as a set of directed arcs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import BadIndex, DuplicateEdge, ParseError, SelfLoopEdge, Unsupported

__all__ = [
    "Graph",
    "build_graph",
    "load_graph",
    "save_graph",
    "loads_graph",
    "dumps_graph",
    "is_connected",
    "disjoint_union",
    "path_graph",
    "cycle_graph",
    "complete_graph",
    "star_graph",
    "erdos_renyi_graph",
    "random_regular_graph",
]


# =============================================================================
# Core container
# =============================================================================

# Longest CSR row ``Graph.has_edges`` scans; longer rows take the lower bound.
# On 20k-node random regular graphs, each source queried against 7 targets, the
# scan took 0.33x the lower bound's time at degree 4, 0.79x at 16, 0.96x at 20
# and 1.11x at 24 (2-vCPU VM).
_SCAN_DEGREE = 16


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable graph in CSR form.

    Attributes
    ----------
    directed : bool
        When False, every edge occupies two slots (both orientations) whose
        feature rows are equal.
    row_offsets : ndarray of int64, shape (n_nodes + 1,)
        CSR offsets; the slots of node ``v`` are ``row_offsets[v]:row_offsets[v+1]``.
    col_indices : ndarray of int64, shape (n_slots,)
        Slot targets, sorted ascending inside each row.
    node_features : ndarray of float64, shape (n_nodes, node_dim)
    edge_features : ndarray of float64, shape (n_slots, edge_dim)
        Per-slot feature rows; mirrored slots of an undirected edge carry
        identical values.

    Derived: ``n_nodes`` (nodes are ``0 .. n_nodes-1``) and ``n_slots`` from the
    array lengths, ``node_dim`` and ``edge_dim`` from the feature widths, and
    ``slot_src`` (the row that owns each slot) from ``row_offsets``, once.

    Edge lookups search the sorted CSR row of the source node. ``has_edge``,
    ``edge_slot`` and the sampler's slot lookups cost about log2(max degree)
    steps a query. ``has_edges`` reads each row of at most ``_SCAN_DEGREE``
    slots once for all the targets its source is queried against, so such a
    source queried against k targets costs L gathers and L * k comparisons,
    L being the longest scanned row; longer rows are searched.

    Graphs compare and hash by identity: ``g == h`` only when ``g is h``.
    """

    directed: bool
    row_offsets: np.ndarray
    col_indices: np.ndarray
    node_features: np.ndarray
    edge_features: np.ndarray

    # --- sizes -----------------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return self.row_offsets.shape[0] - 1

    @property
    def n_slots(self) -> int:
        return int(self.col_indices.shape[0])

    @property
    def n_edges(self) -> int:
        """Logical edge count (slot pairs count once when undirected)."""
        return self.n_slots if self.directed else self.n_slots // 2

    @property
    def node_dim(self) -> int:
        return int(self.node_features.shape[1])

    @property
    def edge_dim(self) -> int:
        return int(self.edge_features.shape[1])

    # --- adjacency queries -------------------------------------------------------

    def degree(self, v: int) -> int:
        """Out-degree of ``v`` (plain degree for undirected graphs)."""
        self._check_node(v)
        return int(self.row_offsets[v + 1] - self.row_offsets[v])

    def degrees(self) -> np.ndarray:
        """All degrees as an int64 vector."""
        return np.diff(self.row_offsets)

    def neighbors(self, v: int) -> np.ndarray:
        """Targets of ``v``'s slots, sorted ascending. Read-only view."""
        self._check_node(v)
        return self.col_indices[self.row_offsets[v]:self.row_offsets[v + 1]]

    def edge_slot(self, u: int, v: int) -> int:
        """Slot index of arc ``u -> v``.

        Raises
        ------
        BadIndex
            If either endpoint is out of range or the arc does not exist.
        """
        self._check_node(u)
        self._check_node(v)
        slot = int(self._find_slots(u, v))
        if slot < 0:
            raise BadIndex(f"no edge slot {u} -> {v}")
        return slot

    def has_edge(self, u: int, v: int) -> bool:
        self._check_node(u)
        self._check_node(v)
        return bool(self._find_slots(u, v) >= 0)

    def has_edges(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Vectorized ``has_edge``: ``u`` broadcast against ``v``.

        ``v`` may hold any integers. Rows of at most ``_SCAN_DEGREE`` slots
        are scanned column by column: slot ``c`` of every source's row is
        gathered once, at ``u``'s shape, and compared with ``v`` at the
        broadcast shape, for ``c`` up to the longest scanned row. Rows past
        their end read -1, which the final ``v >= 0`` keeps from matching a
        -1 in ``v``. The queries of longer rows take the lower bound of
        ``_find_slots`` on the broadcast arrays instead, all of them at once
        when no queried row is short enough to scan.

        Returns
        -------
        ndarray of bool, of the broadcast shape of ``u`` and ``v``

        Raises
        ------
        BadIndex
            If a source in ``u`` lies outside ``[0, n_nodes)``.
        """
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        self._check_sources(u)
        found = np.zeros(np.broadcast_shapes(u.shape, v.shape), dtype=bool)
        if self.n_slots == 0 or found.size == 0:
            return found
        start = self.row_offsets[u]
        row_len = self.row_offsets[u + 1] - start
        scanned = row_len <= _SCAN_DEGREE
        if not scanned.any():
            return self._find_slots(*np.broadcast_arrays(u, v)) >= 0
        for c in range(int(row_len.max(initial=0, where=scanned))):
            found |= np.where(c < row_len, self.col_indices.take(start + c, mode="clip"), -1) == v
        if v.min() < 0:
            found &= v >= 0
        if not scanned.all():
            searched = np.broadcast_to(~scanned, found.shape)
            u, v = np.broadcast_arrays(u, v)
            found[searched] = self._find_slots(u[searched], v[searched]) >= 0
        return found

    def _find_slots(self, u, v) -> np.ndarray:
        """CSR slot of each arc ``u -> v``, or -1 where there is none.

        ``v`` may hold any integers, of the same shape as ``u``. Branch-free
        lower bound inside each sorted row: ``pos`` moves from the row start
        past the entries below ``v``, in steps that halve from the largest
        power of two not above the longest queried row, so every query takes
        the same log2(max degree) + 1 vectorized passes.

        Raises
        ------
        BadIndex
            If a source in ``u`` lies outside ``[0, n_nodes)``.
        """
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        self._check_sources(u)
        if self.n_slots == 0 or u.size == 0:
            return np.full(u.shape, -1, dtype=np.int64)
        col = self.col_indices
        pos = self.row_offsets[u]
        end = self.row_offsets[u + 1]
        step = 1 << max(int((end - pos).max()).bit_length() - 1, 0)
        while step:
            probe = pos + (step - 1)
            below = probe < end
            below &= col.take(probe, mode="clip") < v
            pos += below * step
            step >>= 1
        found = pos < end
        found &= col.take(pos, mode="clip") == v
        return np.where(found, pos, -1)

    @cached_property
    def slot_src(self) -> np.ndarray:
        """(n_slots,) int64: the source node of each slot, the row that owns it."""
        return np.repeat(np.arange(self.n_nodes, dtype=np.int64), self.degrees())

    @cached_property
    def _reverse_slots(self) -> np.ndarray:
        """(n_slots + 1,) int64: entry ``s`` is the slot of the arc back along
        slot ``s``, or -1 where the graph has none; the last entry, -1, is the
        entry of slot -1 (no arc taken). Built by one ``_find_slots`` call on
        first use and kept, as the graph never changes."""
        return np.append(self._find_slots(self.col_indices, self.slot_src), -1)

    def _check_sources(self, u: np.ndarray) -> None:
        if u.size and (u.min() < 0 or u.max() >= self.n_nodes):
            raise BadIndex(f"edge query source outside [0, {self.n_nodes})")

    def _check_node(self, v: int) -> None:
        if not (0 <= v < self.n_nodes):
            raise BadIndex(f"node {v} out of range [0, {self.n_nodes})")


# =============================================================================
# Construction
# =============================================================================

def build_graph(
    n_nodes: int,
    edges,
    node_features=None,
    edge_features=None,
    directed: bool = False,
) -> Graph:
    """Validate an edge list and assemble the CSR structure.

    This is the entry point for edges from outside the program (files, user
    code, the oracle's enumerations): every check under Raises runs on them.
    The generators ``erdos_renyi_graph`` and ``random_regular_graph`` make
    their edges as unique keys and pass them straight to the same assembly.

    Parameters
    ----------
    n_nodes : int
        Node count; nodes are ``0 .. n_nodes-1``.
    edges : sequence of (int, int)
        One entry per logical edge. For undirected graphs either orientation
        may be given; the mirror slot is added automatically.
    node_features : array-like of shape (n_nodes, d), optional
        Defaults to a zero-width matrix.
    edge_features : array-like of shape (len(edges), d'), optional
        One row per entry of ``edges``; mirrored onto both slots. Defaults to
        a zero-width matrix.
    directed : bool

    Raises
    ------
    SelfLoopEdge
        For any edge ``u -- u``.
    BadIndex
        For an endpoint outside ``[0, n_nodes)``.
    DuplicateEdge
        If the same arc (directed) or node pair (undirected) appears twice.
    """
    if n_nodes < 0:
        raise BadIndex(f"n_nodes must be >= 0, got {n_nodes}")
    if not isinstance(edges, np.ndarray):
        edges = list(edges)
    edge_arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    n_in = edge_arr.shape[0]

    if node_features is None:
        node_features = np.zeros((n_nodes, 0), dtype=np.float64)
    node_features = np.ascontiguousarray(node_features, dtype=np.float64)
    if node_features.shape[0] != n_nodes:
        raise BadIndex(
            f"node_features has {node_features.shape[0]} rows for {n_nodes} nodes"
        )
    if edge_features is None:
        edge_features = np.zeros((n_in, 0), dtype=np.float64)
    edge_features = np.ascontiguousarray(edge_features, dtype=np.float64)
    if edge_features.shape[0] != n_in:
        raise BadIndex(
            f"edge_features has {edge_features.shape[0]} rows for {n_in} edges"
        )

    u, v = edge_arr[:, 0], edge_arr[:, 1]
    # Canonical keys: ordered pair for directed graphs, sorted pair otherwise
    # (so (u,v) and (v,u) collide).
    if directed:
        keys = u * n_nodes + v
    else:
        keys = np.minimum(u, v) * n_nodes + np.maximum(u, v)
    if n_in:
        if np.any(u == v):
            bad = int(u[np.argmax(u == v)])
            raise SelfLoopEdge(f"self-loop at node {bad}")
        if np.any((edge_arr < 0) | (edge_arr >= n_nodes)):
            flat = edge_arr.ravel()
            bad = int(flat[np.argmax((flat < 0) | (flat >= n_nodes))])
            raise BadIndex(f"edge endpoint {bad} out of range [0, {n_nodes})")
        uniq, counts = np.unique(keys, return_counts=True)
        if np.any(counts > 1):
            k = int(uniq[np.argmax(counts > 1)])
            raise DuplicateEdge(f"edge ({k // n_nodes}, {k % n_nodes}) given twice")
    return _assemble(n_nodes, keys, directed, node_features, edge_features)


def _assemble(n_nodes: int, keys: np.ndarray, directed: bool = False,
              node_features=None, edge_features=None) -> Graph:
    """The CSR graph of unique edge keys, without validating them.

    ``keys`` are int64 ``u * n_nodes + v`` per arc when ``directed``, else
    ``lo * n_nodes + hi`` per edge, all distinct and in ``[0, n_nodes**2)``.
    ``edge_features`` has one row per key, and an undirected edge's mirror key
    ``hi * n_nodes + lo`` gets the same row; missing features are zero-width.
    Sorting the slot keys gives the lexicographic slot order, as the keys are
    unique; the row lengths are the counts of each source. Callers own the
    checks: ``build_graph`` validates edges from outside, and the generators
    hand over the keys they made.
    """
    if node_features is None:
        node_features = np.zeros((n_nodes, 0))
    if edge_features is None:
        edge_features = np.zeros((keys.shape[0], 0))
    if not directed:
        keys = np.concatenate([keys, keys % n_nodes * n_nodes + keys // n_nodes])
        edge_features = np.concatenate([edge_features, edge_features])
    order = np.argsort(keys)
    keys, edge_features = keys[order], edge_features[order]
    src = keys // n_nodes
    row_offsets = np.zeros(n_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n_nodes), out=row_offsets[1:])
    return Graph(
        directed=directed,
        row_offsets=row_offsets,
        col_indices=keys - src * n_nodes,
        node_features=node_features,
        edge_features=np.ascontiguousarray(edge_features),
    )


def is_connected(graph: Graph) -> bool:
    """BFS connectivity over slots, ignoring direction. Empty graphs count as connected."""
    n = graph.n_nodes
    if n <= 1:
        return True
    if graph.directed:  # BFS the undirected graph on the arcs' node pairs
        src, dst = graph.slot_src, graph.col_indices
        keys = np.unique(np.minimum(src, dst) * n + np.maximum(src, dst))
        graph = _assemble(n, keys)
    offsets, dst = graph.row_offsets, graph.col_indices
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    frontier = np.array([0], dtype=np.int64)
    while frontier.size:
        nxt = []
        for v in frontier:
            nbrs = dst[offsets[v]:offsets[v + 1]]
            fresh = nbrs[~seen[nbrs]]
            if fresh.size:
                seen[fresh] = True
                nxt.append(fresh)
        frontier = np.concatenate(nxt) if nxt else np.empty(0, dtype=np.int64)
    return bool(seen.all())


def disjoint_union(graphs) -> tuple[Graph, np.ndarray]:
    """Block-diagonal union of graphs with shared feature widths.

    The members must be valid graphs, as ``build_graph`` makes them. The
    union's slots are the members' slots in member order, their node indices
    shifted by the member's node offset, so the union equals ``build_graph``
    on the offset edge list without validating, mirroring or sorting it
    again. All of its arrays are fresh: no member array is aliased or
    modified.

    Returns
    -------
    (Graph, ndarray)
        The union graph and the node-index offset of each input graph
        (shape ``(len(graphs) + 1,)``, offsets[i]..offsets[i+1] are graph i's nodes).
    """
    graphs = list(graphs)
    if not graphs:
        raise BadIndex("disjoint_union of zero graphs")
    directed = graphs[0].directed
    d, de = graphs[0].node_dim, graphs[0].edge_dim
    for g in graphs:
        if g.directed != directed or g.node_dim != d or g.edge_dim != de:
            raise Unsupported("disjoint_union requires matching directedness and feature widths")
    offsets = np.zeros(len(graphs) + 1, dtype=np.int64)
    np.cumsum([g.n_nodes for g in graphs], out=offsets[1:])
    slots = np.zeros_like(offsets)
    np.cumsum([g.n_slots for g in graphs], out=slots[1:])
    row_offsets = np.concatenate([g.row_offsets[:-1] for g in graphs] + [slots[-1:]])
    row_offsets[:-1] += np.repeat(slots[:-1], np.diff(offsets))
    shift = np.repeat(offsets[:-1], np.diff(slots))
    union = Graph(
        directed=directed,
        row_offsets=row_offsets,
        col_indices=np.concatenate([g.col_indices for g in graphs]) + shift,
        node_features=np.concatenate([g.node_features for g in graphs]),
        edge_features=np.concatenate([g.edge_features for g in graphs]),
    )
    return union, offsets


# =============================================================================
# Text format
# =============================================================================
#
#   graph <n_nodes> <d> <d'> <directed:0|1>
#   <v> <f_1> ... <f_d>          (exactly n_nodes lines, each node once)
#   <u> <v> <g_1> ... <g_d'>     (one line per logical edge)
#
# '#' starts a comment (whole line or trailing); blank lines are ignored.
# Indices are 0-based. Floats are written with shortest round-trip repr, so
# save -> load is bit-exact.

def _strip(line: str) -> str:
    hash_pos = line.find("#")
    if hash_pos >= 0:
        line = line[:hash_pos]
    return line.strip()


def loads_graph(text: str) -> Graph:
    """Parse the text graph format. See the module docstring for the grammar."""
    header = None
    nodes_seen: dict[int, int] = {}
    node_rows = None
    edges: list[tuple[int, int]] = []
    edge_rows: list[list[float]] = []
    n = d = de = 0
    directed = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        fields = line.split()
        if header is None:
            if fields[0] != "graph" or len(fields) != 5:
                raise ParseError(f"line {lineno}: expected 'graph n d d' directed' header")
            try:
                n, d, de, dir_flag = (int(x) for x in fields[1:])
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer header field") from None
            if n < 0 or d < 0 or de < 0 or dir_flag not in (0, 1):
                raise ParseError(f"line {lineno}: bad header values")
            # Each node record has 1 + d fields of at least one character, so
            # a header the text cannot back is rejected before allocating.
            if n * (1 + d) > len(text):
                raise ParseError(f"line {lineno}: header declares {n} nodes with {d} features, "
                                 f"more than the {len(text)}-character file can hold")
            directed = bool(dir_flag)
            header = True
            node_rows = np.zeros((n, d), dtype=np.float64)
            continue
        if len(nodes_seen) < n:
            if len(fields) != 1 + d:
                raise ParseError(
                    f"line {lineno}: node record needs 1 index + {d} features, got {len(fields)} fields"
                )
            try:
                v = int(fields[0])
                feats = [float(x) for x in fields[1:]]
            except ValueError:
                raise ParseError(f"line {lineno}: malformed node record") from None
            if not (0 <= v < n):
                raise BadIndex(f"line {lineno}: node {v} out of range [0, {n})")
            if v in nodes_seen:
                raise ParseError(f"line {lineno}: node {v} listed twice")
            nodes_seen[v] = lineno
            node_rows[v] = feats
            continue
        if len(fields) != 2 + de:
            raise ParseError(
                f"line {lineno}: edge record needs 2 indices + {de} features, got {len(fields)} fields"
            )
        try:
            u, v = int(fields[0]), int(fields[1])
            feats = [float(x) for x in fields[2:]]
        except ValueError:
            raise ParseError(f"line {lineno}: malformed edge record") from None
        edges.append((u, v))
        edge_rows.append(feats)

    if header is None:
        raise ParseError("empty graph file")
    if len(nodes_seen) < n:
        raise ParseError(f"expected {n} node records, found {len(nodes_seen)}")
    edge_features = np.asarray(edge_rows, dtype=np.float64).reshape(len(edges), de)
    return build_graph(n, edges, node_features=node_rows,
                       edge_features=edge_features, directed=directed)


def dumps_graph(graph: Graph) -> str:
    """Serialize to the text format (canonical slot order, exact floats)."""
    out = [f"graph {graph.n_nodes} {graph.node_dim} {graph.edge_dim} {int(graph.directed)}"]
    for v in range(graph.n_nodes):
        feats = " ".join(repr(float(x)) for x in graph.node_features[v])
        out.append(f"{v} {feats}".rstrip())
    if graph.directed:
        keep = np.arange(graph.n_slots)
    else:
        keep = np.flatnonzero(graph.slot_src < graph.col_indices)
    for s in keep:
        u, v = int(graph.slot_src[s]), int(graph.col_indices[s])
        feats = " ".join(repr(float(x)) for x in graph.edge_features[s])
        out.append(f"{u} {v} {feats}".rstrip())
    return "\n".join(out) + "\n"


def _read_text(path) -> str:
    """The contents of a UTF-8 text file.

    Raises
    ------
    ParseError
        If the bytes are not UTF-8.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text (byte {exc.start})") from None


def load_graph(path) -> Graph:
    return loads_graph(_read_text(path))


def save_graph(graph: Graph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_graph(graph))


# =============================================================================
# Synthetic families
# =============================================================================

def _unit_features(n: int) -> np.ndarray:
    return np.ones((n, 1), dtype=np.float64)


def path_graph(n: int, with_features: bool = False) -> Graph:
    """P_n: nodes 0 - 1 - ... - n-1."""
    edges = [(i, i + 1) for i in range(n - 1)]
    return build_graph(n, edges, node_features=_unit_features(n) if with_features else None)


def cycle_graph(n: int, with_features: bool = False) -> Graph:
    """C_n (requires n >= 3 for a simple cycle)."""
    if n < 3:
        raise Unsupported(f"cycle needs >= 3 nodes, got {n}")
    edges = [(i, (i + 1) % n) for i in range(n)]
    return build_graph(n, edges, node_features=_unit_features(n) if with_features else None)


def complete_graph(n: int, with_features: bool = False) -> Graph:
    """K_n."""
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return build_graph(n, edges, node_features=_unit_features(n) if with_features else None)


def star_graph(n: int, with_features: bool = False) -> Graph:
    """Star on n nodes: center 0 joined to 1..n-1."""
    edges = [(0, i) for i in range(1, n)]
    return build_graph(n, edges, node_features=_unit_features(n) if with_features else None)


def erdos_renyi_graph(
    n: int,
    p: float,
    seed: int,
    with_features: bool = False,
    require_connected: bool = False,
    max_tries: int = 200,
) -> Graph:
    """G(n, p) with a seeded PCG64 stream; optionally resample until connected.

    Every try draws one ``rng.random`` value per node pair ``i < j``, in
    row-major order, and keeps the pairs whose value is below ``p``. With
    ``require_connected`` and ``n > 1``, a try that leaves some node without
    an edge is rejected before any graph is built; a try that covers every
    node is assembled and rejected unless ``is_connected``. Rejected tries of
    either kind count toward ``max_tries``. A try's draws do not depend on
    how an earlier one was rejected, so a seed always yields the same graph.

    Raises
    ------
    BadIndex
        If ``n < 0``.
    Unsupported
        If ``p`` lies outside [0, 1] or is NaN, if ``max_tries < 1``, or if
        no connected sample turns up in ``max_tries`` tries.
    """
    if n < 0:
        raise BadIndex(f"n_nodes must be >= 0, got {n}")
    if not 0.0 <= p <= 1.0:
        raise Unsupported(f"edge probability must lie in [0, 1], got {p}")
    if max_tries < 1:
        raise Unsupported(f"max_tries must be >= 1, got {max_tries}")
    pairs, keys = _small_node_pairs(n) if n <= 64 else _node_pairs(n)
    node_features = _unit_features(n) if with_features else None
    rng = np.random.default_rng(seed)
    for _ in range(max_tries):
        mask = rng.random(keys.shape[0]) < p
        if require_connected and n > 1 and not np.bincount(pairs[:, mask].ravel(),
                                                           minlength=n).all():
            continue
        g = _assemble(n, keys[mask], node_features=node_features)
        if not require_connected or is_connected(g):
            return g
    raise Unsupported(
        f"no connected G({n}, {p}) sample in {max_tries} tries; raise p or max_tries"
    )


def _node_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The node pairs ``i < j`` of ``n`` nodes in row-major order, as a (2, P)
    array and as their ascending keys ``i * n + j``."""
    pairs = np.stack(np.triu_indices(n, k=1))
    keys = pairs[0] * n + pairs[1]
    pairs.setflags(write=False)  # cached and shared by every draw of size n
    keys.setflags(write=False)
    return pairs, keys


# The pairs of the 16 sizes last drawn at up to 64 nodes (at most 2016 pairs,
# 48 kB, a size): dataset builders draw many small graphs of a few sizes.
_small_node_pairs = lru_cache(maxsize=16)(_node_pairs)


def random_regular_graph(n: int, d: int, seed: int) -> Graph:
    """Random d-regular simple connected graph (d even, d < n).

    Construction: union of d/2 independent random Hamiltonian cycles. Duplicate
    edges between cycles are repaired by 2-opt swaps inside the later cycle;
    the first cycle is never edited, which keeps the result connected.

    Each cycle is an int64 array of edge keys ``lo * n + hi``. A repair round
    visits the cycle's duplicates -- its edges found in earlier cycles, then its
    repeats of an edge at a lower position, each in ascending position -- and
    swaps each one with a random partner edge that makes no new duplicate.
    The first cycle has no duplicates, so it draws nothing from ``rng``.
    The repaired keys are unique by construction, so the CSR is assembled
    from them directly, without ``build_graph``'s checks for outside edges.
    """
    if d % 2 != 0 or d <= 0:
        raise Unsupported(f"random_regular_graph needs even positive degree, got {d}")
    if d >= n:
        raise Unsupported(f"degree {d} too large for {n} nodes")
    rng = np.random.default_rng(seed)
    cycles = [rng.permutation(n) for _ in range(d // 2)]
    # Sorted keys of the cycles done, closed by n * n, which no edge key reaches,
    # so a lookup in ``known`` never runs past the end.
    earlier = np.array([n * n])

    def known(keys):
        return earlier[np.searchsorted(earlier, keys)] == keys

    for perm in cycles:
        nxt = np.roll(perm, -1)
        keys = np.minimum(perm, nxt) * n + np.maximum(perm, nxt)
        for _ in range(200):
            hit = known(keys)
            repeat = ~hit
            repeat[np.unique(keys, return_index=True)[1]] = False
            dups = np.concatenate([np.flatnonzero(hit), np.flatnonzero(repeat)])
            if not dups.size:
                break
            for i in dups.tolist():
                a, b = divmod(int(keys[i]), n)
                for _ in range(50):
                    j = int(rng.integers(n))
                    x, y = divmod(int(keys[j]), n)
                    if a in (x, y) or b in (x, y):
                        continue
                    swapped = np.array([min(a, x) * n + max(a, x), min(b, y) * n + max(b, y)])
                    if swapped[0] == swapped[1] or known(swapped).any():
                        continue
                    keys[[i, j]] = swapped
                    break
        else:
            raise Unsupported("could not repair duplicate edges; lower d or change seed")
        earlier = np.sort(np.concatenate([keys, earlier]))
    return _assemble(n, earlier[:-1])
