"""Graph containers, text-file I/O, and synthetic graph families.

The central type is :class:`Graph`, an immutable CSR adjacency structure with
optional dense node/edge features. Undirected graphs store both orientations of
every edge as separate *slots* that share one feature row, so samplers and
message passing can treat every graph as a set of directed arcs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

@dataclass(frozen=True)
class Graph:
    """Immutable graph in CSR form.

    Attributes
    ----------
    n_nodes : int
        Number of nodes, indexed ``0 .. n_nodes-1``.
    directed : bool
        When False, every edge occupies two slots (both orientations) whose
        feature rows are equal.
    row_offsets : ndarray of int64, shape (n_nodes + 1,)
        CSR offsets; the slots of node ``v`` are ``row_offsets[v]:row_offsets[v+1]``.
    col_indices : ndarray of int64, shape (n_slots,)
        Slot targets, sorted ascending inside each row.
    slot_src : ndarray of int64, shape (n_slots,)
        Slot sources (``slot_src[s]`` is the row that owns slot ``s``).
    node_features : ndarray of float64, shape (n_nodes, node_dim)
    edge_features : ndarray of float64, shape (n_slots, edge_dim)
        Per-slot feature rows; mirrored slots of an undirected edge carry
        identical values.
    """

    n_nodes: int
    directed: bool
    row_offsets: np.ndarray
    col_indices: np.ndarray
    slot_src: np.ndarray
    node_features: np.ndarray
    edge_features: np.ndarray
    # Sorted (src * n + dst) keys; strictly increasing because slots are sorted
    # by (src, dst). Enables O(log E) vectorized edge membership and slot lookup.
    _slot_keys: np.ndarray = field(repr=False, default=None)

    def __post_init__(self) -> None:
        if self._slot_keys is None:
            keys = self.slot_src.astype(np.int64) * max(self.n_nodes, 1) + self.col_indices
            object.__setattr__(self, "_slot_keys", keys)

    # --- sizes -----------------------------------------------------------------

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
        key = u * self.n_nodes + v
        pos = int(np.searchsorted(self._slot_keys, key))
        if pos == self.n_slots or self._slot_keys[pos] != key:
            raise BadIndex(f"no edge slot {u} -> {v}")
        return pos

    def has_edge(self, u: int, v: int) -> bool:
        self._check_node(u)
        self._check_node(v)
        key = u * self.n_nodes + v
        pos = int(np.searchsorted(self._slot_keys, key))
        return pos < self.n_slots and self._slot_keys[pos] == key

    def has_edges(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Vectorized ``has_edge`` over equally-shaped index arrays."""
        keys = np.asarray(u, dtype=np.int64) * self.n_nodes + np.asarray(v, dtype=np.int64)
        pos = np.searchsorted(self._slot_keys, keys)
        pos_clamped = np.minimum(pos, self.n_slots - 1) if self.n_slots else pos * 0
        if self.n_slots == 0:
            return np.zeros(keys.shape, dtype=bool)
        return self._slot_keys[pos_clamped] == keys

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
    edge_arr = np.asarray(list(edges), dtype=np.int64).reshape(-1, 2)
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

    if n_in:
        u, v = edge_arr[:, 0], edge_arr[:, 1]
        if np.any(u == v):
            bad = int(u[np.argmax(u == v)])
            raise SelfLoopEdge(f"self-loop at node {bad}")
        if np.any((edge_arr < 0) | (edge_arr >= n_nodes)):
            flat = edge_arr.ravel()
            bad = int(flat[np.argmax((flat < 0) | (flat >= n_nodes))])
            raise BadIndex(f"edge endpoint {bad} out of range [0, {n_nodes})")
        # Duplicate detection on canonical keys: ordered pair for directed
        # graphs, sorted pair otherwise (so (u,v) and (v,u) collide).
        if directed:
            keys = u * n_nodes + v
        else:
            lo, hi = np.minimum(u, v), np.maximum(u, v)
            keys = lo * n_nodes + hi
        uniq, counts = np.unique(keys, return_counts=True)
        if np.any(counts > 1):
            k = int(uniq[np.argmax(counts > 1)])
            raise DuplicateEdge(f"edge ({k // n_nodes}, {k % n_nodes}) given twice")

    if directed or n_in == 0:
        src, dst = edge_arr[:, 0], edge_arr[:, 1]
        feats = edge_features
    else:
        src = np.concatenate([edge_arr[:, 0], edge_arr[:, 1]])
        dst = np.concatenate([edge_arr[:, 1], edge_arr[:, 0]])
        feats = np.concatenate([edge_features, edge_features], axis=0)

    order = np.lexsort((dst, src))
    src, dst, feats = src[order], dst[order], feats[order]
    row_offsets = np.zeros(n_nodes + 1, dtype=np.int64)
    if src.shape[0]:
        np.cumsum(np.bincount(src, minlength=n_nodes), out=row_offsets[1:])
    return Graph(
        n_nodes=n_nodes,
        directed=directed,
        row_offsets=row_offsets,
        col_indices=np.ascontiguousarray(dst),
        slot_src=np.ascontiguousarray(src),
        node_features=node_features,
        edge_features=np.ascontiguousarray(feats),
    )


def is_connected(graph: Graph) -> bool:
    """BFS connectivity over slots, ignoring direction. Empty graphs count as connected."""
    n = graph.n_nodes
    if n <= 1:
        return True
    if graph.directed:
        # Symmetrize for reachability purposes.
        undirected_deg = np.bincount(
            np.concatenate([graph.slot_src, graph.col_indices]), minlength=n
        )
        if np.any(undirected_deg == 0):
            return False
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    frontier = np.array([0], dtype=np.int64)
    # For directed graphs build a symmetric neighbor lookup once.
    if graph.directed:
        src = np.concatenate([graph.slot_src, graph.col_indices])
        dst = np.concatenate([graph.col_indices, graph.slot_src])
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=offsets[1:])
    else:
        offsets, dst = graph.row_offsets, graph.col_indices
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
    edges = []
    feats = []
    for g, off in zip(graphs, offsets[:-1]):
        if g.directed:
            pairs = np.stack([g.slot_src, g.col_indices], axis=1)
            f = g.edge_features
        else:
            keep = g.slot_src < g.col_indices
            pairs = np.stack([g.slot_src[keep], g.col_indices[keep]], axis=1)
            f = g.edge_features[keep]
        edges.append(pairs + off)
        feats.append(f)
    union = build_graph(
        int(offsets[-1]),
        np.concatenate(edges) if edges else np.zeros((0, 2), dtype=np.int64),
        node_features=np.concatenate([g.node_features for g in graphs]),
        edge_features=np.concatenate(feats),
        directed=directed,
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


def load_graph(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_graph(fh.read())


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
    """G(n, p) with a seeded PCG64 stream; optionally resample until connected."""
    rng = np.random.default_rng(seed)
    for _ in range(max_tries):
        iu, ju = np.triu_indices(n, k=1)
        mask = rng.random(iu.shape[0]) < p
        edges = np.stack([iu[mask], ju[mask]], axis=1)
        g = build_graph(n, edges, node_features=_unit_features(n) if with_features else None)
        if not require_connected or is_connected(g):
            return g
    raise Unsupported(
        f"no connected G({n}, {p}) sample in {max_tries} tries; raise p or max_tries"
    )


def random_regular_graph(n: int, d: int, seed: int) -> Graph:
    """Random d-regular simple connected graph (d even, d < n).

    Construction: union of d/2 independent random Hamiltonian cycles. Duplicate
    edges between cycles are repaired by 2-opt swaps inside the later cycle;
    the first cycle is never edited, which keeps the result connected.
    """
    if d % 2 != 0 or d <= 0:
        raise Unsupported(f"random_regular_graph needs even positive degree, got {d}")
    if d >= n:
        raise Unsupported(f"degree {d} too large for {n} nodes")
    rng = np.random.default_rng(seed)

    def cycle_pairs(perm: np.ndarray) -> np.ndarray:
        nxt = np.roll(perm, -1)
        lo, hi = np.minimum(perm, nxt), np.maximum(perm, nxt)
        return np.stack([lo, hi], axis=1)

    cycles = [rng.permutation(n) for _ in range(d // 2)]
    edge_set = {(int(a), int(b)) for a, b in cycle_pairs(cycles[0])}
    all_pairs = [cycle_pairs(cycles[0])]
    for perm in cycles[1:]:
        pairs = [tuple(int(x) for x in row) for row in cycle_pairs(perm)]
        for _ in range(200):
            dup_positions = [i for i, pr in enumerate(pairs) if pr in edge_set]
            # Also repair duplicates *within* this cycle's pair list.
            seen: dict[tuple, int] = {}
            for i, pr in enumerate(pairs):
                if pr in seen and i not in dup_positions:
                    dup_positions.append(i)
                seen.setdefault(pr, i)
            if not dup_positions:
                break
            for i in dup_positions:
                a, b = pairs[i]
                for _ in range(50):
                    j = int(rng.integers(len(pairs)))
                    x, y = pairs[j]
                    if len({a, b, x, y}) < 4:
                        continue
                    p1 = (min(a, x), max(a, x))
                    p2 = (min(b, y), max(b, y))
                    if p1 in edge_set or p2 in edge_set or p1 == p2:
                        continue
                    pairs[i], pairs[j] = p1, p2
                    break
        else:
            raise Unsupported("could not repair duplicate edges; lower d or change seed")
        if any(pr in edge_set for pr in pairs) or len(set(pairs)) != len(pairs):
            raise Unsupported("could not repair duplicate edges; lower d or change seed")
        edge_set.update(pairs)
        all_pairs.append(np.asarray(pairs, dtype=np.int64))
    edges = np.concatenate(all_pairs, axis=0)
    return build_graph(n, edges)
