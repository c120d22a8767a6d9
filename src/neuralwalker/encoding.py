"""Positional encodings of random walks.

For a walk ``w_0 .. w_l`` two binary matrices describe its self-structure:

* identity encoding, shape (l+1, s): column ``j`` flags ``w_i == w_{i-j-1}``,
  i.e. "the walk revisits the node it saw j+1 steps ago";
* adjacency encoding, shape (l+1, s-1): column ``j`` flags
  ``(w_i, w_{i-j-1})`` being an edge.

Entries whose lookback leaves the walk (``i - j - 1 < 0``) or touches a
pad-masked position are zero. The window ``s`` bounds how far back the
comparisons reach; the full walk feature matrix uses ``s = l``, and the model
reads both blocks, ``2s - 1`` columns, as its positional encoding.
"""

from __future__ import annotations

import numpy as np

from .errors import BadWindow, ShapeError
from .graphs import Graph
from .sampling import WalkBatch

__all__ = [
    "encode_batch",
    "walk_feature_matrix",
    "count_triangle_flags",
]


def _id_adj(graph: Graph, nodes: np.ndarray, mask: np.ndarray,
            window: int) -> tuple[np.ndarray, np.ndarray]:
    """Batched identity/adjacency encodings.

    nodes: (m, l+1) int64; mask: (m, l+1) bool. Returns float64 arrays of
    shapes (m, l+1, s) and (m, l+1, s-1).
    """
    m, n_pos = nodes.shape
    s = window
    ident = np.zeros((m, n_pos, s), dtype=np.float64)
    adjac = np.zeros((m, n_pos, max(s - 1, 0)), dtype=np.float64)
    for j in range(min(s, n_pos - 1)):
        offset = j + 1
        a = nodes[:, offset:]
        b = nodes[:, :-offset]
        ok = mask[:, offset:] & mask[:, :-offset]
        ident[:, offset:, j] = (a == b) & ok
        if j < s - 1:
            adjac[:, offset:, j] = graph.has_edges(a, b) & ok
    return ident, adjac


def encode_batch(graph: Graph, batch: WalkBatch,
                 window: int) -> tuple[np.ndarray, np.ndarray]:
    """Identity and adjacency encodings of every walk in a batch, of shapes
    (m, l+1, window) and (m, l+1, window-1).

    Raises
    ------
    BadWindow
        If ``window < 1``.
    """
    if int(window) < 1:
        raise BadWindow(f"encoding window must be >= 1, got {window}")
    return _id_adj(graph, batch.nodes, batch.mask, int(window))


def walk_feature_matrix(graph: Graph, batch: WalkBatch,
                        window: int | None = None) -> np.ndarray:
    """Full per-position feature rows ``[x(w_i) | z(w_i w_{i+1}) | id | adj]``.

    The edge block of the final position is zero (there is no outgoing step),
    as are all blocks of pad-masked positions. ``window`` defaults to the walk
    length ``l``, giving a feature width of ``d + d' + 2*l - 1``.

    Returns
    -------
    ndarray of float64, shape (m, l+1, d + d' + window + window - 1)
    """
    l = batch.length
    ident, adjac = encode_batch(graph, batch, l if window is None else window)
    m = batch.n_walks
    node_block = graph.node_features[batch.nodes]  # (m, l+1, d)
    edge_block = np.zeros((m, l + 1, graph.edge_dim), dtype=np.float64)
    if graph.edge_dim and graph.n_slots:
        step_ok = batch.step_mask() & (batch.edge_slots >= 0)
        safe_slots = np.where(step_ok, batch.edge_slots, 0)
        edge_block[:, :l, :] = graph.edge_features[safe_slots] * step_ok[:, :, None]
    x = np.concatenate([node_block, edge_block, ident, adjac], axis=2)
    return x * batch.mask[:, :, None]


def count_triangle_flags(graph: Graph, walk_nodes: np.ndarray) -> int:
    """Sum of the closing-adjacency flag over a set of length-2 walks.

    ``walk_nodes`` must hold complete walks of length 2 (shape (N, 3)); the
    flag of walk ``(u, v, w)`` is 1 iff ``w`` and ``u`` are adjacent, i.e. the
    walk closes a triangle. On the complete set of length-2 walks of a simple
    undirected graph the sum equals six times the triangle count (each
    triangle is traversed from 3 starts in 2 directions).
    """
    walk_nodes = np.asarray(walk_nodes, dtype=np.int64)
    if walk_nodes.ndim != 2 or walk_nodes.shape[1] != 3:
        raise ShapeError(f"expected (N, 3) length-2 walks, got {walk_nodes.shape}")
    mask = np.ones_like(walk_nodes, dtype=bool)
    # Window 3 so the offset-2 comparison (w_2 vs w_0) has a column.
    _, adjac = _id_adj(graph, walk_nodes, mask, 3)
    return int(adjac[:, 2, 1].sum())
