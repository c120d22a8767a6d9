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

The two blocks are written side by side into one (m, l+1, 2s - 1) buffer.
Both compare each position with a (m, l+1, k) view of the ``k = min(s, l)``
nodes before it, so columns past the walk stay zero and a window wider than
the walk adds no comparisons. The identity block is one broadcast ``==`` and the
adjacency block one broadcast ``Graph.has_edges`` call per batch.
:func:`walk_feature_matrix` passes the tail columns of its own output as that
buffer, so the feature matrix is built in place, without a concatenation.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import BadWindow, ShapeError
from .graphs import Graph
from .sampling import WalkBatch

__all__ = [
    "encode_batch",
    "walk_feature_matrix",
    "count_triangle_flags",
]


def _check_window(window) -> int:
    if int(window) < 1:
        raise BadWindow(f"encoding window must be >= 1, got {window}")
    return int(window)


def _id_adj(graph: Graph, nodes: np.ndarray, mask: np.ndarray, window: int,
            out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Batched identity/adjacency encodings.

    nodes: (m, l+1) int64; mask: (m, l+1) bool. The flags go into ``out``, a
    zero-filled float64 block of shape (m, l+1, 2*s - 1) (allocated when not
    given); returns its views of shapes (m, l+1, s) and (m, l+1, s-1).
    """
    m, n_pos = nodes.shape
    s = window
    if out is None:
        out = np.zeros((m, n_pos, 2 * s - 1), dtype=np.float64)
    ident, adjac = out[:, :, :s], out[:, :, s:]
    k = min(s, n_pos - 1)
    back = _lookbacks(nodes, k)
    ok = _lookbacks(mask, k) & mask[:, :, None]
    here = nodes[:, :, None]
    ident[:, :, :k] = (here == back) & ok
    k_adj = min(s - 1, k)
    adjac[:, :, :k_adj] = graph.has_edges(here, back[:, :, :k_adj]) & ok[:, :, :k_adj]
    return ident, adjac


def _lookbacks(a: np.ndarray, k: int) -> np.ndarray:
    """(m, n, k) read-only view of an (m, n) array whose entry ``[:, i, j]`` is
    ``a[:, i - j - 1]``, or zero (False) where that lies before the start."""
    padded = np.concatenate([np.zeros((a.shape[0], k), dtype=a.dtype), a], axis=1)
    return sliding_window_view(padded, k, axis=1)[:, :a.shape[1], ::-1]


def encode_batch(graph: Graph, batch: WalkBatch,
                 window: int) -> tuple[np.ndarray, np.ndarray]:
    """Identity and adjacency encodings of every walk in a batch, of shapes
    (m, l+1, window) and (m, l+1, window-1).

    Raises
    ------
    BadWindow
        If ``window < 1``.
    """
    return _id_adj(graph, batch.nodes, batch.mask, _check_window(window))


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
    s = _check_window(l if window is None else window)
    d, de = graph.node_dim, graph.edge_dim
    x = np.zeros((batch.n_walks, l + 1, d + de + 2 * s - 1), dtype=np.float64)
    # Masked entries are feature * 0.0, which keeps the sign of a negative feature.
    np.multiply(graph.node_features[batch.nodes], batch.mask[:, :, None], out=x[:, :, :d])
    if de and graph.n_slots:
        # A walks file may mask a position whose outgoing step is real.
        step_ok = batch.step_mask() & batch.mask[:, :l] & (batch.edge_slots >= 0)
        safe_slots = np.where(step_ok, batch.edge_slots, 0)
        np.multiply(graph.edge_features[safe_slots], step_ok[:, :, None],
                    out=x[:, :l, d:d + de])
    _id_adj(graph, batch.nodes, batch.mask, s, out=x[:, :, d + de:])
    return x


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
