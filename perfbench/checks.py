"""Correctness checks on walk batches and walk feature matrices.

They run outside the timed region. Each returns a list of problems; an empty
list means the output passed. The feature reference is a plain double loop
over positions and lookbacks with Python neighbour sets, so it shares no code
with the vectorized encoder (``Graph.has_edges`` and ``searchsorted``).
"""

from __future__ import annotations

import numpy as np


def walk_problems(graph, batch, length: int, non_backtracking: bool) -> list[str]:
    """Every real step follows a graph edge through the matching CSR slot,
    masked steps carry slot -1, and no walk steps straight back where a node
    has another neighbour."""
    m = batch.n_walks
    nodes, slots, mask = batch.nodes, batch.edge_slots, batch.mask
    if nodes.shape != (m, length + 1) or slots.shape != (m, length) or mask.shape != nodes.shape:
        return [f"walk arrays have shapes {nodes.shape}, {slots.shape}, {mask.shape}"]
    if nodes.min() < 0 or nodes.max() >= graph.n_nodes:
        return ["walk visits a node outside the graph"]
    problems = []
    step = mask[:, 1:]
    if np.any(slots[~step] != -1):
        problems.append("masked step carries an edge slot")
    taken = slots[step]
    if taken.size and (taken.min() < 0 or taken.max() >= graph.n_slots):
        return problems + ["edge slot outside the graph"]
    if np.any(graph.slot_src[taken] != nodes[:, :-1][step]):
        problems.append("edge slot does not start at the walk's current node")
    if np.any(graph.col_indices[taken] != nodes[:, 1:][step]):
        problems.append("edge slot does not lead to the walk's next node")
    if non_backtracking and length >= 2:
        deg = graph.degrees()[nodes[:, 1:-1]]
        back = step[:, 1:] & (deg >= 2) & (nodes[:, 2:] == nodes[:, :-2])
        if np.any(back):
            problems.append(f"{int(back.sum())} steps backtrack at a node with another neighbour")
    return problems


def roundtrip_problems(before, after) -> list[str]:
    """The JSONL round trip must give back every array bit for bit."""
    problems = []
    for name in ("nodes", "edge_slots", "mask", "start_nodes"):
        a, b = getattr(before, name), getattr(after, name)
        if a.dtype != b.dtype or a.shape != b.shape or a.tobytes() != b.tobytes():
            problems.append(f"JSONL round trip changed {name}")
    if before.length != after.length:
        problems.append("JSONL round trip changed the walk length")
    return problems


def reference_features(graph, nodes, slots, mask, window: int) -> np.ndarray:
    """Feature rows ``[x(w_i) | z(w_i w_{i+1}) | identity | adjacency]`` of one
    walk, position by position and lookback by lookback."""
    n_pos = len(nodes)
    neighbours = {}
    rows = []
    for i in range(n_pos):
        if not mask[i]:
            rows.append([0.0] * (graph.node_dim + graph.edge_dim + 2 * window - 1))
            continue
        row = [float(x) for x in graph.node_features[nodes[i]]]
        if i < n_pos - 1 and mask[i + 1] and slots[i] >= 0:
            row += [float(x) for x in graph.edge_features[slots[i]]]
        else:
            row += [0.0] * graph.edge_dim
        ident, adjac = [], []
        for j in range(window):
            back = i - j - 1
            real = back >= 0 and mask[back]
            ident.append(1.0 if real and nodes[i] == nodes[back] else 0.0)
            if j < window - 1:
                v = int(nodes[i])
                if v not in neighbours:
                    neighbours[v] = set(graph.neighbors(v).tolist())
                adjac.append(1.0 if real and int(nodes[back]) in neighbours[v] else 0.0)
        rows.append(row + ident + adjac)
    return np.array(rows, dtype=np.float64)


def reference_rows(n_walks: int, count: int) -> np.ndarray:
    """The fixed, evenly spread subset of walks that the reference checks."""
    return np.unique(np.linspace(0, n_walks - 1, min(count, n_walks)).astype(np.int64))


def feature_problems(graph, batch, features: np.ndarray, window: int,
                     rows: np.ndarray) -> list[str]:
    """Shape check on the whole matrix, and the reference on ``rows``."""
    width = graph.node_dim + graph.edge_dim + 2 * window - 1
    want = (batch.n_walks, batch.length + 1, width)
    if features.shape != want:
        return [f"feature matrix has shape {features.shape}, expected {want}"]
    for r in rows:
        ref = reference_features(graph, batch.nodes[r], batch.edge_slots[r],
                                 batch.mask[r], window)
        if not np.array_equal(ref, features[r]):
            return [f"feature rows of walk {int(r)} differ from the reference"]
    return []
