"""Brute-force reference implementations.

Everything here is written for correctness over speed: exhaustive walk
enumeration with exact probabilities, expectations computed by summing over
the complete walk distribution, color refinement with structural hashes,
triangle counting by triple scan, and an exhaustive census of small connected
graphs up to isomorphism. Fast-path code elsewhere in the package is tested
against these.
"""

from __future__ import annotations

import hashlib
from itertools import combinations, permutations

import numpy as np

from .encoding import encode_batch
from .errors import TooLarge, Unsupported
from .graphs import Graph, build_graph
from .sampling import WalkBatch, stationary_distribution

__all__ = [
    "count_walks",
    "enumerate_walks",
    "exact_expectation",
    "exists_covering_walk",
    "triangle_count",
    "wl_colors",
    "wl_indistinguishable",
    "separation_witness",
    "enumerate_connected_graphs",
]

_MAX_ENUMERATED = 10_000_000


# =============================================================================
# Walk enumeration
# =============================================================================

def count_walks(graph: Graph, length: int, non_backtracking: bool = False) -> int:
    """Exact size of the complete walk set, via a (previous, current)-state
    recursion -- cheap even when the set itself would be enormous."""
    n = graph.n_nodes
    degs = graph.degrees()
    # counts[p * n + c] = walks currently ending with the step p -> c;
    # first level handled separately (no previous node).
    total = 0
    counts: dict[int, int] = {}
    for v in range(n):
        if degs[v] == 0:
            total += 1          # isolated starts stay in place to the end
            continue
        for u in graph.neighbors(v).tolist():
            counts[v * n + u] = counts.get(v * n + u, 0) + 1
    for _ in range(length - 1):
        nxt: dict[int, int] = {}
        for state, c in counts.items():
            prev, cur = divmod(state, n)
            neigh = graph.neighbors(cur)
            if neigh.size == 0:
                nxt[state] = nxt.get(state, 0) + c
                continue
            allowed = neigh
            if non_backtracking and neigh.size >= 2:
                allowed = neigh[neigh != prev]
            for u in allowed.tolist():
                key = cur * n + u
                nxt[key] = nxt.get(key, 0) + c
        counts = nxt
        if total + sum(counts.values()) > 100 * _MAX_ENUMERATED:
            break               # already hopeless; avoid bignum blowup
    return total + sum(counts.values())

def enumerate_walks(graph: Graph, length: int, non_backtracking: bool = False,
                    start_distribution: str = "uniform",
                    max_walks: int = _MAX_ENUMERATED):
    """Expand the complete walk distribution of a graph.

    Returns ``(nodes, edge_slots, mask, probs)`` where ``nodes`` is
    (K, length+1), ``edge_slots`` is (K, length) with -1 for non-moves,
    ``mask`` marks real positions (False after an isolated start), and
    ``probs`` holds each walk's exact probability. Probabilities follow the
    sampler's semantics: uniform (or degree-proportional) start, uniform
    choice among allowed neighbors, forced backtrack at degree-1 dead ends,
    stay-in-place at isolated nodes.
    """
    if length < 1:
        raise Unsupported(f"length must be >= 1, got {length}")
    n = graph.n_nodes
    expected = count_walks(graph, length, non_backtracking)
    if expected > max_walks:
        raise TooLarge(f"complete walk set has {expected} walks "
                       f"(> {max_walks}); choose a smaller graph or length")
    if start_distribution == "uniform":
        start_probs = np.full(n, 1.0 / n)
    elif start_distribution == "stationary":
        start_probs = stationary_distribution(graph)
    else:
        raise Unsupported(f"unknown start distribution {start_distribution!r}")

    paths = [[v] for v in range(n)]
    slots = [[] for _ in range(n)]
    probs = [float(start_probs[v]) for v in range(n)]
    for _ in range(length):
        new_paths, new_slots, new_probs = [], [], []
        for path, slot_row, p in zip(paths, slots, probs):
            cur = path[-1]
            neigh = graph.neighbors(cur)
            if neigh.size == 0:
                new_paths.append(path + [cur])
                new_slots.append(slot_row + [-1])
                new_probs.append(p)
                continue
            prev = path[-2] if len(path) >= 2 else -1
            allowed = neigh
            if non_backtracking and prev >= 0 and neigh.size >= 2:
                allowed = neigh[neigh != prev]
            step_p = p / allowed.size
            for nxt in allowed.tolist():
                new_paths.append(path + [nxt])
                new_slots.append(slot_row + [graph.edge_slot(cur, nxt)])
                new_probs.append(step_p)
        if len(new_paths) > max_walks:
            raise TooLarge(f"walk enumeration exceeds {max_walks} walks")
        paths, slots, probs = new_paths, new_slots, new_probs

    nodes = np.array(paths, dtype=np.int64)
    edge_slots = np.array(slots, dtype=np.int64)
    prob_arr = np.array(probs, dtype=np.float64)
    mask = np.ones_like(nodes, dtype=bool)
    isolated_start = graph.degrees()[nodes[:, 0]] == 0
    mask[isolated_start, 1:] = False
    return nodes, edge_slots, mask, prob_arr


def exact_expectation(graph: Graph, length: int, func,
                      non_backtracking: bool = False,
                      start_distribution: str = "uniform") -> float:
    """Exact expectation of a per-walk functional under the walk distribution.

    ``func(nodes, edge_slots, mask)`` receives the full enumeration arrays and
    must return one value per walk.
    """
    nodes, edge_slots, mask, probs = enumerate_walks(
        graph, length, non_backtracking, start_distribution)
    values = np.asarray(func(nodes, edge_slots, mask), dtype=np.float64)
    if values.shape != probs.shape:
        raise Unsupported(f"functional returned shape {values.shape}, expected {probs.shape}")
    return float(values @ probs)


def exists_covering_walk(graph: Graph, length: int,
                         non_backtracking: bool = False) -> bool:
    """Whether some positive-probability walk of the given length visits
    every node of the graph."""
    nodes, _, _, _ = enumerate_walks(graph, length, non_backtracking)
    n = graph.n_nodes
    for row in nodes:
        if len(set(row.tolist())) == n:
            return True
    return False


# =============================================================================
# Structure oracles
# =============================================================================

def triangle_count(graph: Graph) -> int:
    """Number of triangles, by scanning all node triples."""
    n = graph.n_nodes
    adj = [set(graph.neighbors(v).tolist()) for v in range(n)]
    count = 0
    for i, j, k in combinations(range(n), 3):
        if j in adj[i] and k in adj[i] and k in adj[j]:
            count += 1
    return count


def wl_colors(graph: Graph, rounds: int | None = None) -> list[bytes]:
    """Color refinement with structural hashes.

    Each node's color is a digest of its previous color and the sorted
    multiset of neighbor colors, starting from a shared constant, iterated
    ``rounds`` times (default: n rounds, enough to stabilize). Digests depend
    only on structure, so multisets are comparable across graphs.
    """
    n = graph.n_nodes
    if rounds is None:
        rounds = max(n, 1)
    colors = [hashlib.blake2b(b"init", digest_size=16).digest()] * n
    for _ in range(rounds):
        new = []
        for v in range(n):
            h = hashlib.blake2b(digest_size=16)
            h.update(colors[v])
            for c in sorted(colors[u] for u in graph.neighbors(v).tolist()):
                h.update(c)
            new.append(h.digest())
        colors = new
    return colors


def wl_indistinguishable(g1: Graph, g2: Graph) -> bool:
    """True when color refinement cannot tell the two graphs apart: after
    enough rounds to stabilize both, the color multisets coincide."""
    if g1.n_nodes != g2.n_nodes:
        return False
    rounds = g1.n_nodes + g2.n_nodes
    return sorted(wl_colors(g1, rounds)) == sorted(wl_colors(g2, rounds))


# =============================================================================
# Separation battery
# =============================================================================

def _battery_values(graph: Graph, length: int,
                    non_backtracking: bool) -> dict[str, float]:
    """Exact expectations of simple walk-feature functionals.

    The features are the identity and adjacency flags with the full pairwise
    window ``length + 1``; the functionals are, per feature column, the sum
    over walk positions and the sum of squares over walk positions.
    """
    nodes, edge_slots, mask, probs = enumerate_walks(graph, length, non_backtracking)
    batch = WalkBatch(nodes=nodes, edge_slots=edge_slots, mask=mask,
                      start_nodes=nodes[:, 0].copy(), length=length)
    ident, adjac = encode_batch(graph, batch, length + 1)
    out: dict[str, float] = {}
    for name, block in (("id", ident), ("adj", adjac)):
        for col in range(block.shape[2]):
            column = block[:, :, col]
            out[f"{name}[{col}]/sum"] = float((column.sum(axis=1)) @ probs)
            out[f"{name}[{col}]/sumsq"] = float(((column ** 2).sum(axis=1)) @ probs)
    return out


def separation_witness(g1: Graph, g2: Graph, length: int,
                       non_backtracking: bool = False) -> dict:
    """Search a battery of exact walk-feature functionals for one that
    separates two graphs.

    Returns the best functional's name, its two values, the gap, and the full
    per-functional table.
    """
    v1 = _battery_values(g1, length, non_backtracking)
    v2 = _battery_values(g2, length, non_backtracking)
    table = {name: (v1[name], v2[name]) for name in v1}
    best_name = max(table, key=lambda k: abs(table[k][0] - table[k][1]))
    a, b = table[best_name]
    return {"functional": best_name, "value_1": a, "value_2": b,
            "gap": abs(a - b), "table": table}


# =============================================================================
# Census of small connected graphs
# =============================================================================

def enumerate_connected_graphs(n: int) -> list[Graph]:
    """All connected simple graphs on ``n`` unlabeled nodes, one canonical
    representative each (counts for n = 1..6: 1, 1, 2, 6, 21, 112).

    Works on edge bitmasks: a graph is the subset of the C(n, 2) node pairs it
    keeps; the canonical form is the minimum bitmask over all node
    relabelings.
    """
    if n < 1 or n > 6:
        raise Unsupported(f"census supports 1 <= n <= 6, got {n}")
    pairs = list(combinations(range(n), 2))
    pair_index = {p: i for i, p in enumerate(pairs)}
    n_pairs = len(pairs)
    # perm_maps[p][i] = index of pair i after relabeling nodes with perm p
    perm_maps = []
    for perm in permutations(range(n)):
        perm_maps.append([pair_index[tuple(sorted((perm[a], perm[b])))]
                          for a, b in pairs])
    perm_maps = np.array(perm_maps, dtype=np.int64)          # (n!, C(n,2))
    weights = (1 << np.arange(n_pairs)).astype(np.int64)

    if n == 1:
        return [build_graph(1, [])]
    reps: dict[int, int] = {}
    for code in range(1 << n_pairs):
        bits = (code >> np.arange(n_pairs)) & 1
        # connectivity on the labeled graph
        adj = [[] for _ in range(n)]
        for i, (a, b) in enumerate(pairs):
            if bits[i]:
                adj[a].append(b)
                adj[b].append(a)
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        if len(seen) != n:
            continue
        canon = int((bits[perm_maps] @ weights).min())
        if canon not in reps:
            reps[canon] = code
    graphs = []
    for code in sorted(reps.values()):
        edges = [pairs[i] for i in range(n_pairs) if (code >> i) & 1]
        graphs.append(build_graph(n, edges))
    return graphs
