"""Walk sampler tests: determinism, kernel laws, coverage, serialization."""

import dataclasses
import json
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from neuralwalker.errors import (
    BadIndex,
    BadLength,
    NeverCovers,
    ParseError,
    TooManyWalks,
    Unsupported,
)
from neuralwalker.graphs import (
    build_graph,
    complete_graph,
    cycle_graph,
    erdos_renyi_graph,
    path_graph,
    random_regular_graph,
    star_graph,
)
from neuralwalker import sampling
from neuralwalker.sampling import (
    CoverageStats,
    SamplerConfig,
    WalkBatch,
    child_seeds,
    measure_cover_time,
    remap_walks,
    sample_walks,
    sample_walks_iid,
    stationary_distribution,
    transition,
    walks_from_jsonl,
    walks_to_jsonl,
)


def _assert_valid_batch(graph, batch, non_backtracking):
    """Structural invariants every batch must satisfy."""
    m, L = batch.n_walks, batch.length
    assert batch.nodes.shape == (m, L + 1)
    assert batch.edge_slots.shape == (m, L)
    assert batch.mask.shape == (m, L + 1)
    assert batch.mask[:, 0].all()
    for j in range(m):
        for t in range(L):
            if not batch.mask[j, t + 1]:
                assert batch.edge_slots[j, t] == -1
                continue
            u, v = int(batch.nodes[j, t]), int(batch.nodes[j, t + 1])
            assert graph.has_edge(u, v)
            assert batch.edge_slots[j, t] == graph.edge_slot(u, v)
            if non_backtracking and t >= 1 and graph.degree(u) >= 2:
                assert v != int(batch.nodes[j, t - 1])


# -----------------------------------------------------------------------------
# Config validation
# -----------------------------------------------------------------------------

def test_length_must_be_positive():
    with pytest.raises(BadLength):
        sample_walks(complete_graph(3), SamplerConfig(length=0))
    with pytest.raises(BadLength):
        sample_walks_iid(complete_graph(3), n_walks=5, length=0, seed=0)


def test_walk_count_resolution_and_caps():
    g = complete_graph(4)
    assert sample_walks(g, SamplerConfig(length=1, rate=0.5)).n_walks == 2
    assert sample_walks(g, SamplerConfig(length=1, rate=0.1)).n_walks == 1
    assert sample_walks(g, SamplerConfig(length=1, n_walks=3)).n_walks == 3
    with pytest.raises(TooManyWalks):
        sample_walks(g, SamplerConfig(length=1, n_walks=5))
    with pytest.raises(TooManyWalks):
        sample_walks(g, SamplerConfig(length=1, rate=1.5))
    with pytest.raises(TooManyWalks):
        sample_walks(g, SamplerConfig(length=1, n_walks=0))
    with pytest.raises(Unsupported):
        sample_walks(g, SamplerConfig(length=1, start_distribution="degree"))


# -----------------------------------------------------------------------------
# Forced trajectories
# -----------------------------------------------------------------------------

def test_path_non_backtracking_walk_is_forced():
    # On 0-1-2 a non-backtracking walk from 0 must march to the far end.
    g = path_graph(3)
    for seed in range(10):
        batch = sample_walks_iid(g, n_walks=4, length=2, seed=seed,
                                 non_backtracking=True)
        from_zero = batch.nodes[batch.start_nodes == 0]
        for row in from_zero:
            assert row.tolist() == [0, 1, 2]


def test_star_leaf_dead_end_falls_back():
    # Leaf -> center -> other leaf -> (degree-1 dead end) -> center again.
    g = star_graph(3)
    batch = sample_walks_iid(g, n_walks=64, length=3, seed=5,
                             non_backtracking=True)
    for row in batch.nodes[batch.start_nodes != 0]:
        leaf = row[0]
        assert row[1] == 0
        assert row[2] not in (0, leaf)
        assert row[3] == 0
    _assert_valid_batch(g, batch, non_backtracking=True)


def test_full_rate_starts_are_all_nodes():
    g = complete_graph(3)
    batch = sample_walks(g, SamplerConfig(length=2, rate=1.0), seed=9)
    assert sorted(batch.start_nodes.tolist()) == [0, 1, 2]
    _assert_valid_batch(g, batch, non_backtracking=False)


def test_isolated_start_is_masked():
    g = build_graph(4, [(0, 1), (1, 2)])
    batch = sample_walks(g, SamplerConfig(length=3, rate=1.0), seed=2)
    iso = np.flatnonzero(batch.start_nodes == 3)[0]
    assert (batch.nodes[iso] == 3).all()
    assert batch.mask[iso].tolist() == [True, False, False, False]
    assert (batch.edge_slots[iso] == -1).all()
    live = [j for j in range(batch.n_walks) if j != iso]
    assert batch.mask[live].all()


# -----------------------------------------------------------------------------
# Determinism and stream structure
# -----------------------------------------------------------------------------

def test_identical_inputs_identical_batches():
    g = erdos_renyi_graph(12, 0.3, seed=1, require_connected=True)
    cfg = SamplerConfig(length=8, rate=1.0, non_backtracking=True)
    b1 = sample_walks(g, cfg, seed=41)
    b2 = sample_walks(g, cfg, seed=41)
    assert (b1.nodes == b2.nodes).all()
    assert (b1.edge_slots == b2.edge_slots).all()
    b3 = sample_walks(g, cfg, seed=42)
    assert not (b1.nodes == b3.nodes).all()


def test_walk_depends_only_on_master_seed_and_index():
    # Growing the batch appends walks without disturbing earlier ones.
    g = complete_graph(6)
    small = sample_walks(g, SamplerConfig(length=5, n_walks=3), seed=7)
    large = sample_walks(g, SamplerConfig(length=5, n_walks=6), seed=7)
    assert (large.nodes[:3] == small.nodes).all()
    assert (large.edge_slots[:3] == small.edge_slots).all()


def test_child_seeds_distinct_and_stable():
    s = child_seeds(123, 1000)
    assert len(set(s.tolist())) == 1000
    assert (child_seeds(123, 10) == s[:10]).all()


def test_structural_invariants_on_random_graphs():
    rng = np.random.default_rng(8)
    for trial in range(10):
        g = erdos_renyi_graph(int(rng.integers(4, 10)), 0.5,
                              seed=int(rng.integers(1 << 30)))
        nb = bool(trial % 2)
        batch = sample_walks(g, SamplerConfig(length=6, rate=1.0,
                                              non_backtracking=nb),
                             seed=trial)
        _assert_valid_batch(g, batch, non_backtracking=nb)


def test_non_backtracking_on_directed_graph_excludes_only_out_neighbours():
    # 0 -> 1 -> {2, 3}: prev 0 is not an out-neighbour of 1, so both 2 and 3
    # stay allowed. 4 <-> 5 -> 6: prev 4 is an out-neighbour of 5, so it is
    # excluded and the walk must go on to 6.
    g = build_graph(7, [(0, 1), (1, 2), (1, 3), (2, 0), (3, 0),
                        (4, 5), (5, 4), (5, 6), (6, 4)], directed=True)
    batch = sample_walks_iid(g, n_walks=7000, length=2, seed=8, non_backtracking=True)
    from_0 = batch.nodes[batch.nodes[:, 0] == 0]
    assert (from_0[:, 1] == 1).all()
    n = from_0.shape[0]
    sigma = np.sqrt(0.25 / n)
    assert abs(np.mean(from_0[:, 2] == 2) - 0.5) < 4 * sigma
    assert (from_0[:, 2] != 0).all()
    from_4 = batch.nodes[batch.nodes[:, 0] == 4]
    assert from_4.shape[0] > 0 and (from_4[:, 2] == 6).all()
    _assert_valid_batch(g, batch, non_backtracking=False)


@st.composite
def _small_graphs(draw, max_nodes):
    """Random graphs of 1..max_nodes nodes, directed or not: directed ones
    can have sinks, and either kind isolated nodes and degree-1 dead ends."""
    n = draw(st.integers(1, max_nodes))
    directed = draw(st.booleans())
    arcs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                         max_size=12))
    edges = {}
    for u, v in arcs:
        if u != v:
            edges.setdefault((u, v) if directed else (min(u, v), max(u, v)), None)
    return build_graph(n, list(edges), directed=directed)


def _run_walks_by_search(graph, starts, length, seeds, non_backtracking):
    """The reference for the sampler's reverse-slot table: a step loop in
    which every non-backtracking step searches the current node's row for the
    previous node with ``_find_slots`` and excludes that slot."""
    m = starts.shape[0]
    nodes = np.empty((m, length + 1), dtype=np.int64)
    slots = np.full((m, length), -1, dtype=np.int64)
    nodes[:, 0] = starts
    prev, cur = np.full(m, -1, dtype=np.int64), starts.copy()
    for t in range(length):
        u = sampling._uniform01(seeds, t)
        off = graph.row_offsets[cur]
        deg = graph.row_offsets[cur + 1] - off
        back = graph._find_slots(cur, prev) if non_backtracking else np.full(m, -1)
        excl = (back >= 0) & (deg >= 2)
        eff = np.maximum(deg - excl, 1)
        r = np.minimum((u * eff).astype(np.int64), eff - 1)
        r = np.where(excl & (r >= back - off), r + 1, r)
        slot = np.where(deg > 0, off + r, -1)
        nxt = np.where(deg > 0, graph.col_indices[np.maximum(slot, 0)] if graph.n_slots else cur,
                       cur)
        nodes[:, t + 1], slots[:, t] = nxt, slot
        prev, cur = cur, nxt
    mask = np.ones((m, length + 1), dtype=bool)
    mask[graph.degrees()[starts] == 0, 1:] = False
    return WalkBatch(nodes=nodes, edge_slots=slots, mask=mask)


@settings(max_examples=200, deadline=None)
@given(_small_graphs(9), st.integers(1, 8), st.booleans(), st.integers(0, 2**32))
def test_reverse_slot_walks_equal_the_per_step_search(g, length, non_backtracking, seed):
    starts = np.repeat(np.arange(g.n_nodes, dtype=np.int64), 3)   # every node, thrice
    seeds = child_seeds(seed, starts.shape[0])
    got = sampling._run_walks(g, starts, length, seeds, non_backtracking)
    _assert_same_walks(got, _run_walks_by_search(g, starts, length, seeds, non_backtracking))


def test_a_walk_batch_searches_the_csr_at_most_once(monkeypatch):
    from neuralwalker.graphs import Graph
    from neuralwalker.model import pack_graphs, sample_walks_packed

    calls = []
    find_slots = Graph._find_slots

    def spy(self, u, v):
        calls.append(u)
        return find_slots(self, u, v)

    g = build_graph(5, [(0, 1), (1, 2), (2, 0), (2, 3)], directed=True)
    pack = pack_graphs([cycle_graph(3), star_graph(4)])
    monkeypatch.setattr(Graph, "_find_slots", spy)
    for nb in (False, True):
        for run in (lambda: sample_walks(g, SamplerConfig(length=6, non_backtracking=nb)),
                    lambda: sample_walks_iid(g, 20, 6, seed=1, non_backtracking=nb),
                    lambda: sample_walks_packed(pack, 6, 1.0, nb, "uniform", seed=2)):
            calls.clear()
            run()
            assert len(calls) <= int(nb)


def test_the_reverse_slot_table_is_built_once_per_graph(monkeypatch):
    from neuralwalker.graphs import Graph

    calls = []
    find_slots = Graph._find_slots

    def spy(self, u, v):
        calls.append(np.shape(u))
        return find_slots(self, u, v)

    # A sink (3), a dead end (4) and an isolated node (5).
    g = build_graph(6, [(0, 1), (1, 0), (1, 2), (2, 0), (2, 3), (0, 4), (4, 0)],
                    directed=True)
    monkeypatch.setattr(Graph, "_find_slots", spy)
    runs = [sample_walks_iid(g, 40, 7, seed=seed, non_backtracking=True) for seed in (1, 2)]
    assert calls == [(g.n_slots,)]
    for seed, got in zip((1, 2), runs):
        seeds = child_seeds(seed, 40)
        _assert_same_walks(got, _run_walks_by_search(g, got.start_nodes, 7, seeds, True))


# -----------------------------------------------------------------------------
# Kernel law checks (Monte Carlo)
# -----------------------------------------------------------------------------

def test_single_transition_is_uniform_over_neighbors():
    # Middle of a path: each side must come up with frequency 1/2 +- 4 sigma.
    g = path_graph(3)
    rng = np.random.default_rng(17)
    n = 100_000
    hits = sum(transition(g, 1, None, False, rng) == 0 for _ in range(n))
    sigma = np.sqrt(0.25 / n)
    assert abs(hits / n - 0.5) < 4 * sigma


def test_triangle_walk_law_matches_enumeration():
    # Length-2 walks on the triangle: 12 equally likely trajectories. The
    # empirical law over 1e5 i.i.d. walks must be within TV 0.01 of uniform.
    g = complete_graph(3)
    n = 100_000
    batch = sample_walks_iid(g, n_walks=n, length=2, seed=33)
    keys = batch.nodes @ np.array([9, 3, 1])
    counts = np.bincount(keys, minlength=27)
    emp = counts / n
    exact = np.zeros(27)
    for a in range(3):
        for b in range(3):
            for c in range(3):
                if a != b and b != c:
                    exact[9 * a + 3 * b + c] = 1.0 / 12.0
    assert exact.sum() == pytest.approx(1.0)
    tv = 0.5 * np.abs(emp - exact).sum()
    assert tv < 0.01


def test_stationary_start_frequencies():
    g = star_graph(4)
    pi = stationary_distribution(g)
    n = 100_000
    batch = sample_walks_iid(g, n_walks=n, length=1, seed=3,
                             start_distribution="stationary")
    freq = np.bincount(batch.start_nodes, minlength=4) / n
    assert 0.5 * np.abs(freq - pi).sum() < 0.01


# -----------------------------------------------------------------------------
# Stationary distribution
# -----------------------------------------------------------------------------

def test_stationary_exact_values():
    assert stationary_distribution(complete_graph(3)).tolist() == [1 / 3] * 3
    assert stationary_distribution(path_graph(3)).tolist() == [0.25, 0.5, 0.25]
    assert stationary_distribution(star_graph(4)).tolist() == [0.5, 1 / 6, 1 / 6, 1 / 6]


def test_stationary_rejects_directed_and_edgeless():
    with pytest.raises(Unsupported):
        stationary_distribution(build_graph(2, [(0, 1)], directed=True))
    with pytest.raises(Unsupported):
        stationary_distribution(build_graph(3, []))


# -----------------------------------------------------------------------------
# Cover times
# -----------------------------------------------------------------------------

def test_cover_time_single_edge_is_one_step():
    times = measure_cover_time(complete_graph(2), trials=50, seed=0)
    assert (times == 1).all()


def test_cover_time_triangle_within_theory_bound():
    times = measure_cover_time(complete_graph(3), trials=200, seed=1)
    assert times.mean() <= 4 * 3 * 3  # 4 |V| |E|
    assert (times >= 2).all()


def test_cover_time_rejects_disconnected():
    with pytest.raises(NeverCovers):
        measure_cover_time(build_graph(4, [(0, 1), (2, 3)]), trials=1, seed=0)


def test_coverage_stats():
    g = path_graph(3)
    batch = sample_walks(g, SamplerConfig(length=4, rate=1.0), seed=0)
    stats = CoverageStats.from_batch(g, batch)
    assert stats.visited_fraction == 1.0
    assert stats.visit_counts.sum() == batch.mask.sum()


# -----------------------------------------------------------------------------
# Serialization and remapping
# -----------------------------------------------------------------------------

def test_jsonl_round_trip():
    g = build_graph(5, [(0, 1), (1, 2), (2, 3)])  # node 4 isolated
    batch = sample_walks(g, SamplerConfig(length=3, rate=1.0), seed=6)
    text = walks_to_jsonl(batch)
    first = text.splitlines()[0]
    assert '"walk_id":0' in first
    back = walks_from_jsonl(text)
    assert (back.nodes == batch.nodes).all()
    assert (back.edge_slots == batch.edge_slots).all()
    assert (back.mask == batch.mask).all()
    assert (back.start_nodes == batch.start_nodes).all()


_GOOD_RECORD = {"walk_id": 0, "nodes": [0, 1, 2], "edge_slots": [0, 2], "mask": [1, 1, 1]}


@pytest.mark.parametrize("field,value", [
    ("nodes", [0, "a", 2]),
    ("nodes", [0, 0.7, 2]),
    ("nodes", [[0], [1], [2]]),
    ("nodes", [0, [1, 2], 2]),
    ("nodes", [0, None, 2]),
    ("edge_slots", [0, 2.5]),
    ("mask", [1, 2, 1]),
    ("mask", [1, -1, 1]),
    ("mask", [1, 0.5, 1]),
    ("mask", [0, 1, 1]),
])
def test_jsonl_rejects_records_that_are_not_flat_integer_walks(field, value):
    bad = json.dumps(dict(_GOOD_RECORD, walk_id=1, **{field: value}))
    with pytest.raises(ParseError):
        walks_from_jsonl(json.dumps(_GOOD_RECORD) + "\n" + bad + "\n")


def test_jsonl_rejects_malformed_input():
    with pytest.raises(ParseError):
        walks_from_jsonl("not json\n")
    with pytest.raises(ParseError):
        walks_from_jsonl('{"nodes": [0, 1]}\n')
    with pytest.raises(ParseError):
        walks_from_jsonl("")
    good = '{"walk_id":0,"nodes":[0,1,2],"edge_slots":[0,2],"mask":[1,1,1]}'
    bad = '{"walk_id":1,"nodes":[0,1],"edge_slots":[0],"mask":[1,1]}'
    with pytest.raises(ParseError, match="line 2"):
        walks_from_jsonl(good + "\n" + bad + "\n")


def test_remap_walks_onto_relabeled_graph():
    g = erdos_renyi_graph(7, 0.5, seed=4, require_connected=True)
    batch = sample_walks(g, SamplerConfig(length=5, rate=1.0), seed=10)
    perm = np.random.default_rng(2).permutation(7)
    edges = set()
    for s in range(g.n_slots):
        u, v = int(g.slot_src[s]), int(g.col_indices[s])
        if u < v:
            edges.add((int(perm[u]), int(perm[v])))
    target = build_graph(7, sorted(edges))
    mapped = remap_walks(batch, perm, target)
    assert (mapped.nodes == perm[batch.nodes]).all()
    _assert_valid_batch(target, mapped, non_backtracking=False)


def test_remap_identity_is_noop():
    g = cycle_graph(5)
    batch = sample_walks(g, SamplerConfig(length=4, rate=1.0), seed=3)
    same = remap_walks(batch, np.arange(5), g)
    assert (same.nodes == batch.nodes).all()
    assert (same.edge_slots == batch.edge_slots).all()


def test_remap_walks_rejects_target_without_the_arc():
    # P4 walks cross the arc 1 -> 2, which the star (centre 0) lacks.
    batch = sample_walks(path_graph(4), SamplerConfig(length=3, rate=1.0), seed=1)
    with pytest.raises(BadIndex):
        remap_walks(batch, np.arange(4), star_graph(4))


@pytest.mark.parametrize("field,value", [
    ("nodes", [0, True, 2]),
    ("edge_slots", [False, 2]),
    ("mask", [1, True, 1]),
])
def test_jsonl_rejects_booleans_among_integers(field, value):
    bad = json.dumps(dict(_GOOD_RECORD, walk_id=1, **{field: value}))
    with pytest.raises(ParseError, match="line 2"):
        walks_from_jsonl(json.dumps(_GOOD_RECORD) + "\n" + bad + "\n")


@pytest.mark.parametrize("mask", [[1, 0, 1], [1, 1, 0]])
def test_jsonl_rejects_a_mask_that_is_not_a_real_prefix_of_one_or_all(mask):
    bad = json.dumps(dict(_GOOD_RECORD, mask=mask))
    with pytest.raises(ParseError):
        walks_from_jsonl(bad + "\n")


def test_jsonl_accepts_a_walk_masked_after_its_start():
    rec = dict(_GOOD_RECORD, nodes=[4, 4, 4], edge_slots=[-1, -1], mask=[1, 0, 0])
    batch = walks_from_jsonl(json.dumps(rec) + "\n")
    assert batch.mask.tolist() == [[True, False, False]]


# -----------------------------------------------------------------------------
# JSONL fast path against the per-record reference
# -----------------------------------------------------------------------------

def _records(batch):
    return [{"walk_id": j, "nodes": batch.nodes[j].tolist(),
             "edge_slots": batch.edge_slots[j].tolist(),
             "mask": batch.mask[j].astype(int).tolist()} for j in range(batch.n_walks)]


def _reference_jsonl(batch):
    """The per-record formula the canonical writer must reproduce."""
    lines = [json.dumps(rec, separators=(",", ":")) for rec in _records(batch)]
    return "\n".join(lines) + "\n"


@st.composite
def _walk_batches(draw):
    """Sampled batches on small random graphs, directed ones with sinks and
    any with isolated nodes; node ids are then shifted to up to 19 digits."""
    g = draw(_small_graphs(7))
    n = g.n_nodes
    config = SamplerConfig(length=draw(st.integers(1, 8)), n_walks=draw(st.integers(1, n)),
                           non_backtracking=draw(st.booleans()))
    batch = sample_walks(g, config, seed=draw(st.integers(0, 2**32)))
    shift = draw(st.sampled_from([0, 9, 10**6, 10**12, 2**63 - 8]))
    batch.nodes = batch.nodes + shift
    return batch


def test_walk_batch_stores_only_nodes_slots_and_mask():
    assert [f.name for f in dataclasses.fields(WalkBatch)] == ["nodes", "edge_slots", "mask"]
    batch = sample_walks(cycle_graph(6), SamplerConfig(length=4, rate=0.5), seed=1)
    assert batch.length == 4 and batch.n_walks == 3
    assert (batch.start_nodes == batch.nodes[:, 0]).all()
    with pytest.raises(AttributeError):
        batch.length = 5


def _assert_same_walks(got, want):
    assert got.length == want.length
    for name in ("nodes", "edge_slots", "mask", "start_nodes"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and (a == b).all(), name


@settings(max_examples=150, deadline=None)
@given(_walk_batches())
def test_jsonl_writer_matches_per_record_json_dumps(batch):
    assert walks_to_jsonl(batch) == _reference_jsonl(batch)


def test_jsonl_round_trip_spans_several_format_blocks():
    n = 2 * sampling._FORMAT_BLOCK + 5
    batch = sample_walks(cycle_graph(n), SamplerConfig(length=3, rate=1.0), seed=2)
    text = walks_to_jsonl(batch)
    assert text == _reference_jsonl(batch)
    _assert_same_walks(walks_from_jsonl(text), batch)


def test_jsonl_reader_returns_contiguous_arrays_that_share_no_memory():
    batch = sample_walks(cycle_graph(40), SamplerConfig(length=5, rate=1.0), seed=3)
    back = walks_from_jsonl(walks_to_jsonl(batch))
    arrays = (back.nodes, back.edge_slots, back.mask)
    for arr in arrays:
        assert arr.flags["C_CONTIGUOUS"]
    for i, a in enumerate(arrays):
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)
    # Not a view that keeps the parsed table, walk ids included, alive.
    assert back.nodes.base is None


def test_jsonl_writer_writes_one_newline_for_no_walks():
    batch = WalkBatch(nodes=np.zeros((0, 4), dtype=np.int64),
                      edge_slots=np.zeros((0, 3), dtype=np.int64),
                      mask=np.zeros((0, 4), dtype=bool))
    assert walks_to_jsonl(batch) == _reference_jsonl(batch) == "\n"


# Each width edge of the six-digit word groups, both signs, and the int64 ends.
_EDGE_INTS = sorted({sign * v for v in [0, 1] + [10**k - 1 for k in range(1, 19)]
                     + [10**k for k in range(1, 19)] + [2**63 - 1] for sign in (1, -1)}
                    | {-2**63})


@st.composite
def _edge_batches(draw):
    """Batches whose nodes and slots mix values from a drawn palette of
    ``_EDGE_INTS`` inside each block, at walk counts around the block size
    and at length 1; about a fifth of the walks are masked after the start."""
    block = sampling._FORMAT_BLOCK
    m = draw(st.sampled_from([1, 2, block - 1, block, block + 1]))
    length = draw(st.sampled_from([1, 2, 5]))
    palette = np.array(draw(st.lists(st.sampled_from(_EDGE_INTS), min_size=1, max_size=6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nodes = palette[rng.integers(len(palette), size=(m, length + 1))]
    mask = np.ones((m, length + 1), dtype=bool)
    mask[rng.random(m) < 0.2, 1:] = False
    return WalkBatch(nodes=nodes, edge_slots=palette[rng.integers(len(palette), size=(m, length))],
                     mask=mask)


@settings(max_examples=60, deadline=None)
@given(_edge_batches())
def test_jsonl_formats_every_digit_group_edge_and_reads_it_back(batch):
    text = walks_to_jsonl(batch)
    assert text == _reference_jsonl(batch)
    assert sampling._read_canonical(text) is not None
    _assert_same_walks(walks_from_jsonl(text), batch)


def test_jsonl_round_trip_peaks_at_a_few_times_the_text():
    """The formatter works a block of walks at a time, so its temporaries do
    not grow with the batch. The 20k-walk round trip holds the text, the
    parsed integers (about 1.5 times the text) and their copies; formatting
    every walk in one block would add a uint64 array of 1.8 times the text,
    its bytes, and per-field temporaries."""
    batch = sample_walks(random_regular_graph(20_000, 4, seed=1),
                         SamplerConfig(length=20, rate=1.0), seed=1)
    tracemalloc.start()
    try:
        text = walks_to_jsonl(batch)
        back = walks_from_jsonl(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _assert_same_walks(back, batch)
    assert peak < 5 * len(text)


@settings(max_examples=150, deadline=None)
@given(_walk_batches(), st.randoms(use_true_random=False))
def test_jsonl_reader_gives_the_same_walks_for_every_rendition(batch, rnd):
    text = walks_to_jsonl(batch)
    records = _records(batch)
    ids = list(range(batch.n_walks))
    rnd.shuffle(ids)
    renditions = [
        "".join(json.dumps(rec) + "\n" for rec in records),
        "".join(json.dumps(dict(reversed(list(rec.items()))), separators=(",", ":")) + "\n"
                for rec in records),
        "\n" + text.replace("\n", "\n\n"),
        text[:-1],
        "".join(json.dumps(dict(rec, walk_id=k), separators=(",", ":")) + "\n"
                for rec, k in zip(records, ids)),
    ]
    if ids == sorted(ids):
        renditions.pop()
    # The canonical text never reaches the per-record parser; the others do.
    assert sampling._read_canonical(text) is not None
    for other in renditions:
        assert sampling._read_canonical(other) is None
        _assert_same_walks(walks_from_jsonl(other), batch)
    _assert_same_walks(walks_from_jsonl(text), batch)


_CANONICAL = ('{"walk_id":0,"nodes":[0,1,2],"edge_slots":[0,2],"mask":[1,1,1]}\n'
              '{"walk_id":1,"nodes":[4,4,4],"edge_slots":[-1,-1],"mask":[1,0,0]}\n')


@pytest.mark.parametrize("old,new", [
    ('"mask":[1,0,0]', '"mask":[1,0,2]'),
    ('"mask":[1,0,0]', '"mask":[1,0,1]'),
    ('"mask":[1,0,0]', '"mask":[0,0,0]'),
    ('"nodes":[4,4,4]', '"nodes":[4,04,4]'),
    ('"nodes":[4,4,4]', '"nodes":[4,12345678901234567890,4]'),
    ('"nodes":[4,4,4]', '"nodes":[4,--5,4]'),
    ('"nodes":[4,4,4]', '"nodes":[4,1 - 2,4]'),
    ('"nodes":[4,4,4]', '"nodes":[4,true,4]'),
    ('"nodes":[4,4,4]', '"nodes":[4,1.0,4]'),
    ('"edge_slots":[-1,-1]', '"edge_slots":[-1,-01]'),
])
def test_jsonl_rejects_canonical_shaped_lines_the_record_parser_rejects(old, new):
    assert walks_from_jsonl(_CANONICAL).n_walks == 2
    with pytest.raises(ParseError):
        walks_from_jsonl(_CANONICAL.replace(old, new))


@pytest.mark.parametrize("tail", ["]", "x", "{}"])
def test_jsonl_rejects_text_after_the_last_canonical_record(tail):
    with pytest.raises(ParseError):
        walks_from_jsonl(_CANONICAL + tail)


def _one_walk(nodes, slots, mask):
    return WalkBatch(nodes=np.array([nodes]), edge_slots=np.array([slots]),
                     mask=np.array([mask], dtype=bool))


def test_validate_accepts_sampled_walks_that_stop_at_a_directed_sink():
    g = build_graph(3, [(0, 1), (1, 2)], directed=True)   # node 2 has out-degree 0
    batch = sample_walks(g, SamplerConfig(length=4, rate=1.0), seed=0)
    assert (batch.edge_slots[batch.mask[:, 1:]] == -1).any()
    batch.validate(g)
    _one_walk([0, 1, 2, 2], [0, 1, -1], [1, 1, 1, 1]).validate(g)
    _one_walk([2, 2, 2, 2], [-1, -1, -1], [1, 0, 0, 0]).validate(g)


@pytest.mark.parametrize("nodes,slots", [
    ([0, 1, 1], [0, -1]),        # stays put on node 1, which has an out-arc
    ([0, 1, 2], [0, -1]),        # moves along 1 -> 2 without naming its slot
    ([1, 2, 0], [1, -1]),        # leaves the sink 2 along no arc
])
def test_validate_rejects_a_slotless_step_off_a_sink(nodes, slots):
    g = build_graph(3, [(0, 1), (1, 2)], directed=True)
    with pytest.raises(ParseError):
        _one_walk(nodes, slots, [1, 1, 1]).validate(g)


@pytest.mark.parametrize("nodes,slots,mask", [
    ([0, 0, 1], [-1, 0], [1, 0, 1]),       # a hole between real positions
    ([2, 2, 2], [-1, -1], [1, 0, 1]),      # a hole in a walk from the sink 2
    ([0, 1, 1], [0, -1], [1, 1, 0]),       # a masked tail after a real step
    ([0, 0, 0], [-1, -1], [1, 0, 0]),      # masked, but node 0 has an out-arc
])
def test_validate_rejects_masks_other_than_a_sink_start(nodes, slots, mask):
    g = build_graph(3, [(0, 1), (1, 2)], directed=True)
    with pytest.raises(ParseError):
        _one_walk(nodes, slots, mask).validate(g)
