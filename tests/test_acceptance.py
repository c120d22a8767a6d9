"""Acceptance checklist for the whole package.

Each test covers one release criterion end to end and prints a single
``[criterion N] PASS/FAIL -- <name>`` line directly on the terminal
(bypassing capture), so a full run reads as a checklist. Tolerances and time
budgets are asserted inside the tests themselves.
"""

import contextlib
import json
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import fd_gradcheck
from neuralwalker import autodiff as ad
from neuralwalker.autodiff import Tensor
from neuralwalker.cli import main as cli_main
from neuralwalker.datasets import (make_cycle_path_dataset,
                                   make_triangle_count_dataset)
from neuralwalker.encoding import count_triangle_flags, encode_batch
from neuralwalker.graphs import (build_graph, complete_graph, cycle_graph,
                                 disjoint_union, erdos_renyi_graph, path_graph,
                                 random_regular_graph, save_graph, star_graph)
from neuralwalker.model import Model, ModelConfig, pack_graphs
from neuralwalker.oracle import (enumerate_connected_graphs, enumerate_walks,
                                 exact_expectation, separation_witness,
                                 triangle_count, wl_indistinguishable)
from neuralwalker.sampling import (SamplerConfig, WalkBatch, measure_cover_time,
                                   sample_walks, sample_walks_iid,
                                   stationary_distribution, walks_from_jsonl)
from neuralwalker.training import classification_loss, evaluate, regression_loss, train_model


@pytest.fixture
def report(capsys):
    @contextlib.contextmanager
    def ctx(num, name):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"[criterion {num:>2}] FAIL -- {name}")
            raise
        with capsys.disabled():
            print(f"[criterion {num:>2}] PASS -- {name}")
    return ctx


# -----------------------------------------------------------------------------
# 1. Walk encodings match brute force across the whole small-graph census
# -----------------------------------------------------------------------------

def _naive_encodings(graph, nodes, mask, window):
    m, n_pos = nodes.shape
    ident = np.zeros((m, n_pos, window))
    adjac = np.zeros((m, n_pos, window - 1))
    for w in range(m):
        for i in range(n_pos):
            if not mask[w, i]:
                continue
            for j in range(window):
                k = i - j - 1
                if k < 0 or not mask[w, k]:
                    continue
                if nodes[w, i] == nodes[w, k]:
                    ident[w, i, j] = 1.0
                if j < window - 1 and graph.has_edge(int(nodes[w, i]),
                                                     int(nodes[w, k])):
                    adjac[w, i, j] = 1.0
    return ident, adjac


def test_criterion_1_encodings_bit_exact(report):
    with report(1, "walk encodings bit-exact vs brute force on all "
                   "connected graphs up to 6 nodes (100 walks each)"):
        started = time.perf_counter()
        n_graphs = 0
        for n in range(1, 7):
            for g in enumerate_connected_graphs(n):
                batch = sample_walks_iid(g, 100, 6,
                                         seed=n * 1009 + g.n_slots,
                                         non_backtracking=(n_graphs % 2 == 0))
                ident, adjac = encode_batch(g, batch, 4)
                ref_i, ref_a = _naive_encodings(g, batch.nodes, batch.mask, 4)
                assert (ident == ref_i).all()
                assert (adjac == ref_a).all()
                n_graphs += 1
        assert n_graphs == 143
        assert time.perf_counter() - started < 60.0

        # Pinned values: a 4-cycle traversed once and closed.
        c4 = cycle_graph(4)
        walk = WalkBatch(nodes=np.array([[0, 1, 2, 3, 0]]),
                         edge_slots=np.array([[c4.edge_slot(0, 1),
                                               c4.edge_slot(1, 2),
                                               c4.edge_slot(2, 3),
                                               c4.edge_slot(3, 0)]]),
                         mask=np.ones((1, 5), dtype=bool))
        ident, adjac = encode_batch(c4, walk, 4)
        assert ident[0, 4, 3] == 1.0          # returned to the start
        assert ident[0].sum() == 1.0          # and nowhere else
        assert adjac[0, 3, 2] == 1.0          # node 3 is adjacent to node 0


# -----------------------------------------------------------------------------
# 2. Triangle law: closing flags over the complete length-2 walk set
# -----------------------------------------------------------------------------

def test_criterion_2_triangle_law(report):
    with report(2, "closing-flag sum equals 6x triangle count on 200 "
                   "random graphs"):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(3, 9))
            p = float(rng.uniform(0.2, 0.9))
            g = erdos_renyi_graph(n, p, seed=int(rng.integers(2 ** 62)))
            walks = enumerate_walks(g, 2)[0]
            assert count_triangle_flags(g, walks) == 6 * triangle_count(g)


# -----------------------------------------------------------------------------
# 3. Expressivity beyond color refinement
# -----------------------------------------------------------------------------

def _complete_walk_batch(graph, length):
    nodes, slots, mask, _ = enumerate_walks(graph, length)
    return WalkBatch(nodes=nodes, edge_slots=slots, mask=mask)


def test_criterion_3_separates_refinement_blind_pair(report):
    with report(3, "two triangles vs hexagon: identical under color "
                   "refinement, separated by walk features and by 20 "
                   "untrained models"):
        two_tri, _ = disjoint_union([cycle_graph(3, with_features=True),
                                     cycle_graph(3, with_features=True)])
        hexagon = cycle_graph(6, with_features=True)
        assert wl_indistinguishable(two_tri, hexagon)

        witness = separation_witness(two_tri, hexagon, length=2)
        assert witness["gap"] >= 0.4

        b1 = _complete_walk_batch(two_tri, 2)
        b2 = _complete_walk_batch(hexagon, 2)
        for seed in range(20):
            cfg = ModelConfig(hidden_dim=16, n_blocks=1, seq_layer="conv",
                              kernel=3, window=3, walk_length=2, node_dim=1,
                              rate=1.0, seed=seed)
            model = Model(cfg, seed=seed)
            p1 = model.forward(two_tri, walks=b1)
            p2 = model.forward(hexagon, walks=b2)
            diff = float(np.linalg.norm(p1.pooled.data - p2.pooled.data))
            assert diff > 1e-6


# -----------------------------------------------------------------------------
# 4. Monte Carlo estimates converge to enumerated expectations
# -----------------------------------------------------------------------------

def test_criterion_4_estimator_convergence(report):
    with report(4, "sampled means within 4 sigma/sqrt(m) of the enumerated "
                   "expectation; RMS error decade ratios in [2, 5]"):
        started = time.perf_counter()
        from neuralwalker.encoding import walk_feature_matrix

        g = erdos_renyi_graph(6, 0.5, seed=7, require_connected=True)
        length, window = 4, 3
        u = np.random.default_rng(42).standard_normal(
            g.node_dim + g.edge_dim + 2 * window - 1)

        def per_walk(nodes, slots, mask):
            batch = WalkBatch(nodes=nodes, edge_slots=slots, mask=mask)
            return (walk_feature_matrix(g, batch, window=window) @ u).sum(axis=1)

        mean = exact_expectation(g, length, per_walk)
        second = exact_expectation(g, length,
                                   lambda n, e, m: per_walk(n, e, m) ** 2)
        sigma = float(np.sqrt(second - mean ** 2))

        def estimate(m, seed):
            batch = sample_walks_iid(g, m, length, seed=seed)
            feats = walk_feature_matrix(g, batch, window=window)
            return float((feats @ u).sum(axis=1).mean())

        sizes = [100, 1000, 10000]
        for m in sizes:
            assert abs(estimate(m, 0) - mean) < 4 * sigma / np.sqrt(m)

        rms = {}
        for m in sizes:
            errs = [estimate(m, 1000 + r) - mean for r in range(50)]
            rms[m] = float(np.sqrt(np.mean(np.square(errs))))
        assert 2.0 <= rms[100] / rms[1000] <= 5.0
        assert 2.0 <= rms[1000] / rms[10000] <= 5.0
        assert time.perf_counter() - started < 120.0


# -----------------------------------------------------------------------------
# 5. Gradients against central differences
# -----------------------------------------------------------------------------

def _per_op_cases(rng):
    def t(shape, lo=-1.0, hi=1.0):
        return Tensor(rng.uniform(lo, hi, shape), requires_grad=True)

    x = t((3, 4))
    w = t((4, 5))
    yield "matmul", {"x": x, "w": w}, lambda: ad.reduce_sum(ad.matmul(x, w))

    g_, b_ = t((4,)), t((4,))
    xn = t((3, 4))
    yield "layernorm", {"x": xn, "g": g_, "b": b_}, \
        lambda: ad.reduce_sum(ad.layernorm(xn, g_, b_))

    xs = t((2, 5))
    soft_mult = Tensor(rng.standard_normal((2, 5)))
    yield "softmax", {"x": xs}, lambda: ad.reduce_sum(
        ad.mul(ad.softmax(xs), soft_mult))

    xc, kc = t((2, 6, 3)), t((3, 3))
    yield "conv1d_depthwise", {"x": xc, "k": kc}, \
        lambda: ad.reduce_sum(ad.conv1d_depthwise(xc, kc))

    a_, b2 = t((2, 5, 3), lo=0.2, hi=0.9), t((2, 5, 3))
    yield "associative_scan", {"a": a_, "b": b2}, \
        lambda: ad.reduce_sum(ad.associative_scan(a_, b2))

    v = t((6, 3))
    ids = np.array([0, 1, 1, 0, 2, 2])
    yield "segment_mean", {"v": v}, \
        lambda: ad.reduce_sum(ad.segment_mean(v, ids, 3))
    scat_mult = Tensor(rng.standard_normal((3, 3)))
    yield "scatter_add", {"v": v}, \
        lambda: ad.reduce_sum(ad.mul(ad.scatter_add(v, ids, 3), scat_mult))
    yield "gather_rows", {"v": v}, \
        lambda: ad.reduce_sum(ad.gather_rows(v, np.array([2, 2, 0, 5])))

    for name, fn in [("exp", ad.exp), ("tanh", ad.tanh),
                     ("sigmoid", ad.sigmoid), ("gelu", ad.gelu),
                     ("silu", ad.silu)]:
        xe = t((3, 3))
        yield name, {"x": xe}, (lambda xe=xe, fn=fn: ad.reduce_sum(fn(xe)))
    xl = t((3, 3), lo=0.5, hi=2.0)
    yield "log", {"x": xl}, lambda: ad.reduce_sum(ad.log(xl))

    xm = t((2, 3, 4))
    keep = np.array([[True, False, True], [False, True, True]])
    mask_mult = Tensor(rng.standard_normal((2, 3, 4)))
    yield "mask_rows", {"x": xm}, lambda: ad.reduce_sum(
        ad.mul(ad.mask_rows(xm, keep), mask_mult))


def test_criterion_5_gradient_suite(report):
    with report(5, "per-op gradients within 1e-4 and end-to-end model "
                   "gradients within 1e-3 of central differences"):
        started = time.perf_counter()
        rng = np.random.default_rng(1)
        for name, params, make_loss in _per_op_cases(rng):
            worst = fd_gradcheck(make_loss, params, n_probes=20, step=1e-6,
                                 rel_tol=1e-4, seed=2)
            assert worst < 1e-4, f"{name}: {worst}"

        graphs = [erdos_renyi_graph(5, 0.5, seed=1, with_features=True,
                                    require_connected=True),
                  erdos_renyi_graph(6, 0.4, seed=2, with_features=True,
                                    require_connected=True)]
        pack = pack_graphs(graphs)

        cfg = ModelConfig(hidden_dim=8, n_blocks=1, seq_layer="conv", kernel=3,
                          window=4, walk_length=4, node_dim=1, rate=1.0,
                          head="classification", n_classes=2, seed=3)
        model = Model(cfg)
        labels = np.array([0, 1])
        worst = fd_gradcheck(
            lambda: classification_loss(model.forward(pack, seed=11).prediction,
                                        labels),
            model.params, n_probes=20, step=1e-6, rel_tol=1e-3, seed=5)
        assert worst < 1e-3

        cfg2 = ModelConfig(hidden_dim=8, n_blocks=1, seq_layer="s4", state=4,
                           window=4, walk_length=4, node_dim=1, rate=1.0,
                           head="regression", out_dim=1,
                           global_mp="transformer", heads=2, seed=4)
        model2 = Model(cfg2)
        worst2 = fd_gradcheck(
            lambda: regression_loss(model2.forward(pack, seed=12).prediction,
                                    np.array([0.5, -0.3])),
            model2.params, n_probes=20, step=1e-6, rel_tol=1e-3, seed=6)
        assert worst2 < 1e-3
        assert time.perf_counter() - started < 300.0


# -----------------------------------------------------------------------------
# 6. The two bundled tasks are learnable
# -----------------------------------------------------------------------------

def test_criterion_6a_cycle_vs_path(report):
    with report("6a", "cycle-vs-path classifier reaches 99% test accuracy "
                      "within 200 epochs"):
        dataset = make_cycle_path_dataset(seed=0)   # 200 train / 50 val / 100 test
        cfg = ModelConfig(hidden_dim=16, n_blocks=2, seq_layer="conv", kernel=3,
                          window=10, walk_length=10, node_dim=1, rate=1.0,
                          non_backtracking=True, head="classification",
                          n_classes=2, epochs=200, batch_size=32, base_lr=3e-3,
                          warmup_epochs=2, seed=0)
        model = Model(cfg)
        result = train_model(model, dataset, target_value=1.0)
        assert result.epochs_run <= 200
        test = evaluate(model, dataset, "test", seed=123, repeat=5,
                        average_predictions=True)
        assert test["mean"] >= 0.99


def test_criterion_6b_triangle_regression(report):
    with report("6b", "triangle-count regressor reaches test MAE < 0.2 "
                      "within 500 epochs"):
        dataset = make_triangle_count_dataset(seed=0)  # nodes 6..10
        cfg = ModelConfig(hidden_dim=24, n_blocks=2, seq_layer="conv", kernel=5,
                          window=8, walk_length=20, node_dim=1, rate=1.0,
                          non_backtracking=True, head="regression", out_dim=1,
                          pooling="sum", epochs=500, batch_size=32,
                          base_lr=3e-3, warmup_epochs=5, seed=0)
        model = Model(cfg)
        result = train_model(model, dataset, eval_every=5, target_value=0.12)
        assert result.epochs_run <= 500
        test = evaluate(model, dataset, "test", seed=123, repeat=8,
                        average_predictions=True)
        assert test["mean"] < 0.2


# -----------------------------------------------------------------------------
# 7. Walk statistics: stationary law and cover times
# -----------------------------------------------------------------------------

def test_criterion_7_stationary_and_cover(report):
    with report(7, "exact stationary laws, empirical visit frequencies "
                   "(TV < 0.01 at 1e5 steps), cover-time means within "
                   "4|V||E|"):
        cases = [
            (complete_graph(3), np.array([1, 1, 1]) / 3),
            (path_graph(3), np.array([1, 2, 1]) / 4),
            (star_graph(4), np.array([3, 1, 1, 1]) / 6),
        ]
        for g, want in cases:
            pi = stationary_distribution(g)
            assert np.abs(pi - want).max() < 1e-15

            walk = sample_walks_iid(g, 1, 100_000, seed=9,
                                    start_distribution="stationary")
            freq = np.bincount(walk.nodes[0], minlength=g.n_nodes) / (100_000 + 1)
            assert 0.5 * np.abs(freq - pi).sum() < 0.01

            covers = measure_cover_time(g, trials=200, seed=4)
            assert covers.mean() <= 4 * g.n_nodes * g.n_edges

        # Two-node sanity: one step always covers.
        assert (measure_cover_time(complete_graph(2), trials=50, seed=0) == 1).all()


# -----------------------------------------------------------------------------
# 8. Evaluation noise is small against training-seed variation
# -----------------------------------------------------------------------------

def test_criterion_8_eval_stability(report):
    with report(8, "median walk-resampling std of the metric is no larger "
                   "than the cross-training-seed std"):
        def study(dataset, head, pooling):
            local_stds, means = [], []
            for seed in range(4):
                cfg = ModelConfig(hidden_dim=12, n_blocks=1, seq_layer="conv",
                                  kernel=3, window=6, walk_length=8, node_dim=1,
                                  rate=1.0, non_backtracking=True, head=head,
                                  n_classes=2, out_dim=1, pooling=pooling,
                                  epochs=4, batch_size=20, base_lr=3e-3,
                                  warmup_epochs=1, seed=seed)
                model = Model(cfg)
                train_model(model, dataset)
                ev = evaluate(model, dataset, "test", seed=77, repeat=5)
                local_stds.append(ev["std"])
                means.append(ev["mean"])
            return float(np.mean(local_stds)), float(np.std(means, ddof=1))

        ds1 = make_cycle_path_dataset(seed=5, n_train=40, n_val=20, n_test=40,
                                      min_nodes=4, max_nodes=8)
        ds2 = make_triangle_count_dataset(seed=5, n_train=40, n_val=20,
                                          n_test=40, min_nodes=6, max_nodes=8)
        l1, c1 = study(ds1, "classification", "mean")
        l2, c2 = study(ds2, "regression", "sum")
        assert np.median([l1, l2]) <= np.median([c1, c2])


# -----------------------------------------------------------------------------
# 9. CLI determinism and pipeline composition
# -----------------------------------------------------------------------------

def test_criterion_9_cli_determinism(report, tmp_path, capsys):
    with report(9, "CLI reruns are byte-identical with --no-timing; "
                   "sample|forward composition equals the in-process result"):
        graph_path = str(tmp_path / "c5.graph")
        save_graph(cycle_graph(5, with_features=True), graph_path)

        argv = [sys.executable, "-m", "neuralwalker.cli", "--no-timing",
                "--seed", "3", "sample", "--graph", graph_path,
                "--length", "6"]
        run1 = subprocess.run(argv, capture_output=True)
        run2 = subprocess.run(argv, capture_output=True)
        assert run1.returncode == 0
        assert run1.stdout == run2.stdout

        cfg = ModelConfig(hidden_dim=8, n_blocks=1, seq_layer="conv", kernel=3,
                          window=3, walk_length=3, node_dim=1, rate=1.0,
                          head="regression", seed=5)
        config_path = str(tmp_path / "model.json")
        with open(config_path, "w") as fh:
            fh.write(cfg.to_json())
        walks_path = str(tmp_path / "walks.jsonl")
        assert cli_main(["--no-timing", "--seed", "7", "sample",
                         "--graph", graph_path, "--length", "3",
                         "--out", walks_path]) == 0
        capsys.readouterr()
        assert cli_main(["--no-timing", "--seed", "7", "forward",
                         "--graph", graph_path, "--config", config_path,
                         "--walks", walks_path]) == 0
        record = json.loads(capsys.readouterr().out.strip().splitlines()[0])

        model = Model(cfg)
        with open(walks_path) as fh:
            batch = walks_from_jsonl(fh.read())
        result = model.forward(cycle_graph(5, with_features=True), seed=7,
                               walks=batch)
        assert record["prediction"] == [float(x) for x in result.prediction.data[0]]


# -----------------------------------------------------------------------------
# 10. Sampler throughput
# -----------------------------------------------------------------------------

def test_criterion_10_sampler_throughput(report):
    with report(10, "100k non-backtracking walks of length 100 sampled in "
                    "under 5s; doubling the length scales time by ~2x"):
        g = random_regular_graph(100_000, 4, seed=0)

        # The lengths alternate, so a slow stretch of the machine hits both.
        times = {100: [], 200: []}
        for rep in range(3):
            for length, runs in times.items():
                config = SamplerConfig(length=length, rate=1.0,
                                       non_backtracking=True, seed=rep)
                t0 = time.perf_counter()
                batch = sample_walks(g, config)
                runs.append(time.perf_counter() - t0)
                assert batch.n_walks == 100_000
        base, doubled = (float(np.median(times[n])) for n in (100, 200))
        assert base < 5.0
        assert 1.6 <= doubled / base <= 2.6
