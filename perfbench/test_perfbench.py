"""Self-tests of the benchmark at tiny sizes: ``python3 -m pytest -q perfbench``."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from neuralwalker import encoding, graphs, sampling  # noqa: E402

from perfbench import checks, run, tracing  # noqa: E402
from perfbench.workloads import TINY, WORKLOADS  # noqa: E402


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_what_the_code_emits():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        tracing.per_layer_spec()
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_end_to_end_metrics_are_emitted_with_their_units(name):
    result, details = run.measure(name, seed=3, seconds=0.2, trace=False, sizes=TINY)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], details["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(math.isfinite(v["value"]) and v["value"] > 0
               for v in result["metrics"].values())


# The spans and counts each workload must reach; every other one reads 0.
_NOT_IN_TRAIN = {"seqlayers.selective", "model.global_mp_transformer", "autodiff.softmax",
                 "autodiff.associative_scan", "autodiff.zoh_phi", "sampling.sample_walks",
                 "sampling.jsonl", "encoding.walk_feature_matrix", "tensorio.dumps_tensor",
                 "tensorio.checkpoint", "tensorio.bytes"}
_NOT_IN_EVAL = {"seqlayers.conv", "autodiff.conv1d_depthwise", "autodiff.backward",
                "autodiff.tape_records", "optim.step", "training.train_model",
                "training.regression_loss", "model.global_mp_virtual_node",
                "sampling.sample_walks", "sampling.jsonl", "encoding.walk_feature_matrix"}
_ALL = set(tracing.SPAN_NAMES) | {n for n, _, _ in tracing.COUNTS[:6]}
EXERCISED = {
    "train_triangle": _ALL - _NOT_IN_TRAIN,
    "eval_ssm": _ALL - _NOT_IN_EVAL,
    "walks_100k": {"graphs.has_edges", "sampling.sample_walks", "sampling.jsonl",
                   "encoding.walk_feature_matrix", "tensorio.dumps_tensor",
                   "graphs.has_edges.queries", "sampling.walk_steps",
                   "sampling.valid_position_share", "encoding.bytes_out", "tensorio.bytes"},
}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_reaches_its_layers_and_restores_the_package(name):
    originals = {(o, a): o.__dict__[a] for _, targets, _ in tracing.SPANS for o, a in targets}
    result, details = run.measure(name, seed=1, seconds=0.2, trace=True, sizes=TINY)
    assert result["correct"], details["problems"]  # includes the tracer-consistency check
    assert all(o.__dict__[a] is f for (o, a), f in originals.items())
    want = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    m = {k: v["value"] for k, v in result["metrics"].items()}
    reached = {n for n in tracing.SPAN_NAMES if m[f"{n}.calls"] > 0}
    reached |= {n for n, _, _ in tracing.COUNTS[:6] if m[n] > 0}
    assert reached == EXERCISED[name]
    assert m["trace.op_ms"] > 0 and m["other"] >= 0
    assert 0 < m["trace.span_coverage"] <= 1


def test_train_step_counts():
    result, _ = run.measure("train_triangle", seed=1, seconds=0.2, trace=True, sizes=TINY)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["autodiff.backward.calls"] == 1.0          # one backward per step
    assert m["optim.step.calls"] == 1.0
    assert m["datasets.make_dataset.calls"] == 1.0      # per set-up


def test_consistency_check_flags_a_span_outside_its_op():
    rec = tracing.Recorder(tracing=True)
    rec.phase = tracing.RUN
    rec.begin_op()
    work = rec.wrap("model.forward", lambda: sum(range(1000)))
    work()
    rec.end_op()
    assert tracing.consistency_errors(rec) == []
    rec.spans[1][3] = -1                                # detach the child span
    assert tracing.consistency_errors(rec)


def _featured_graph():
    base = graphs.random_regular_graph(30, 4, seed=5)
    keep = base.slot_src < base.col_indices
    edges = np.stack([base.slot_src[keep], base.col_indices[keep]], axis=1)
    rng = np.random.default_rng(0)
    return graphs.build_graph(30, edges, node_features=rng.normal(size=(30, 2)),
                              edge_features=rng.normal(size=(len(edges), 3)))


def _walks(graph, length=6):
    config = sampling.SamplerConfig(length=length, rate=1.0, non_backtracking=True, seed=2)
    return sampling.sample_walks(graph, config)


def test_clean_walks_and_features_pass_the_checks():
    g = _featured_graph()
    batch = _walks(g)
    feats = encoding.walk_feature_matrix(g, batch, window=4)
    rows = checks.reference_rows(batch.n_walks, 8)
    assert checks.walk_problems(g, batch, 6, True) == []
    assert checks.roundtrip_problems(
        batch, sampling.walks_from_jsonl(sampling.walks_to_jsonl(batch))) == []
    assert checks.feature_problems(g, batch, feats, 4, rows) == []


def test_wrong_edge_slot_is_rejected():
    g = _featured_graph()
    batch = _walks(g)
    slot = batch.edge_slots[0, 2]
    row = slice(g.row_offsets[g.slot_src[slot]], g.row_offsets[g.slot_src[slot] + 1])
    batch.edge_slots[0, 2] = next(s for s in range(row.start, row.stop) if s != slot)
    assert checks.walk_problems(g, batch, 6, True)


def test_backtracking_step_is_rejected():
    g = _featured_graph()
    batch = _walks(g)
    u, v = batch.nodes[0, 0], batch.nodes[0, 1]
    batch.nodes[0, 2] = u                               # step straight back
    batch.edge_slots[0, 1] = g.edge_slot(int(v), int(u))
    assert any("backtrack" in p for p in checks.walk_problems(g, batch, 6, True))


def test_corrupted_feature_row_is_rejected():
    g = _featured_graph()
    batch = _walks(g)
    rows = checks.reference_rows(batch.n_walks, 8)
    feats = encoding.walk_feature_matrix(g, batch, window=4)
    feats[rows[3], 2, -1] = 1.0 - feats[rows[3], 2, -1]  # flip one adjacency flag
    assert checks.feature_problems(g, batch, feats, 4, rows)


def test_changed_roundtrip_is_rejected():
    batch = _walks(_featured_graph())
    reread = sampling.walks_from_jsonl(sampling.walks_to_jsonl(batch))
    reread.mask[1, -1] = False
    assert checks.roundtrip_problems(batch, reread)


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail([1.0] * 19) is None
    t = run.tail([float(x) for x in range(200)])
    assert t["percentile"] == 95.0 and t["samples"] == 200
    assert sum(x > t["value"] for x in range(200)) >= 10


def test_run_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "walks_100k",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
