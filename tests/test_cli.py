"""Command-line interface tests (in-process via main(), plus one subprocess)."""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy

from neuralwalker import cli, tensorio
from neuralwalker.cli import main
from neuralwalker.graphs import build_graph, complete_graph, cycle_graph, save_graph
from neuralwalker.model import Model, ModelConfig
from neuralwalker.sampling import walks_from_jsonl
from neuralwalker.training import save_checkpoint


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def parse_lines(out):
    return [json.loads(line) for line in out.strip().splitlines()]


@pytest.fixture
def k3_path(tmp_path):
    path = str(tmp_path / "k3.graph")
    save_graph(complete_graph(3, with_features=True), path)
    return path


@pytest.fixture
def config_path(tmp_path):
    cfg = ModelConfig(hidden_dim=8, n_blocks=1, seq_layer="conv", kernel=3,
                      window=3, walk_length=3, node_dim=1, rate=1.0,
                      head="regression", seed=5)
    path = str(tmp_path / "model.json")
    with open(path, "w") as fh:
        fh.write(cfg.to_json())
    return path


def test_sample_emits_walks_coverage_and_manifest(capsys, k3_path):
    code, out = run_cli(capsys, ["--no-timing", "sample", "--graph", k3_path,
                                 "--length", "4", "--rate", "1.0"])
    assert code == 0
    records = parse_lines(out)
    walks = [r for r in records if "walk_id" in r]
    assert len(walks) == 3
    assert walks[0]["walk_id"] == 0
    coverage = records[-2]
    assert coverage["kind"] == "coverage"
    assert coverage["n_walks"] == 3
    assert coverage["visited_fraction"] == 1.0
    manifest = records[-1]
    assert manifest["kind"] == "manifest"
    assert manifest["command"] == "sample"
    assert "elapsed_s" not in manifest


def test_reruns_are_byte_identical_with_no_timing(capsys, k3_path):
    argv = ["--no-timing", "--seed", "3", "sample", "--graph", k3_path,
            "--length", "5"]
    _, out1 = run_cli(capsys, argv)
    _, out2 = run_cli(capsys, argv)
    assert out1 == out2
    # Without --no-timing the manifest carries a timing field.
    _, out3 = run_cli(capsys, ["--seed", "3", "sample", "--graph", k3_path,
                               "--length", "5"])
    assert "elapsed_s" in parse_lines(out3)[-1]


def test_manifest_records_the_run_environment(capsys, k3_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    argv = ["--no-timing", "--seed", "3", "sample", "--graph", k3_path, "--length", "5"]
    _, out1 = run_cli(capsys, argv)
    _, out2 = run_cli(capsys, argv)
    assert out1 == out2
    env = parse_lines(out1)[-1]["environment"]
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    assert env == {"numpy": np.__version__, "scipy": scipy.__version__,
                   "blas": blas.get("name"), "blas_version": blas.get("version"),
                   "blas_threads_env": {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None},
                   "cpu_count": os.cpu_count(), "cpus_usable": env["cpus_usable"]}
    assert 1 <= env["cpus_usable"] <= env["cpu_count"]


def test_env_seed_overrides_flag(capsys, k3_path, monkeypatch):
    _, base = run_cli(capsys, ["--no-timing", "--seed", "0", "sample",
                               "--graph", k3_path, "--length", "6"])
    monkeypatch.setenv("NW_SEED", "123")
    _, overridden = run_cli(capsys, ["--no-timing", "--seed", "0", "sample",
                                     "--graph", k3_path, "--length", "6"])
    assert parse_lines(overridden)[-1]["seed"] == 123
    assert base != overridden
    monkeypatch.setenv("NW_SEED", "not-a-number")
    code, out = run_cli(capsys, ["sample", "--graph", k3_path, "--length", "2"])
    assert code == 3
    assert parse_lines(out)[0]["kind"] == "error"


def test_oracle_triangles(capsys, tmp_path):
    path = str(tmp_path / "k4.graph")
    save_graph(complete_graph(4), path)
    code, out = run_cli(capsys, ["--no-timing", "oracle", "triangles",
                                 "--graph", path])
    assert code == 0
    records = parse_lines(out)
    assert records[0] == {"kind": "triangles", "triangles": 4}
    assert records[-1]["subcommand"] == "triangles"


def test_oracle_enumerate_and_expect(capsys, k3_path):
    code, out = run_cli(capsys, ["--no-timing", "oracle", "enumerate",
                                 "--graph", k3_path, "--length", "2", "--list"])
    assert code == 0
    records = parse_lines(out)
    walks = [r for r in records if r["kind"] == "walk"]
    assert len(walks) == 12
    assert all(abs(w["prob"] - 1 / 12) < 1e-15 for w in walks)
    summary = [r for r in records if r["kind"] == "enumeration"][0]
    assert summary["n_walks"] == 12
    assert abs(summary["prob_sum"] - 1.0) < 1e-12

    code, out = run_cli(capsys, ["--no-timing", "oracle", "expect",
                                 "--graph", k3_path, "--length", "2"])
    assert code == 0
    value = parse_lines(out)[0]["value"]
    assert abs(value - 0.5) < 1e-12  # third step closes a triangle half the time


def test_oracle_wl_and_separate(capsys, tmp_path):
    from neuralwalker.graphs import disjoint_union
    two_tri, _ = disjoint_union([cycle_graph(3), cycle_graph(3)])
    hexagon = cycle_graph(6)
    p1, p2 = str(tmp_path / "a.graph"), str(tmp_path / "b.graph")
    save_graph(two_tri, p1)
    save_graph(hexagon, p2)
    code, out = run_cli(capsys, ["--no-timing", "oracle", "wl",
                                 "--graph1", p1, "--graph2", p2])
    assert code == 0
    assert parse_lines(out)[0]["indistinguishable"] is True

    code, out = run_cli(capsys, ["--no-timing", "oracle", "separate",
                                 "--graph1", p1, "--graph2", p2,
                                 "--length", "2"])
    assert code == 0
    witness = parse_lines(out)[0]
    assert witness["gap"] >= 0.4


def test_pipeline_composition_matches_in_process(capsys, tmp_path, config_path):
    graph = cycle_graph(5, with_features=True)
    graph_path = str(tmp_path / "c5.graph")
    save_graph(graph, graph_path)
    walks_path = str(tmp_path / "walks.jsonl")

    code, _ = run_cli(capsys, ["--no-timing", "--seed", "7", "sample",
                               "--graph", graph_path, "--length", "3",
                               "--out", walks_path])
    assert code == 0
    code, out = run_cli(capsys, ["--no-timing", "--seed", "7", "forward",
                                 "--graph", graph_path, "--config", config_path,
                                 "--walks", walks_path])
    assert code == 0
    record = parse_lines(out)[0]
    assert record["kind"] == "forward"
    assert record["n_walks"] == 5

    with open(config_path) as fh:
        model = Model(ModelConfig.from_json(fh.read()))
    with open(walks_path) as fh:
        batch = walks_from_jsonl(fh.read())
    result = model.forward(graph, seed=7, walks=batch)
    assert record["prediction"] == [float(x) for x in result.prediction.data[0]]
    assert record["pooled_norm"] == float(np.linalg.norm(result.pooled.data[0]))


def test_encode_digest_matches_written_file(capsys, tmp_path, k3_path):
    walks_path = str(tmp_path / "walks.jsonl")
    run_cli(capsys, ["--no-timing", "sample", "--graph", k3_path,
                     "--length", "4", "--out", walks_path])
    out_path = str(tmp_path / "feats.nwtf")
    code, out = run_cli(capsys, ["--no-timing", "encode", "--graph", k3_path,
                                 "--walks", walks_path, "--window", "3",
                                 "--out", out_path])
    assert code == 0
    record = parse_lines(out)[0]
    assert record["shape"] == [3, 5, 1 + 0 + 5]   # d=1, no edge feats, 2*3-1
    with open(out_path, "rb") as fh:
        assert record["sha256"] == hashlib.sha256(fh.read()).hexdigest()


def test_encode_serialises_the_features_once(capsys, tmp_path, k3_path, monkeypatch):
    walks_path = str(tmp_path / "walks.jsonl")
    run_cli(capsys, ["--no-timing", "sample", "--graph", k3_path,
                     "--length", "4", "--out", walks_path])
    calls = []
    dumps = tensorio.dumps_tensor

    def spy(arr):
        calls.append(arr.shape)
        return dumps(arr)
    # Both names: the CLI's own and the one tensorio's writers look up.
    monkeypatch.setattr(cli, "dumps_tensor", spy)
    monkeypatch.setattr(tensorio, "dumps_tensor", spy)
    out_path = tmp_path / "feats.nwtf"
    code, out = run_cli(capsys, ["--no-timing", "encode", "--graph", k3_path,
                                 "--walks", walks_path, "--out", str(out_path)])
    assert code == 0
    assert len(calls) == 1
    assert parse_lines(out)[0]["sha256"] == hashlib.sha256(out_path.read_bytes()).hexdigest()


def _write_c5_walks(tmp_path, nodes, slots):
    graph_path = str(tmp_path / "c5.graph")
    save_graph(cycle_graph(5, with_features=True), graph_path)
    walks_path = tmp_path / "walks.jsonl"
    walks_path.write_text(json.dumps({"walk_id": 0, "nodes": nodes, "edge_slots": slots,
                                      "mask": [1] * len(nodes)}) + "\n")
    return graph_path, str(walks_path)


def _walk_commands(graph_path, walks_path, config_path):
    return [["encode", "--graph", graph_path, "--walks", walks_path],
            ["forward", "--graph", graph_path, "--config", config_path,
             "--walks", walks_path]]


def test_walks_file_node_outside_graph_exits_3(capsys, tmp_path, config_path):
    # C5 has nodes 0..4; slot 3 is the arc 1 -> 2.
    graph_path, walks_path = _write_c5_walks(tmp_path, [0, 1, 7], [0, 3])
    for argv in _walk_commands(graph_path, walks_path, config_path):
        code, out = run_cli(capsys, argv)
        assert code == 3
        assert parse_lines(out)[0]["error"] == "BadIndex"


def test_walks_file_slot_off_the_walk_exits_3(capsys, tmp_path, config_path):
    # 0 -> 2 is not an edge of C5, and slot 0 is the arc 0 -> 1.
    graph_path, walks_path = _write_c5_walks(tmp_path, [0, 2, 3], [0, 5])
    for argv in _walk_commands(graph_path, walks_path, config_path):
        code, out = run_cli(capsys, argv)
        assert code == 3
        assert parse_lines(out)[0]["error"] == "ParseError"


def test_walks_file_fractional_node_exits_3(capsys, tmp_path, config_path):
    graph_path, walks_path = _write_c5_walks(tmp_path, [0, 0.7, 2], [0, 3])
    for argv in _walk_commands(graph_path, walks_path, config_path):
        code, out = run_cli(capsys, argv)
        assert code == 3
        assert parse_lines(out)[0]["error"] == "ParseError"


def test_walks_file_boolean_node_exits_3(capsys, tmp_path, config_path):
    graph_path, walks_path = _write_c5_walks(tmp_path, [0, True, 2], [0, 3])
    for argv in _walk_commands(graph_path, walks_path, config_path):
        code, out = run_cli(capsys, argv)
        assert code == 3
        assert parse_lines(out)[0]["error"] == "ParseError"


def test_walks_stopping_at_a_directed_sink_round_trip_through_the_cli(
        capsys, tmp_path, config_path):
    # Node 2 has out-degree 0: walks that reach it stay there with slot -1.
    graph = build_graph(3, [(0, 1), (1, 2)], node_features=np.eye(3)[:, :1],
                        directed=True)
    graph_path = str(tmp_path / "sink.graph")
    save_graph(graph, graph_path)
    walks_path = str(tmp_path / "walks.jsonl")
    code, _ = run_cli(capsys, ["--no-timing", "sample", "--graph", graph_path,
                               "--length", "3", "--out", walks_path])
    assert code == 0
    for argv in _walk_commands(graph_path, walks_path, config_path):
        code, out = run_cli(capsys, ["--no-timing"] + argv)
        assert code == 0
        assert parse_lines(out)[0]["kind"] in ("features", "forward")


# Bytes that are not UTF-8: a UTF-16 byte-order mark, then a lone continuation byte.
_NOT_UTF8 = b"\xff\xfe\x80"


def _assert_parse_error(capsys, argv):
    code, out = run_cli(capsys, argv)
    assert code == 3
    assert parse_lines(out)[0]["error"] == "ParseError"


def test_non_utf8_graph_file_exits_3(capsys, tmp_path):
    path = tmp_path / "bad.graph"
    path.write_bytes(b"graph 2 0 0 0\n0\n1\n" + _NOT_UTF8 + b"\n")
    _assert_parse_error(capsys, ["sample", "--graph", str(path), "--length", "2"])


def test_non_utf8_walks_file_exits_3(capsys, tmp_path, config_path):
    graph_path, walks_path = _write_c5_walks(tmp_path, [0, 1, 2], [0, 3])
    with open(walks_path, "rb") as fh:
        text = fh.read()
    with open(walks_path, "wb") as fh:
        fh.write(_NOT_UTF8 + text)
    for argv in _walk_commands(graph_path, walks_path, config_path):
        _assert_parse_error(capsys, argv)


def test_non_utf8_config_file_exits_3(capsys, tmp_path, k3_path):
    path = tmp_path / "model.json"
    path.write_bytes(_NOT_UTF8)
    _assert_parse_error(capsys, ["forward", "--graph", k3_path, "--config", str(path)])
    _assert_parse_error(capsys, ["train", "--task", "cycle_path", "--config", str(path)])


@pytest.mark.parametrize("sidecar", [_NOT_UTF8, b"not json", b"[1]", b'{"config": 3}'])
def test_bad_checkpoint_manifest_exits_3(capsys, tmp_path, k3_path, config_path, sidecar):
    with open(config_path) as fh:
        model = Model(ModelConfig.from_json(fh.read()))
    ckpt = str(tmp_path / "model.nwtf")
    save_checkpoint(model, ckpt)
    with open(ckpt + ".json", "wb") as fh:
        fh.write(sidecar)
    _assert_parse_error(capsys, ["forward", "--graph", k3_path, "--model", ckpt])


def test_exit_codes(capsys, tmp_path, k3_path):
    # 2: argparse usage error
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--graph"])
    assert exc.value.code == 2
    capsys.readouterr()

    # 3: unreadable and unparsable inputs
    code, out = run_cli(capsys, ["sample", "--graph",
                                 str(tmp_path / "missing.graph"),
                                 "--length", "2"])
    assert code == 3
    garbage = tmp_path / "garbage.graph"
    garbage.write_text("not a graph\n")
    code, out = run_cli(capsys, ["sample", "--graph", str(garbage),
                                 "--length", "2"])
    assert code == 3
    assert parse_lines(out)[0]["error"] == "ParseError"

    # 4: resource guard on an exploding enumeration
    big = tmp_path / "k6.graph"
    save_graph(complete_graph(6), str(big))
    code, out = run_cli(capsys, ["oracle", "enumerate", "--graph", str(big),
                                 "--length", "20"])
    assert code == 4
    assert parse_lines(out)[0]["kind"] == "error"


def test_bench_sweep_writes_csv(capsys, tmp_path):
    graph_path = str(tmp_path / "c10.graph")
    save_graph(cycle_graph(10, with_features=True), graph_path)
    csv_path = str(tmp_path / "bench.csv")
    code, out = run_cli(capsys, ["--no-timing", "bench", "--graph", graph_path,
                                 "--sweep", "rate=0.5,1.0;length=2,4",
                                 "--repeats", "1", "--out", csv_path])
    assert code == 0
    rows = [r for r in parse_lines(out) if r["kind"] == "bench"]
    assert [(r["rate"], r["length"]) for r in rows] == [
        (0.5, 2), (0.5, 4), (1.0, 2), (1.0, 4)]
    with open(csv_path) as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0] == "rate,length,n_walks,seconds"
    assert len(lines) == 5


@pytest.mark.parametrize("flags, error", [
    (["--sweep", "rate=abc"], "ParseError"),
    (["--sweep", "length=x"], "ParseError"),
    (["--repeats", "0"], "NeuralWalkerError"),
])
def test_bench_with_a_bad_sweep_or_repeat_count_exits_3(capsys, tmp_path, flags, error):
    graph_path = str(tmp_path / "c10.graph")
    save_graph(cycle_graph(10), graph_path)
    code, out = run_cli(capsys, ["bench", "--graph", graph_path, *flags])
    assert code == 3
    records = parse_lines(out)
    assert [r["kind"] for r in records] == ["error"]
    assert records[0]["error"] == error


# On K3 these ask for about 2.2 TiB (walk nodes) and 0.9 TiB (features of
# 21-position walks): more than any test machine can back, so the allocation
# fails at once instead of paging.
@pytest.mark.parametrize("command", [["sample", "--length", "100000000000"],
                                     ["encode", "--window", "1000000000"]])
def test_an_allocation_larger_than_memory_exits_4(capsys, tmp_path, k3_path, command):
    walks_path = str(tmp_path / "walks.jsonl")
    code, _ = run_cli(capsys, ["sample", "--graph", k3_path, "--length", "20",
                               "--out", walks_path])
    assert code == 0
    extra = ["--walks", walks_path] if command[0] == "encode" else []
    code, out = run_cli(capsys, [command[0], "--graph", k3_path, *extra, *command[1:]])
    assert code == 4
    records = parse_lines(out)
    assert [r["kind"] for r in records] == ["error"]
    assert records[0]["error"] == "MemoryError"


def test_train_eval_forward_round_trip(capsys, tmp_path, config_path):
    from neuralwalker.datasets import make_cycle_path_dataset, save_dataset
    data_dir = str(tmp_path / "data")
    save_dataset(make_cycle_path_dataset(seed=0, n_train=8, n_val=4, n_test=4,
                                         min_nodes=4, max_nodes=6), data_dir)
    out_dir = str(tmp_path / "run")
    code, out = run_cli(capsys, ["--no-timing", "train", "--data", data_dir,
                                 "--config", config_path, "--epochs", "2",
                                 "--out", out_dir])
    assert code == 0
    records = parse_lines(out)
    assert sum(r["kind"] == "metric" for r in records) >= 4
    trained = [r for r in records if r["kind"] == "trained"][0]
    assert trained["epochs_run"] == 2
    ckpt = out_dir + "/model.nwtf"
    assert records[-1]["outputs"] == sorted([ckpt, ckpt + ".json"])

    code, out = run_cli(capsys, ["--no-timing", "eval", "--data", data_dir,
                                 "--model", ckpt, "--split", "test",
                                 "--repeat", "2"])
    assert code == 0
    ev = parse_lines(out)[0]
    assert ev["kind"] == "eval" and ev["metric"] == "accuracy"
    assert len(ev["values"]) == 2

    graph_path = str(tmp_path / "c4.graph")
    save_graph(cycle_graph(4, with_features=True), graph_path)
    code, out = run_cli(capsys, ["--no-timing", "forward", "--graph", graph_path,
                                 "--model", ckpt])
    assert code == 0
    assert parse_lines(out)[0]["kind"] == "forward"


@pytest.mark.parametrize("flags", [["--eval-every", "0"], ["--eval-every", "-1"],
                                   ["--target", "nan"]])
def test_train_with_a_schedule_it_cannot_follow_exits_3(capsys, tmp_path, config_path,
                                                        flags):
    from neuralwalker.datasets import make_cycle_path_dataset, save_dataset
    data_dir = str(tmp_path / "data")
    save_dataset(make_cycle_path_dataset(seed=0, n_train=4, n_val=2, n_test=2,
                                         min_nodes=4, max_nodes=5), data_dir)
    code, out = run_cli(capsys, ["train", "--data", data_dir, "--config", config_path,
                                 "--epochs", "2", *flags])
    assert code == 3
    records = parse_lines(out)
    assert [r["kind"] for r in records] == ["error"]
    assert records[0]["error"] == "BadSchedule"


@pytest.mark.parametrize("repeat", ["0", "-2"])
def test_eval_with_fewer_than_one_resampling_exits_3(capsys, tmp_path, config_path, repeat):
    from neuralwalker.datasets import make_cycle_path_dataset, save_dataset
    data_dir = str(tmp_path / "data")
    save_dataset(make_cycle_path_dataset(seed=0, n_train=4, n_val=2, n_test=2,
                                         min_nodes=4, max_nodes=5), data_dir)
    with open(config_path) as fh:
        ckpt = str(tmp_path / "model.nwtf")
        save_checkpoint(Model(ModelConfig.from_json(fh.read())), ckpt)
    code, out = run_cli(capsys, ["eval", "--data", data_dir, "--model", ckpt,
                                 "--repeat", repeat])
    assert code == 3
    records = parse_lines(out)
    assert [r["kind"] for r in records] == ["error"]
    assert records[0]["error"] == "BadSchedule"


def test_data_command_materializes_dataset(capsys, tmp_path):
    out_dir = str(tmp_path / "ds")
    code, out = run_cli(capsys, ["--no-timing", "data", "--task", "cycle_path",
                                 "--out", out_dir])
    assert code == 0
    record = parse_lines(out)[0]
    assert record["kind"] == "dataset"
    assert record["n_graphs"] == 350
    from neuralwalker.datasets import load_dataset
    assert len(load_dataset(out_dir).graphs) == 350


def test_module_entry_point_runs_as_subprocess(tmp_path):
    path = str(tmp_path / "k4.graph")
    save_graph(complete_graph(4), path)
    proc = subprocess.run(
        [sys.executable, "-m", "neuralwalker.cli", "--no-timing",
         "oracle", "triangles", "--graph", path],
        capture_output=True, text=True)
    assert proc.returncode == 0
    first = json.loads(proc.stdout.strip().splitlines()[0])
    assert first["triangles"] == 4


def test_transformer_forward_on_an_empty_graph_exits_0(capsys, tmp_path):
    graph_path = tmp_path / "empty.graph"
    graph_path.write_text("graph 0 1 0 0\n")
    config = tmp_path / "model.json"
    config.write_text(json.dumps({"global_mp": "transformer", "head": "regression"}))
    code, out = run_cli(capsys, ["--no-timing", "forward", "--graph", str(graph_path),
                                 "--config", str(config)])
    assert code == 0
    record = parse_lines(out)[0]
    assert record["n_nodes"] == 0 and record["prediction"] == [0.0]


def test_node_level_forward_prints_one_row_per_node(capsys, tmp_path):
    graph = cycle_graph(4, with_features=True)
    graph_path = str(tmp_path / "c4.graph")
    save_graph(graph, graph_path)
    cfg = ModelConfig(hidden_dim=8, n_blocks=1, kernel=3, window=3, walk_length=3,
                      head="regression", pooling="none", seed=5)
    config = tmp_path / "model.json"
    config.write_text(cfg.to_json())
    code, out = run_cli(capsys, ["--no-timing", "--seed", "7", "forward",
                                 "--graph", graph_path, "--config", str(config)])
    assert code == 0
    record = parse_lines(out)[0]
    want = Model(cfg).forward(graph, seed=7).prediction.data
    assert want.shape == (4, 1)
    assert record["prediction"] == want.tolist()


@pytest.mark.parametrize("node_dim, edge_dim", [(1, 2), (2, 0)],
                         ids=["edge-features-the-config-lacks", "wider-node-features"])
def test_forward_with_feature_widths_other_than_the_configs_exits_3(capsys, tmp_path,
                                                                    node_dim, edge_dim):
    graph_path = str(tmp_path / "p3.graph")
    save_graph(build_graph(3, [(0, 1), (1, 2)], node_features=np.ones((3, node_dim)),
                           edge_features=np.ones((2, edge_dim))), graph_path)
    config = tmp_path / "model.json"
    config.write_text(json.dumps({"hidden_dim": 8, "n_blocks": 1, "node_dim": 1,
                                  "edge_dim": 0, "head": "regression", "window": 3,
                                  "walk_length": 3}))
    code, out = run_cli(capsys, ["forward", "--graph", graph_path, "--config", str(config)])
    assert code == 3
    records = parse_lines(out)
    assert [r["kind"] for r in records] == ["error"]
    assert records[0]["error"] == "ShapeError"
    assert f"({node_dim}, {edge_dim}) != config" in records[0]["message"]


@pytest.mark.parametrize("dims", [(1 << 33, 1 << 31), ((1 << 64) - 1,), (0, 1 << 63)],
                         ids=["product-wraps", "dim-wraps", "zero-then-huge"])
def test_forward_on_a_checkpoint_with_corrupt_dims_exits_4(capsys, tmp_path, k3_path,
                                                           config_path, dims):
    with open(config_path) as fh:
        model = Model(ModelConfig.from_json(fh.read()))
    ckpt = tmp_path / "model.nwtf"
    save_checkpoint(model, str(ckpt))
    buf = ckpt.read_bytes()
    header = tensorio.MAGIC + bytes([len(dims)]) + b"".join(
        d.to_bytes(8, "little") for d in dims)
    ckpt.write_bytes(header + buf[5 + 8 * buf[4]:])
    code, out = run_cli(capsys, ["forward", "--graph", k3_path, "--model", str(ckpt)])
    assert code == 4
    records = parse_lines(out)
    assert [r["kind"] for r in records] == ["error"]
    assert records[0]["error"] == "TooLarge"


@pytest.mark.parametrize("fields, error", [
    ({"hidden_dim": "x"}, "ParseError"),
    ({"n_blocks": 2.5}, "ParseError"),
    ({"bidirectional": 1}, "ParseError"),
    ({"rate": True}, "ParseError"),
    ({"seq_layer": 3}, "ParseError"),
    ({"n_blocks": -1}, "ShapeError"),
    ({"hidden_dim": 0}, "ShapeError"),
    ({"window": 0}, "BadWindow"),
    ({"walk_length": 0}, "BadLength"),
    ({"rate": -1.0}, "TooManyWalks"),
    ({"rate": 7.0}, "TooManyWalks"),
    ({"eval_rate": 0.0}, "TooManyWalks"),
    ({"base_lr": float("nan")}, "BadSchedule"),
    ({"seed": -1}, "SamplerError"),
    ({"kernel": 4}, "BadKernel"),
    ({"global_mp": "transformer", "hidden_dim": 6, "heads": 4}, "BadHeads"),
    ({"start_distribution": "degree"}, "Unsupported"),
])
def test_config_with_a_bad_value_exits_3(capsys, tmp_path, k3_path, fields, error):
    config = tmp_path / "model.json"
    config.write_text(json.dumps({"hidden_dim": 8, "n_blocks": 1, **fields}))
    code, out = run_cli(capsys, ["forward", "--graph", k3_path, "--config", str(config)])
    assert code == 3
    assert parse_lines(out)[0]["error"] == error


@pytest.mark.parametrize("fields", [
    {"graphs": 3},
    {"splits": [1, 2]},
    {"splits": {"train": [0.5]}},
    {"n_classes": "x"},
    {"targets": "abc"},
    {"targets": [0.5, 1, 0, 1]},
    {"targets": [5, 1, 0, 1]},
    {"n_classes": 1},
    {"name": None},
])
def test_dataset_json_with_a_bad_field_type_exits_3(capsys, tmp_path, fields):
    from neuralwalker.datasets import make_cycle_path_dataset, save_dataset
    data_dir = tmp_path / "data"
    save_dataset(make_cycle_path_dataset(seed=0, n_train=2, n_val=1, n_test=1,
                                         min_nodes=4, max_nodes=5), str(data_dir))
    manifest = json.loads((data_dir / "dataset.json").read_text())
    (data_dir / "dataset.json").write_text(json.dumps({**manifest, **fields}))
    _assert_parse_error(capsys, ["train", "--data", str(data_dir), "--epochs", "1"])


@pytest.mark.parametrize("task,fields", [
    ("cycle_path", {"head": "none"}),
    ("cycle_path", {"head": "classification", "pooling": "none"}),    # node-level head
    ("cycle_path", {"head": "regression"}),
    ("triangle_count", {"head": "classification"}),
    ("triangle_count", {"head": "regression", "out_dim": 3}),
])
def test_eval_with_a_head_that_does_not_fit_the_task_exits_3(capsys, tmp_path, task, fields):
    from neuralwalker.datasets import make_dataset, save_dataset
    data_dir = str(tmp_path / "data")
    save_dataset(make_dataset(task, seed=0, n_train=4, n_val=2, n_test=2,
                              min_nodes=4, max_nodes=5), data_dir)
    ckpt = str(tmp_path / "model.nwtf")
    save_checkpoint(Model(ModelConfig(hidden_dim=8, n_blocks=1, seq_layer="conv", kernel=3,
                                      window=3, walk_length=3, node_dim=1, seed=5,
                                      **fields)), ckpt)
    code, out = run_cli(capsys, ["eval", "--data", data_dir, "--model", ckpt,
                                 "--split", "test"])
    assert code == 3
    records = parse_lines(out)
    assert [r["kind"] for r in records] == ["error"]
    assert records[0]["error"] == "ShapeError"


def test_threads_flag_is_gone(capsys, k3_path):
    with pytest.raises(SystemExit) as exc:
        main(["--threads", "2", "sample", "--graph", k3_path, "--length", "2"])
    assert exc.value.code == 2


@pytest.fixture
def empty_data_dirs(tmp_path):
    """Dataset directories with no graphs, an empty val split, and an empty
    train split."""
    from neuralwalker.datasets import TaskDataset, make_cycle_path_dataset, save_dataset
    dirs = {"no_graphs": TaskDataset(name="none", task="classification", graphs=[],
                                     targets=np.zeros(0, dtype=np.int64),
                                     splits={"train": [], "val": [], "test": []}),
            "empty_val": make_cycle_path_dataset(seed=0, n_train=4, n_val=0, n_test=2,
                                                 min_nodes=4, max_nodes=5),
            "empty_train": make_cycle_path_dataset(seed=0, n_train=0, n_val=2, n_test=2,
                                                   min_nodes=4, max_nodes=5)}
    for name, dataset in dirs.items():
        save_dataset(dataset, str(tmp_path / name))
    return {name: str(tmp_path / name) for name in dirs}


@pytest.mark.parametrize("case", ["no_graphs", "empty_val", "empty_train"])
def test_train_on_an_empty_split_exits_3(capsys, empty_data_dirs, config_path, case):
    code, out = run_cli(capsys, ["train", "--data", empty_data_dirs[case],
                                 "--config", config_path, "--epochs", "1"])
    assert code == 3
    assert "NaN" not in out
    records = parse_lines(out)
    assert [r["kind"] for r in records] == ["error"]
    assert records[0]["error"] == "ParseError"
    assert "is empty" in records[0]["message"]


@pytest.mark.parametrize("case,split", [("no_graphs", "test"), ("empty_val", "val")])
def test_eval_on_an_empty_split_exits_3(capsys, tmp_path, empty_data_dirs, config_path,
                                        case, split):
    with open(config_path) as fh:
        ckpt = str(tmp_path / "model.nwtf")
        save_checkpoint(Model(ModelConfig.from_json(fh.read())), ckpt)
    code, out = run_cli(capsys, ["eval", "--data", empty_data_dirs[case], "--model", ckpt,
                                 "--split", split])
    assert code == 3
    records = parse_lines(out)
    assert [r["kind"] for r in records] == ["error"]
    assert records[0]["error"] == "ParseError"
