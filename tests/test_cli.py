"""Command-line interface tests (in-process via main(), plus one subprocess)."""

import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from neuralwalker.cli import main
from neuralwalker.graphs import complete_graph, cycle_graph, save_graph
from neuralwalker.model import Model, ModelConfig
from neuralwalker.sampling import walks_from_jsonl


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
