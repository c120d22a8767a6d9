"""Dataset builder and on-disk format tests."""

import hashlib
import json

import numpy as np
import pytest

from neuralwalker.datasets import (
    TaskDataset,
    load_dataset,
    make_cycle_path_dataset,
    make_dataset,
    make_triangle_count_dataset,
    save_dataset,
)
from neuralwalker.errors import ParseError
from neuralwalker.graphs import path_graph
from neuralwalker.oracle import triangle_count


def test_cycle_path_labels_match_topology():
    ds = make_cycle_path_dataset(seed=0, n_train=20, n_val=5, n_test=5,
                                 min_nodes=4, max_nodes=8)
    assert ds.task == "classification"
    assert ds.n_classes == 2
    assert len(ds.graphs) == 30
    for g, label in zip(ds.graphs, ds.targets):
        assert 4 <= g.n_nodes <= 8
        assert g.node_features.shape == (g.n_nodes, 1)
        is_cycle = bool((g.degrees() == 2).all())
        assert label == (1 if is_cycle else 0)
    assert set(ds.targets.tolist()) == {0, 1}


def test_triangle_targets_match_oracle():
    ds = make_triangle_count_dataset(seed=2, n_train=10, n_val=4, n_test=4,
                                     min_nodes=6, max_nodes=8)
    assert ds.task == "regression"
    for g, t in zip(ds.graphs, ds.targets):
        assert 6 <= g.n_nodes <= 8
        assert t == float(triangle_count(g))


@pytest.mark.parametrize("seed,sha", [
    (0, "c9534f2fadad0387eaa54535d14c840961723ba0cba792bc8df6cb14628cecf4"),
    (7, "22ca2a5a65c5cc1e0e40eb35d5ee39198d6aa70339da9fb117c1fab1055bca70"),
])
def test_triangle_count_dataset_bytes_are_pinned(seed, sha):
    """sha256 over each graph's array digest, in order, then the targets."""
    ds = make_dataset("triangle_count", seed=seed)
    digest = hashlib.sha256()
    for g in ds.graphs:
        graph_digest = hashlib.sha256()
        for a in (g.row_offsets, g.col_indices, g.node_features, g.edge_features):
            graph_digest.update(repr(a.shape).encode())
            graph_digest.update(a.tobytes())
        digest.update(graph_digest.hexdigest().encode())
    digest.update(ds.targets.tobytes())
    assert digest.hexdigest() == sha


def test_splits_partition_the_samples():
    ds = make_cycle_path_dataset(seed=1, n_train=8, n_val=3, n_test=4)
    pieces = [np.asarray(ds.splits[k]) for k in ("train", "val", "test")]
    assert [len(p) for p in pieces] == [8, 3, 4]
    merged = np.concatenate(pieces)
    assert sorted(merged.tolist()) == list(range(15))
    graphs, targets = ds.subset("val")
    assert len(graphs) == 3 and targets.shape == (3,)
    with pytest.raises(ParseError, match="no split"):
        ds.subset("holdout")


def test_dataset_validation_errors():
    g = path_graph(3, with_features=True)
    with pytest.raises(ParseError, match="unknown task"):
        TaskDataset(name="x", task="ranking", graphs=[g], targets=np.zeros(1))
    with pytest.raises(ParseError, match="differ in length"):
        TaskDataset(name="x", task="regression", graphs=[g], targets=np.zeros(2))
    with pytest.raises(ParseError, match="out of range"):
        TaskDataset(name="x", task="regression", graphs=[g],
                    targets=np.zeros(1), splits={"train": [0, 1]})


def test_make_dataset_dispatch():
    ds = make_dataset("cycle_path", seed=0, n_train=4, n_val=2, n_test=2)
    assert ds.name == "cycle_path"
    with pytest.raises(ParseError, match="unknown dataset"):
        make_dataset("molecules")


def test_save_load_round_trip(tmp_path):
    ds = make_triangle_count_dataset(seed=3, n_train=5, n_val=2, n_test=2,
                                     min_nodes=6, max_nodes=7)
    directory = str(tmp_path / "ds")
    save_dataset(ds, directory)
    back = load_dataset(directory)
    assert back.name == ds.name and back.task == ds.task
    assert back.n_classes == ds.n_classes
    assert (back.targets == ds.targets).all()
    assert back.targets.dtype == np.float64
    for k in ds.splits:
        assert (np.asarray(back.splits[k]) == np.asarray(ds.splits[k])).all()
    for g1, g2 in zip(ds.graphs, back.graphs):
        assert g1.n_nodes == g2.n_nodes
        assert (g1.col_indices == g2.col_indices).all()
        assert (g1.row_offsets == g2.row_offsets).all()
        assert (g1.node_features == g2.node_features).all()


def test_classification_targets_round_trip_as_ints(tmp_path):
    ds = make_cycle_path_dataset(seed=4, n_train=4, n_val=2, n_test=2)
    directory = str(tmp_path / "ds")
    save_dataset(ds, directory)
    back = load_dataset(directory)
    assert back.targets.dtype == np.int64
    assert (back.targets == ds.targets).all()


def test_load_errors(tmp_path):
    with pytest.raises(ParseError, match="no dataset.json"):
        load_dataset(str(tmp_path / "missing"))

    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "dataset.json").write_text("{broken")
    with pytest.raises(ParseError, match="bad dataset.json"):
        load_dataset(str(bad))

    incomplete = tmp_path / "incomplete"
    incomplete.mkdir()
    (incomplete / "dataset.json").write_text(json.dumps({"name": "x"}))
    with pytest.raises(ParseError, match="missing key"):
        load_dataset(str(incomplete))
