"""Toy task datasets and their on-disk format.

Two bundled tasks exercise the full pipeline end to end:

* ``cycle_path`` -- binary classification of cycle graphs versus path graphs
  on 4..10 nodes with constant node features, so topology (walks closing on
  themselves) is the only signal.
* ``triangle_count`` -- regression of the triangle count of sparse random
  graphs on 6..10 nodes; the adjacency flags of walk encodings carry the
  signal.

A dataset directory holds one graph file per sample plus ``dataset.json``
with the task kind, targets, and split index lists.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError
from .graphs import (_read_text, cycle_graph, erdos_renyi_graph, load_graph,
                     path_graph, save_graph)
from .oracle import triangle_count

__all__ = [
    "TaskDataset",
    "make_cycle_path_dataset",
    "make_triangle_count_dataset",
    "make_dataset",
    "save_dataset",
    "load_dataset",
    "TASK_BUILDERS",
]


@dataclass
class TaskDataset:
    """Graphs, per-graph targets, and named index splits."""

    name: str
    task: str                       # classification | regression
    graphs: list
    targets: np.ndarray             # (G,) int64 labels or float64 values
    splits: dict = field(default_factory=dict)
    n_classes: int = 2

    def __post_init__(self) -> None:
        if self.task not in ("classification", "regression"):
            raise ParseError(f"unknown task {self.task!r}")
        if len(self.graphs) != len(self.targets):
            raise ParseError("graphs and targets differ in length")
        labels = np.asarray(self.targets)
        if self.task == "classification" and labels.size and (
                labels.min() < 0 or labels.max() >= self.n_classes):
            raise ParseError(f"class labels must lie in [0, {self.n_classes})")
        for name, idx in self.splits.items():
            idx = np.asarray(idx)
            if idx.size and (idx.min() < 0 or idx.max() >= len(self.graphs)):
                raise ParseError(f"split {name!r} indexes out of range")

    def subset(self, split: str) -> tuple[list, np.ndarray]:
        """The graphs and targets of ``split``.

        Raises
        ------
        ParseError
            If the dataset has no split of that name, or it is empty.
        """
        if split not in self.splits:
            raise ParseError(f"no split {split!r}; have {sorted(self.splits)}")
        idx = np.asarray(self.splits[split], dtype=np.int64)
        if idx.size == 0:
            raise ParseError(f"split {split!r} is empty")
        return [self.graphs[i] for i in idx], self.targets[idx]


def make_cycle_path_dataset(seed: int = 0, n_train: int = 200, n_val: int = 50,
                            n_test: int = 100, min_nodes: int = 4,
                            max_nodes: int = 10) -> TaskDataset:
    """Cycle-versus-path classification. Label 1 = cycle, 0 = path."""
    rng = np.random.default_rng(seed)
    total = n_train + n_val + n_test
    graphs, labels = [], []
    for _ in range(total):
        k = int(rng.integers(min_nodes, max_nodes + 1))
        is_cycle = bool(rng.integers(0, 2))
        g = (cycle_graph(k, with_features=True) if is_cycle
             else path_graph(k, with_features=True))
        graphs.append(g)
        labels.append(1 if is_cycle else 0)
    order = rng.permutation(total)
    graphs = [graphs[i] for i in order]
    targets = np.array(labels, dtype=np.int64)[order]
    splits = {"train": np.arange(0, n_train),
              "val": np.arange(n_train, n_train + n_val),
              "test": np.arange(n_train + n_val, total)}
    return TaskDataset(name="cycle_path", task="classification", graphs=graphs,
                       targets=targets, splits=splits, n_classes=2)


def make_triangle_count_dataset(seed: int = 0, n_train: int = 200,
                                n_val: int = 50, n_test: int = 100,
                                min_nodes: int = 6, max_nodes: int = 10,
                                edge_prob: float = 0.3) -> TaskDataset:
    """Triangle-count regression on sparse random graphs."""
    rng = np.random.default_rng(seed)
    total = n_train + n_val + n_test
    graphs, counts = [], []
    for _ in range(total):
        k = int(rng.integers(min_nodes, max_nodes + 1))
        g = erdos_renyi_graph(k, edge_prob, seed=int(rng.integers(2 ** 62)),
                              with_features=True, require_connected=True)
        graphs.append(g)
        counts.append(float(triangle_count(g)))
    targets = np.array(counts, dtype=np.float64)
    splits = {"train": np.arange(0, n_train),
              "val": np.arange(n_train, n_train + n_val),
              "test": np.arange(n_train + n_val, total)}
    return TaskDataset(name="triangle_count", task="regression", graphs=graphs,
                       targets=targets, splits=splits)


TASK_BUILDERS = {
    "cycle_path": make_cycle_path_dataset,
    "triangle_count": make_triangle_count_dataset,
}


def make_dataset(name: str, seed: int = 0, **kwargs) -> TaskDataset:
    if name not in TASK_BUILDERS:
        raise ParseError(f"unknown dataset {name!r}; have {sorted(TASK_BUILDERS)}")
    return TASK_BUILDERS[name](seed=seed, **kwargs)


# =============================================================================
# On-disk format
# =============================================================================

def save_dataset(dataset: TaskDataset, directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    names = []
    for i, g in enumerate(dataset.graphs):
        fname = f"g{i:05d}.graph"
        save_graph(g, os.path.join(directory, fname))
        names.append(fname)
    manifest = {
        "name": dataset.name,
        "task": dataset.task,
        "n_classes": dataset.n_classes,
        "graphs": names,
        "targets": [int(t) if dataset.task == "classification" else float(t)
                    for t in dataset.targets],
        "splits": {k: np.asarray(v).tolist() for k, v in dataset.splits.items()},
    }
    with open(os.path.join(directory, "dataset.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _list_of(value, kinds) -> bool:
    """True when ``value`` is a list of ``kinds`` values, booleans excluded."""
    return isinstance(value, list) and all(
        isinstance(v, kinds) and not isinstance(v, bool) for v in value)


def load_dataset(directory: str) -> TaskDataset:
    path = os.path.join(directory, "dataset.json")
    try:
        manifest = json.loads(_read_text(path))
    except FileNotFoundError:
        raise ParseError(f"no dataset.json in {directory}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad dataset.json: {exc}") from None
    if not isinstance(manifest, dict):
        raise ParseError("dataset.json must be a JSON object")
    for key in ("name", "task", "graphs", "targets", "splits"):
        if key not in manifest:
            raise ParseError(f"dataset.json missing key {key!r}")
    splits, n_classes = manifest["splits"], manifest.get("n_classes", 2)
    classify = manifest["task"] == "classification"
    for key, ok in (("name", isinstance(manifest["name"], str)),
                    ("task", isinstance(manifest["task"], str)),
                    ("graphs", _list_of(manifest["graphs"], str)),
                    ("targets", _list_of(manifest["targets"], int if classify else (int, float))),
                    ("splits", isinstance(splits, dict)
                     and all(_list_of(v, int) for v in splits.values())),
                    ("n_classes", _list_of([n_classes], int))):
        if not ok:
            raise ParseError(f"dataset.json {key!r} has the wrong type")
    graphs = [load_graph(os.path.join(directory, fname))
              for fname in manifest["graphs"]]
    targets = np.array(manifest["targets"], dtype=np.int64 if classify else np.float64)
    splits = {k: np.array(v, dtype=np.int64) for k, v in splits.items()}
    return TaskDataset(name=manifest["name"], task=manifest["task"],
                       graphs=graphs, targets=targets, splits=splits,
                       n_classes=n_classes)
