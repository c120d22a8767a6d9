"""Same-seed training digests: one parameter sha256 per model config.

    python3 tools/train_digests.py

Run from any directory; the package is imported from ``src/`` and the digest
function from ``perfbench/``, both next to this directory. Each line is
``<config> <sha256>``: the ``state_digest`` of the parameters ``train_model``
leaves after training that config on the same small triangle-count dataset at
the same seed. Two trees whose model, sampler and optimizer compute the same
bits print the same lines. OpenBLAS runs on one thread, because its thread
count moves trained bits.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"    # must precede the first numpy import

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from neuralwalker.datasets import make_dataset  # noqa: E402
from neuralwalker.model import Model, ModelConfig  # noqa: E402
from neuralwalker.training import train_model  # noqa: E402
from perfbench.workloads import state_digest  # noqa: E402

SHARED = dict(hidden_dim=16, n_blocks=2, heads=4, state=8, window=4, walk_length=6,
              epochs=3, batch_size=8, seed=3, head="regression")

# name -> the fields that differ from SHARED and the ModelConfig defaults.
CONFIGS = {
    "conv+virtual_node+sum": dict(seq_layer="conv", global_mp="virtual_node", pooling="sum"),
    "attention+virtual_node+mean": dict(seq_layer="attention", global_mp="virtual_node",
                                        pooling="mean"),
    "s4+none+mean+constant": dict(seq_layer="s4", global_mp="none", pooling="mean",
                                  normalization="constant"),
    "selective+transformer+sum": dict(seq_layer="selective", global_mp="transformer",
                                      pooling="sum"),
    "conv+transformer+mean+constant": dict(seq_layer="conv", global_mp="transformer",
                                           pooling="mean", normalization="constant"),
    "s4": dict(seq_layer="s4", global_mp="none", pooling="mean"),
    "selective": dict(seq_layer="selective", global_mp="none", pooling="mean"),
    "bidirectional selective": dict(seq_layer="selective", bidirectional=True,
                                    global_mp="none", pooling="mean"),
}


def main() -> None:
    dataset = make_dataset("triangle_count", seed=3, n_train=16, n_val=4, n_test=4)
    graph = dataset.graphs[0]
    for name, fields in CONFIGS.items():
        config = ModelConfig(**SHARED, **fields, node_dim=graph.node_dim,
                             edge_dim=graph.edge_dim)
        model = Model(config)
        train_model(model, dataset)
        print(f"{name} {state_digest(model.state_arrays())}", flush=True)


if __name__ == "__main__":
    main()
