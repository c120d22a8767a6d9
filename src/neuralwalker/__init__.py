"""Random-walk graph learning.

Random walks sampled from a graph become sequences; a sequence model reads
them; per-position outputs are averaged back onto nodes and edges and refined
with local and global message passing. The package ships the full pipeline --
graph containers, a vectorized counter-seeded walk sampler, walk positional
encodings, a small reverse-mode autodiff core with the sequence layers built
on it, the model, training loops, brute-force oracles for verification, and a
command-line interface.
"""

from .autodiff import Tape, Tensor, backward
from .datasets import TaskDataset, load_dataset, make_dataset, save_dataset
from .encoding import encode_batch, walk_feature_matrix
from .errors import NeuralWalkerError
from .graphs import (Graph, build_graph, complete_graph, cycle_graph,
                     disjoint_union, erdos_renyi_graph, is_connected,
                     load_graph, loads_graph, path_graph, random_regular_graph,
                     save_graph, star_graph)
from .model import (ForwardResult, Model, ModelConfig, PackedGraphs,
                    pack_graphs, sample_walks_packed, walk_functional_readout)
from .oracle import (enumerate_connected_graphs, enumerate_walks,
                     exact_expectation, separation_witness, triangle_count,
                     wl_colors, wl_indistinguishable)
from .optim import AdamW, warmup_cosine_lr
from .sampling import (CoverageStats, SamplerConfig, WalkBatch,
                       measure_cover_time, sample_walks, sample_walks_iid,
                       stationary_distribution)
from .training import (evaluate, load_checkpoint, predict, save_checkpoint,
                       train_model)

__version__ = "0.1.0"

__all__ = [
    "Tape", "Tensor", "backward",
    "TaskDataset", "load_dataset", "make_dataset", "save_dataset",
    "encode_batch", "walk_feature_matrix",
    "NeuralWalkerError",
    "Graph", "build_graph", "complete_graph", "cycle_graph", "disjoint_union",
    "erdos_renyi_graph", "is_connected", "load_graph", "loads_graph",
    "path_graph", "random_regular_graph", "save_graph", "star_graph",
    "ForwardResult", "Model", "ModelConfig", "PackedGraphs", "pack_graphs",
    "sample_walks_packed", "walk_functional_readout",
    "enumerate_connected_graphs", "enumerate_walks", "exact_expectation",
    "separation_witness", "triangle_count", "wl_colors", "wl_indistinguishable",
    "AdamW", "warmup_cosine_lr",
    "CoverageStats", "SamplerConfig", "WalkBatch", "measure_cover_time",
    "sample_walks", "sample_walks_iid", "stationary_distribution",
    "evaluate", "load_checkpoint", "predict", "save_checkpoint", "train_model",
    "__version__",
]
