"""Command-line interface.

Every command prints machine-readable JSON lines on stdout -- result records
first, a run manifest as the final line -- and keeps human chatter on stderr.
Reruns of the same command with the same inputs and ``--no-timing`` produce
byte-identical stdout.

Exit codes: 0 success, 2 usage error (argparse), 3 data or model error,
4 resource guard tripped.

The ``NW_SEED`` environment variable, when set, overrides ``--seed``.
``--threads`` is accepted for interface stability and currently changes
nothing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

import numpy as np

from .datasets import TASK_BUILDERS, load_dataset, make_dataset, save_dataset
from .encoding import walk_feature_matrix
from .errors import GuardError, NeuralWalkerError
from .graphs import load_graph, random_regular_graph
from .model import Model, ModelConfig
from .oracle import (enumerate_walks, exact_expectation, separation_witness,
                     triangle_count, wl_colors, wl_indistinguishable)
from .sampling import (CoverageStats, SamplerConfig, sample_walks,
                       walks_from_jsonl, walks_to_jsonl)
from .tensorio import dumps_tensor, save_tensor
from .training import evaluate, load_checkpoint, save_checkpoint, train_model

__all__ = ["main"]


def _emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def _log(msg: str) -> None:
    sys.stderr.write(msg + "\n")


def _resolve_seed(args) -> int:
    env = os.environ.get("NW_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise NeuralWalkerError(f"NW_SEED must be an integer, got {env!r}") from None
    return int(args.seed)


def _manifest(args, started: float, outputs: list[str]) -> dict:
    man = {"kind": "manifest", "command": args.command, "seed": _resolve_seed(args),
           "outputs": sorted(outputs)}
    if getattr(args, "oracle_command", None):
        man["subcommand"] = args.oracle_command
    if not args.no_timing:
        man["elapsed_s"] = round(time.perf_counter() - started, 6)
    return man


def _load_model(args) -> Model:
    if getattr(args, "model", None):
        return load_checkpoint(args.model)
    if getattr(args, "config", None):
        with open(args.config) as fh:
            return Model(ModelConfig.from_json(fh.read()))
    raise NeuralWalkerError("need --model or --config")


def _load_task(args):
    if getattr(args, "data", None):
        return load_dataset(args.data)
    if getattr(args, "task", None):
        return make_dataset(args.task, seed=args.data_seed)
    raise NeuralWalkerError("need --data DIR or --task NAME")


# =============================================================================
# Commands
# =============================================================================

def _cmd_sample(args) -> list[str]:
    graph = load_graph(args.graph)
    config = SamplerConfig(length=args.length, rate=args.rate,
                           n_walks=args.walks_count,
                           non_backtracking=args.no_backtrack,
                           start_distribution=("stationary" if args.stationary_start
                                               else "uniform"),
                           seed=_resolve_seed(args))
    batch = sample_walks(graph, config)
    text = walks_to_jsonl(batch)
    sys.stdout.write(text)                       # one record per walk
    outputs = []
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        outputs.append(args.out)
    cov = CoverageStats.from_batch(graph, batch)
    _emit({"kind": "coverage", "n_walks": batch.n_walks, "length": batch.length,
           "visited_fraction": cov.visited_fraction,
           "visit_counts": cov.visit_counts.tolist()})
    return outputs


def _cmd_encode(args) -> list[str]:
    graph = load_graph(args.graph)
    with open(args.walks) as fh:
        batch = walks_from_jsonl(fh.read())
    batch.validate(graph)
    feats = walk_feature_matrix(graph, batch, window=args.window)
    outputs = []
    if args.out:
        save_tensor(args.out, feats)
        outputs.append(args.out)
    digest = hashlib.sha256(dumps_tensor(feats)).hexdigest()
    _emit({"kind": "features", "shape": list(feats.shape), "sha256": digest})
    return outputs


def _cmd_forward(args) -> list[str]:
    graph = load_graph(args.graph)
    model = _load_model(args)
    walks = None
    if args.walks:
        with open(args.walks) as fh:
            walks = walks_from_jsonl(fh.read())
        walks.validate(graph)
    result = model.forward(graph, seed=_resolve_seed(args), walks=walks)
    record = {"kind": "forward", "n_nodes": graph.n_nodes,
              "n_walks": result.batch.n_walks if result.batch is not None else 0}
    if result.pooled is not None:
        record["pooled_norm"] = float(np.linalg.norm(result.pooled.data[0]))
    if result.prediction is not None:
        record["prediction"] = [float(x) for x in result.prediction.data[0]]
    outputs = []
    if args.out:
        save_tensor(args.out, result.node_embeddings.data)
        outputs.append(args.out)
    _emit(record)
    return outputs


def _cmd_train(args) -> list[str]:
    dataset = _load_task(args)
    if args.config:
        with open(args.config) as fh:
            config = ModelConfig.from_json(fh.read())
    else:
        config = ModelConfig()
    config.node_dim = dataset.graphs[0].node_dim
    config.edge_dim = dataset.graphs[0].edge_dim
    if dataset.task == "classification":
        config.head, config.n_classes = "classification", dataset.n_classes
    else:
        config.head, config.out_dim = "regression", 1
    if args.epochs is not None:
        config.epochs = args.epochs
    config.seed = _resolve_seed(args)
    config.validate()
    model = Model(config)
    result = train_model(model, dataset, log_fn=lambda e: _emit({"kind": "metric", **e}),
                         eval_every=args.eval_every, target_value=args.target)
    outputs = []
    if args.out:
        path = args.out
        if not path.endswith(".nwtf"):           # treat as a directory
            os.makedirs(path, exist_ok=True)
            path = os.path.join(path, "model.nwtf")
        save_checkpoint(model, path)
        outputs.extend([path, path + ".json"])
    _emit({"kind": "trained", "epochs_run": result.epochs_run,
           "best_epoch": result.best_epoch, "best_val": result.best_value})
    return outputs


def _cmd_eval(args) -> list[str]:
    dataset = _load_task(args)
    model = _load_model(args)
    ev = evaluate(model, dataset, args.split, seed=_resolve_seed(args),
                  repeat=args.repeat, average_predictions=args.average)
    _emit({"kind": "eval", "split": args.split, **ev})
    return []


def _cmd_oracle(args) -> list[str]:
    sub = args.oracle_command
    if sub == "enumerate":
        graph = load_graph(args.graph)
        nodes, slots, mask, probs = enumerate_walks(
            graph, args.length, non_backtracking=args.non_backtracking)
        if args.list:
            for i in range(nodes.shape[0]):
                _emit({"kind": "walk", "nodes": nodes[i].tolist(),
                       "prob": probs[i]})
        _emit({"kind": "enumeration", "n_walks": int(nodes.shape[0]),
               "prob_sum": float(probs.sum())})
    elif sub == "expect":
        graph = load_graph(args.graph)
        if args.length < 2:
            raise NeuralWalkerError("triangle flags need --length >= 2")
        from .encoding import _id_adj

        def flag_count(nodes, edge_slots, mask):
            # offset-2 adjacency column: w_i adjacent to w_{i-2}
            _, adjac = _id_adj(graph, nodes, mask, args.length + 1)
            return adjac[:, :, 1].sum(axis=1)

        value = exact_expectation(graph, args.length, flag_count,
                                  non_backtracking=args.non_backtracking)
        _emit({"kind": "expectation", "functional": "triangle-flag-count",
               "value": value})
    elif sub == "wl":
        g1, g2 = load_graph(args.graph1), load_graph(args.graph2)
        same = wl_indistinguishable(g1, g2)
        _emit({"kind": "wl", "indistinguishable": same,
               "classes_1": len(set(wl_colors(g1))),
               "classes_2": len(set(wl_colors(g2)))})
    elif sub == "separate":
        g1, g2 = load_graph(args.graph1), load_graph(args.graph2)
        wit = separation_witness(g1, g2, args.length,
                                 non_backtracking=args.non_backtracking)
        _emit({"kind": "witness", "functional": wit["functional"],
               "value_1": wit["value_1"], "value_2": wit["value_2"],
               "gap": wit["gap"]})
    elif sub == "triangles":
        graph = load_graph(args.graph)
        _emit({"kind": "triangles", "triangles": triangle_count(graph)})
    return []


def _cmd_data(args) -> list[str]:
    dataset = make_dataset(args.task, seed=_resolve_seed(args))
    save_dataset(dataset, args.out)
    _emit({"kind": "dataset", "task": dataset.task, "name": dataset.name,
           "n_graphs": len(dataset.graphs),
           "splits": {k: len(v) for k, v in sorted(dataset.splits.items())}})
    return [args.out]


def _parse_sweep(text: str) -> tuple[list[float], list[int]]:
    """Parse ``"rate=0.1,0.5,1.0;length=25,50,100"`` into value lists."""
    rates, lengths = [], []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        key, _, values = part.partition("=")
        if key == "rate":
            rates = [float(v) for v in values.split(",") if v]
        elif key == "length":
            lengths = [int(v) for v in values.split(",") if v]
        else:
            raise NeuralWalkerError(f"unknown sweep axis {key!r} (rate, length)")
    return rates, lengths


def _cmd_bench(args) -> list[str]:
    seed = _resolve_seed(args)
    if args.graph:
        graph = load_graph(args.graph)
    else:
        graph = random_regular_graph(args.nodes, args.degree, seed=seed)
    rates, lengths = [args.rate], [args.length]
    if args.sweep:
        sw_rates, sw_lengths = _parse_sweep(args.sweep)
        rates = sw_rates or rates
        lengths = sw_lengths or lengths
    rows = []
    for rate in rates:
        for length in lengths:
            config = SamplerConfig(length=length, rate=rate,
                                   non_backtracking=args.no_backtrack, seed=seed)
            times = []
            for rep in range(args.repeats):
                t0 = time.perf_counter()
                batch = sample_walks(graph, config, seed=seed + rep)
                times.append(time.perf_counter() - t0)
            row = {"kind": "bench", "rate": rate, "length": length,
                   "n_walks": batch.n_walks,
                   "seconds": round(float(np.median(times)), 6)}
            rows.append(row)
            _emit(row)
    outputs = []
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("rate,length,n_walks,seconds\n")
            for r in rows:
                fh.write(f"{r['rate']},{r['length']},{r['n_walks']},{r['seconds']}\n")
        outputs.append(args.out)
    return outputs


# =============================================================================
# Parser
# =============================================================================

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="neuralwalker",
        description="Random-walk graph learning: sampling, encodings, models, oracles.")
    parser.add_argument("--seed", type=int, default=0,
                        help="master seed (NW_SEED env var overrides)")
    parser.add_argument("--threads", type=int, default=1,
                        help="reserved; accepted without effect")
    parser.add_argument("--no-timing", action="store_true",
                        help="omit wall-clock fields for byte-identical reruns")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="sample random walks from a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--rate", type=float, default=1.0)
    p.add_argument("--walks-count", type=int, default=None)
    p.add_argument("--no-backtrack", action="store_true")
    p.add_argument("--stationary-start", action="store_true")
    p.add_argument("--out", default=None, help="write walks as JSON lines")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("encode", help="walk feature matrices from sampled walks")
    p.add_argument("--graph", required=True)
    p.add_argument("--walks", required=True)
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--out", default=None, help="write features as a tensor file")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("forward", help="run the model forward on a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--model", default=None, help="checkpoint path")
    p.add_argument("--walks", default=None, help="reuse sampled walks from a file")
    p.add_argument("--out", default=None, help="write node embeddings")
    p.set_defaults(func=_cmd_forward)

    p = sub.add_parser("train", help="train on a dataset")
    p.add_argument("--data", default=None, help="dataset directory")
    p.add_argument("--task", choices=sorted(TASK_BUILDERS), default=None)
    p.add_argument("--data-seed", type=int, default=0)
    p.add_argument("--config", default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--eval-every", type=int, default=1)
    p.add_argument("--target", type=float, default=None,
                   help="stop once validation reaches this value")
    p.add_argument("--out", default=None, help="checkpoint path")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    p.add_argument("--data", default=None)
    p.add_argument("--task", choices=sorted(TASK_BUILDERS), default=None)
    p.add_argument("--data-seed", type=int, default=0)
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--split", default="test")
    p.add_argument("--repeat", type=int, default=1)
    p.add_argument("--average", action="store_true",
                   help="average predictions over resamplings before scoring")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("oracle", help="brute-force reference computations")
    osub = p.add_subparsers(dest="oracle_command", required=True)
    q = osub.add_parser("enumerate", help="expand the complete walk distribution")
    q.add_argument("--graph", required=True)
    q.add_argument("--length", type=int, required=True)
    q.add_argument("--non-backtracking", action="store_true")
    q.add_argument("--list", action="store_true", help="print every walk")
    q.set_defaults(func=_cmd_oracle)
    q = osub.add_parser("expect", help="exact expected adjacency-flag count")
    q.add_argument("--graph", required=True)
    q.add_argument("--length", type=int, required=True)
    q.add_argument("--non-backtracking", action="store_true")
    q.set_defaults(func=_cmd_oracle)
    q = osub.add_parser("wl", help="color-refinement comparison of two graphs")
    q.add_argument("--graph1", required=True)
    q.add_argument("--graph2", required=True)
    q.set_defaults(func=_cmd_oracle)
    q = osub.add_parser("separate", help="walk-feature functional separating two graphs")
    q.add_argument("--graph1", required=True)
    q.add_argument("--graph2", required=True)
    q.add_argument("--length", type=int, required=True)
    q.add_argument("--non-backtracking", action="store_true")
    q.set_defaults(func=_cmd_oracle)
    q = osub.add_parser("triangles", help="triangle count")
    q.add_argument("--graph", required=True)
    q.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("data", help="materialize a bundled dataset")
    p.add_argument("--task", choices=sorted(TASK_BUILDERS), required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_data)

    p = sub.add_parser("bench", help="time the walk sampler")
    p.add_argument("--graph", default=None, help="graph file (default: generate)")
    p.add_argument("--nodes", type=int, default=100_000)
    p.add_argument("--degree", type=int, default=4)
    p.add_argument("--length", type=int, default=100)
    p.add_argument("--rate", type=float, default=1.0)
    p.add_argument("--no-backtrack", action="store_true")
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--sweep", default=None,
                   help='grid, e.g. "rate=0.1,0.5,1.0;length=25,50,100"')
    p.add_argument("--out", default=None, help="write a CSV of the results")
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        outputs = args.func(args)
    except GuardError as exc:
        _emit({"kind": "error", "error": type(exc).__name__, "message": str(exc)})
        return 4
    except (NeuralWalkerError, OSError) as exc:
        _emit({"kind": "error", "error": type(exc).__name__, "message": str(exc)})
        return 3
    _emit(_manifest(args, started, outputs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
