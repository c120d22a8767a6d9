"""The workloads: what each sets up, what one op is, and how outputs are checked.

Each workload is a closed loop with one caller. The benchmark generates every
input from the workload seed and drives the package only through its public
functions, looked up on their modules at call time so that the traced run's
wrappers see the calls. A *group* is the unit the loop repeats (a training
run, an ``evaluate`` call, one walk round); it holds one or more ops.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

import numpy as np

from neuralwalker import datasets, encoding, graphs, sampling, tensorio, training
from neuralwalker.model import Model, ModelConfig
from neuralwalker.optim import AdamW

from perfbench import checks


@dataclass(frozen=True)
class Sizes:
    """Input sizes. ``FULL`` is what the benchmark measures; the self-tests
    use ``TINY``."""

    train_graphs: int = 200
    val_graphs: int = 50
    fit_epochs: int = 10
    warmup_epochs: int = 5
    batch_size: int = 32
    eval_graphs: int = 128
    eval_nodes: int = 8
    eval_repeat: int = 2
    walk_nodes: int = 100_000
    walk_length: int = 20
    window: int = 8
    reference_walks: int = 64
    setup_window_s: float = 1.5       # set-up time before the loop and after each group


FULL = Sizes()
TINY = Sizes(train_graphs=12, val_graphs=4, fit_epochs=3, warmup_epochs=1,
             batch_size=4, eval_graphs=6, eval_nodes=5, eval_repeat=1, walk_nodes=40,
             walk_length=6, window=4, reference_walks=8, setup_window_s=0.0)


def derive_seed(*keys: int) -> int:
    """A 32-bit seed that depends on every key."""
    return int(np.random.SeedSequence([int(k) for k in keys]).generate_state(1)[0])


def model_config(sizes: Sizes, seed: int, **overrides) -> ModelConfig:
    """The triangle-count regression config of acceptance criterion 6b."""
    base = dict(hidden_dim=24, n_blocks=2, seq_layer="conv", kernel=5,
                window=sizes.window, walk_length=sizes.walk_length, node_dim=1,
                rate=1.0, non_backtracking=True, global_mp="virtual_node",
                head="regression", out_dim=1, pooling="sum",
                epochs=sizes.fit_epochs, batch_size=sizes.batch_size, base_lr=3e-3,
                warmup_epochs=sizes.warmup_epochs, seed=seed)
    base.update(overrides)
    return ModelConfig(**base)


def state_digest(arrays: dict) -> str:
    h = hashlib.sha256()
    for name in sorted(arrays):
        h.update(name.encode())
        h.update(np.ascontiguousarray(arrays[name]).tobytes())
    return h.hexdigest()


def _count_forward(rec, result) -> None:
    rec.add_work(result.pack.n_graphs, int(result.batch.mask.sum()))


class Workload:
    """What the measuring loop in ``run.py`` calls on a workload.

    ``setup()`` builds the inputs and is timed as ``setup_s``.
    ``run_group(rec, state, group)`` runs one group, marks its ops on
    ``rec`` and returns ``{"problems": [...], ...}``. ``finish`` runs the
    checks that need several groups, with recording off, and returns
    ``{group: problems}``. ``op_hooks(rec)`` lists the patches that mark op
    boundaries, in the form ``tracing.patched`` takes.
    """

    name = ""

    def __init__(self, seed: int, sizes: Sizes, workdir: str):
        self.seed, self.sizes, self.workdir = seed, sizes, workdir

    def setup_problems(self, state) -> list[str]:
        return []

    def op_hooks(self, rec) -> list:
        return []

    def details(self, results: list) -> dict:
        return {}


class TrainTriangle(Workload):
    """``train_model`` on triangle counting. One op is one optimizer step,
    from ``AdamW.zero_grad`` to the return of ``AdamW.step``. Every group is
    a full training run with the same seed, so groups must agree bit for bit."""

    name = "train_triangle"

    def setup(self):
        s = self.sizes
        return datasets.make_dataset("triangle_count", seed=self.seed,
                                     n_train=s.train_graphs, n_val=s.val_graphs, n_test=0)

    def op_hooks(self, rec) -> list:
        def zero_grad(old):
            def hook(opt):
                rec.begin_op()
                return old(opt)
            return hook

        def step(old):
            def hook(opt, *args, **kwargs):
                out = old(opt, *args, **kwargs)
                rec.end_op()
                return out
            return hook

        def forward(old):
            def hook(model, *args, **kwargs):
                out = old(model, *args, **kwargs)
                _count_forward(rec, out)
                return out
            return hook

        return [(AdamW, "zero_grad", zero_grad), (AdamW, "step", step),
                (Model, "forward", forward)]

    def run_group(self, rec, dataset, group: int) -> dict:
        model = Model(model_config(self.sizes, self.seed))
        log = []
        training.train_model(model, dataset, log_fn=log.append, eval_every=5)
        losses = [e["value"] for e in log if e["split"] == "train"]
        problems = []
        if not np.all(np.isfinite(losses)):
            problems.append("a logged training loss is not finite")
        elif not losses[-1] < losses[0]:
            problems.append(f"last-epoch loss {losses[-1]} is not below the first {losses[0]}")
        return {"problems": problems, "digest": state_digest(model.state_arrays()),
                "loss": losses[-1]}

    def finish(self, rec, dataset, results: list) -> dict[int, list[str]]:
        """Same-seed training runs must give bit-identical parameters."""
        done = [g for g, r in enumerate(results) if "digest" in r]
        if len(done) == 1:              # the loop ended after one run: train once more
            results.append(self.run_group(rec, dataset, len(results)))
            done.append(len(results) - 1)
        digests = {results[g]["digest"] for g in done}
        if len(digests) > 1:
            return {g: ["same-seed training runs gave different parameters"] for g in done}
        return {}

    def details(self, results: list) -> dict:
        losses = [r["loss"] for r in results if "loss" in r]
        return {"train_loss": {"value": losses[-1], "unit": "MSE"}} if losses else {}


class EvalSSM(Workload):
    """``evaluate`` with walk resampling and averaged predictions, forward
    only, on a selective-scan model with transformer global message passing.
    The weights go through ``save_checkpoint`` / ``load_checkpoint`` during
    set-up. One op is one ``Model.forward`` call."""

    name = "eval_ssm"

    def __init__(self, seed: int, sizes: Sizes, workdir: str):
        super().__init__(seed, sizes, workdir)
        self.predictions: list[np.ndarray] = []   # every forward's output, for the checks

    def setup(self):
        s = self.sizes
        # Every graph has the same node count, so each forward packs the same
        # number of nodes and walks whatever the seed.
        dataset = datasets.make_dataset("triangle_count", seed=self.seed, n_train=0,
                                        n_val=0, n_test=s.eval_graphs,
                                        min_nodes=s.eval_nodes, max_nodes=s.eval_nodes)
        model = Model(model_config(s, self.seed, seq_layer="selective",
                                   global_mp="transformer"))
        path = os.path.join(self.workdir, "eval_ssm.nwtf")
        training.save_checkpoint(model, path)
        return dataset, model.state_arrays(), training.load_checkpoint(path)

    def setup_problems(self, state) -> list[str]:
        _, saved, loaded = state
        restored = loaded.state_arrays()
        if sorted(saved) != sorted(restored):
            return ["checkpoint round trip changed the parameter names"]
        return [f"checkpoint round trip changed parameter {k}" for k in sorted(saved)
                if saved[k].dtype != restored[k].dtype
                or saved[k].shape != restored[k].shape
                or saved[k].tobytes() != restored[k].tobytes()]

    def op_hooks(self, rec) -> list:
        def forward(old):
            def hook(model, *args, **kwargs):
                rec.begin_op()
                out = old(model, *args, **kwargs)
                _count_forward(rec, out)
                rec.end_op()
                self.predictions.append(out.prediction.data.copy())
                return out
            return hook

        return [(Model, "forward", forward)]

    def run_group(self, rec, state, group: int) -> dict:
        dataset, _, model = state
        self.predictions = []
        result = training.evaluate(model, dataset, "test", seed=derive_seed(self.seed, group),
                                   repeat=self.sizes.eval_repeat, average_predictions=True)
        preds = self.predictions
        problems = [] if all(np.all(np.isfinite(p)) for p in preds) else [
            "a prediction is not finite"]
        return {"problems": problems, "predictions": preds, "values": result["values"]}

    def finish(self, rec, state, results: list) -> dict[int, list[str]]:
        """A same-seed rerun of the first ``evaluate`` call must give the same
        predictions bit for bit."""
        first = results[0]
        if "predictions" not in first:
            return {}
        again = self.run_group(rec, state, 0)
        same = (len(again["predictions"]) == len(first["predictions"])
                and all(a.tobytes() == b.tobytes()
                        for a, b in zip(again["predictions"], first["predictions"]))
                and again["values"] == first["values"])
        return {} if same else {0: ["same-seed evaluate rerun gave different predictions"]}


class Walks100k(Workload):
    """The CLI data path on one large graph: ``sample --out`` then
    ``encode --walks``. One op samples non-backtracking walks from every
    node with a fresh seed, writes and reads them as JSONL, builds the walk
    feature matrix and hashes its tensor-file bytes."""

    name = "walks_100k"

    def __init__(self, seed: int, sizes: Sizes, workdir: str):
        super().__init__(seed, sizes, workdir)
        self.rows = checks.reference_rows(sizes.walk_nodes, sizes.reference_walks)

    def setup(self):
        return graphs.random_regular_graph(self.sizes.walk_nodes, 4, seed=self.seed)

    def setup_problems(self, graph) -> list[str]:
        if graph.n_nodes != self.sizes.walk_nodes or np.any(graph.degrees() != 4):
            return ["the generated graph is not 4-regular on the requested nodes"]
        return []

    def round(self, graph, seed: int):
        s = self.sizes
        config = sampling.SamplerConfig(length=s.walk_length, rate=1.0,
                                        non_backtracking=True, seed=seed)
        batch = sampling.sample_walks(graph, config)
        reread = sampling.walks_from_jsonl(sampling.walks_to_jsonl(batch))
        features = encoding.walk_feature_matrix(graph, reread, window=s.window)
        digest = hashlib.sha256(tensorio.dumps_tensor(features)).hexdigest()
        return batch, reread, features, digest

    def run_group(self, rec, graph, group: int) -> dict:
        seed = derive_seed(self.seed, group)
        rec.begin_op()
        batch, reread, features, digest = self.round(graph, seed)
        op = rec.end_op()
        if op is not None:
            op.graphs, op.positions = 1, int(batch.mask.sum())
        problems = (checks.walk_problems(graph, batch, self.sizes.walk_length, True)
                    + checks.roundtrip_problems(batch, reread)
                    + checks.feature_problems(graph, reread, features, self.sizes.window,
                                              self.rows))
        return {"problems": problems, "seed": seed, "digest": digest}

    def finish(self, rec, graph, results: list) -> dict[int, list[str]]:
        """Rerunning the first round with its seed must reproduce the hash."""
        first = results[0]
        if "digest" not in first:
            return {}
        digest = self.round(graph, first["seed"])[3]
        return {} if digest == first["digest"] else {
            0: ["same-seed walk round gave a different feature hash"]}


WORKLOADS = {w.name: w for w in (TrainTriangle, EvalSSM, Walks100k)}
