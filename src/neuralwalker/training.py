"""Training and evaluation loops.

Training draws fresh walks for every (epoch, batch) pair through seeds derived
from the master seed, so two runs with the same seed see identical walk
sequences regardless of timing or host. Evaluation fixes its own seed and an
optional number of walk resamplings; with ``average_predictions`` the metric
is computed on the mean prediction over those resamplings (inference-time
averaging over walk draws), otherwise per-resampling metrics are reported with
their spread.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor, backward
from .datasets import TaskDataset
from .errors import BadSchedule, ParseError, ShapeError, TensorError
from .graphs import _read_text
from .model import Model, ModelConfig, pack_graphs
from .optim import AdamW, warmup_cosine_lr
from .sampling import child_seeds
from .tensorio import load_tensors, save_tensors

__all__ = [
    "classification_loss",
    "regression_loss",
    "predict",
    "evaluate",
    "TrainResult",
    "train_model",
    "save_checkpoint",
    "load_checkpoint",
]

_EVAL_SALT = 0x45564C             # evaluation walk streams
_SHUFFLE_SALT = 0x534846          # epoch shuffling streams


def classification_loss(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy from raw logits and integer labels."""
    n, k = logits.shape
    if labels.shape != (n,):
        raise ShapeError(f"labels shape {labels.shape} != ({n},)")
    onehot = np.zeros((n, k))
    onehot[np.arange(n), labels] = 1.0
    logp = ad.log_softmax(logits, axis=-1)
    picked = ad.reduce_sum(ad.mul(logp, Tensor(onehot)))
    return ad.scale(picked, -1.0 / n)


def regression_loss(pred: Tensor, targets: np.ndarray) -> Tensor:
    """Mean squared error; targets broadcast from (n,) to (n, 1)."""
    t = np.asarray(targets, dtype=np.float64)
    if t.ndim == 1:
        t = t[:, None]
    if pred.shape != t.shape:
        raise ShapeError(f"prediction shape {pred.shape} != target {t.shape}")
    diff = ad.sub(pred, Tensor(t))
    return ad.reduce_mean(ad.mul(diff, diff))


def _batched_indices(n: int, batch_size: int) -> list[np.ndarray]:
    idx = np.arange(n)
    return [idx[i:i + batch_size] for i in range(0, n, batch_size)]


def predict(model: Model, graphs: list, seed: int, rate: float | None = None,
            batch_size: int = 64) -> np.ndarray:
    """Predictions for a list of graphs (no gradient recording)."""
    outs = []
    seeds = child_seeds(seed, (len(graphs) + batch_size - 1) // batch_size)
    for b, lo in enumerate(range(0, len(graphs), batch_size)):
        chunk = graphs[lo:lo + batch_size]
        result = model.forward(pack_graphs(chunk), seed=int(seeds[b]), rate=rate)
        outs.append(result.prediction.data)
    return np.concatenate(outs, axis=0)


def _metric(task: str, preds: np.ndarray, targets: np.ndarray) -> tuple[str, float]:
    if task == "classification":
        return "accuracy", float(np.mean(np.argmax(preds, axis=1) == targets))
    return "mae", float(np.mean(np.abs(preds[:, 0] - np.asarray(targets))))


def _check_head(config: ModelConfig, dataset: TaskDataset) -> None:
    """Raise ShapeError unless the model predicts one row per graph that the
    dataset's task scores: ``n_classes`` logits, or one regression value."""
    if config.head != dataset.task or config.pooling == "none":
        raise ShapeError(f"a {config.head!r} head with {config.pooling!r} pooling does not "
                         f"fit the {dataset.task} task of dataset {dataset.name!r}")
    width, want = ((config.n_classes, dataset.n_classes) if dataset.task == "classification"
                   else (config.out_dim, 1))
    if width != want:
        raise ShapeError(f"the model's head has {width} outputs, the {dataset.task} task "
                         f"of dataset {dataset.name!r} needs {want}")


def evaluate(model: Model, dataset: TaskDataset, split: str, seed: int,
             repeat: int = 1, average_predictions: bool = False) -> dict:
    """Metric on a split, over ``repeat`` independent walk resamplings at the
    model config's ``eval_rate``.

    Returns ``{"metric", "mean", "std", "values"}``; ``std`` is the sample
    standard deviation across resamplings (0.0 for a single one). With
    ``average_predictions`` the resampled predictions are averaged first and
    the metric list has a single entry for the averaged predictor.

    Raises
    ------
    BadSchedule
        If ``repeat`` is below 1.
    ShapeError
        If the model's head does not fit the dataset's task.
    """
    if repeat < 1:
        raise BadSchedule(f"repeat must be at least 1, got {repeat}")
    graphs, targets = dataset.subset(split)
    _check_head(model.config, dataset)
    seeds = child_seeds(seed ^ _EVAL_SALT, repeat)
    preds = [predict(model, graphs, int(s), rate=model.config.eval_rate) for s in seeds]
    if average_predictions:
        name, value = _metric(dataset.task, np.mean(preds, axis=0), targets)
        values = [value]
    else:
        name = None
        values = []
        for p in preds:
            name, v = _metric(dataset.task, p, targets)
            values.append(v)
    std = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
    return {"metric": name, "mean": float(np.mean(values)), "std": std,
            "values": values}


@dataclass
class TrainResult:
    history: list = field(default_factory=list)
    best_state: dict | None = None
    best_value: float | None = None
    best_epoch: int | None = None
    epochs_run: int = 0


def _better(task: str, a: float, b: float | None) -> bool:
    if b is None:
        return True
    return a > b if task == "classification" else a < b


def train_model(model: Model, dataset: TaskDataset, log_fn=None,
                eval_every: int = 1, target_value: float | None = None) -> TrainResult:
    """Mini-batch training with AdamW and warmup-cosine learning rates.

    Runs ``model.config.epochs`` epochs and scores the validation split on one
    walk resampling every ``eval_every`` epochs and after the last. Early-stops
    once the validation metric reaches ``target_value`` (at least / at most,
    depending on the task's direction). ``log_fn`` receives each history entry
    as it is produced. The best-validation parameter snapshot is kept and
    restored into the model at the end.

    Raises
    ------
    BadSchedule
        If ``eval_every`` is below 1 or ``target_value`` is NaN.
    ParseError
        If the train or val split is missing or empty.
    ShapeError
        If the model's head does not fit the dataset's task.
    """
    if eval_every < 1:
        raise BadSchedule(f"eval_every must be at least 1, got {eval_every}")
    if target_value is not None and np.isnan(target_value):
        raise BadSchedule("target_value is NaN, which no metric can reach")
    cfg = model.config
    train_graphs, train_targets = dataset.subset("train")
    dataset.subset("val")  # a missing or empty val split fails before any epoch runs
    _check_head(cfg, dataset)
    n_train = len(train_graphs)
    batches = _batched_indices(n_train, cfg.batch_size)
    total_steps = max(cfg.epochs * len(batches), 1)
    warmup_steps = min(cfg.warmup_epochs * len(batches), total_steps)
    exempt = {k for k, p in model.params.items() if p.data.ndim < 2}
    opt = AdamW(model.params, base_lr=cfg.base_lr,
                weight_decay=cfg.weight_decay, decay_exempt=exempt)
    shuffle_seeds = child_seeds(cfg.seed ^ _SHUFFLE_SALT, max(cfg.epochs, 1))
    result = TrainResult()
    loss_fn = classification_loss if dataset.task == "classification" else regression_loss
    step = 0

    def log(entry: dict) -> None:
        result.history.append(entry)
        if log_fn is not None:
            log_fn(entry)

    for epoch in range(cfg.epochs):
        order = np.random.default_rng(int(shuffle_seeds[epoch])).permutation(n_train)
        walk_seeds = child_seeds(int(shuffle_seeds[epoch]) ^ 0x57414C4B, len(batches))
        losses = []
        for b, batch_idx in enumerate(batches):
            take = order[batch_idx]
            graphs = [train_graphs[i] for i in take]
            targets = train_targets[take]
            opt.zero_grad()
            with Tape() as tape:
                out = model.forward(pack_graphs(graphs), seed=int(walk_seeds[b]))
                loss = loss_fn(out.prediction, targets)
            loss_val = float(loss.data)
            if not np.isfinite(loss_val):
                raise TensorError(
                    f"non-finite loss {loss_val} at epoch {epoch} batch {b}; "
                    f"param-norm snapshot: "
                    + json.dumps({k: float(np.linalg.norm(v.data))
                                  for k, v in sorted(model.params.items())[:8]}))
            backward(loss, tape, leaves=model.params.values())
            lr = warmup_cosine_lr(step, total_steps, warmup_steps, cfg.base_lr)
            opt.step(lr=lr)
            step += 1
            losses.append(loss_val)
        result.epochs_run = epoch + 1
        log({"epoch": epoch, "split": "train", "metric": "loss",
             "value": float(np.mean(losses))})
        if (epoch + 1) % eval_every == 0 or epoch == cfg.epochs - 1:
            ev = evaluate(model, dataset, "val", seed=cfg.seed)
            log({"epoch": epoch, "split": "val", "metric": ev["metric"],
                 "value": ev["mean"]})
            if _better(dataset.task, ev["mean"], result.best_value):
                result.best_value = ev["mean"]
                result.best_epoch = epoch
                result.best_state = model.state_arrays()
            if target_value is not None:
                reached = (ev["mean"] >= target_value
                           if dataset.task == "classification"
                           else ev["mean"] <= target_value)
                if reached:
                    break
    if result.best_state is not None:
        model.load_state_arrays(result.best_state)
    return result


# =============================================================================
# Checkpoints
# =============================================================================

def save_checkpoint(model: Model, path: str) -> None:
    """Write parameters as a tensor-file bundle plus a JSON manifest with the
    parameter names (in file order) and the model configuration."""
    arrays = model.state_arrays()
    names = sorted(arrays)
    save_tensors(path, [arrays[k] for k in names])
    manifest = {"params": names, "config": json.loads(model.config.to_json())}
    with open(path + ".json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_checkpoint(path: str):
    """Rebuild a model from ``save_checkpoint`` output.

    Raises
    ------
    ParseError
        If the ``.json`` manifest is not UTF-8 JSON, not an object, or lacks a
        ``params`` list of names or a ``config`` object.
    ShapeError
        If the tensors do not match the names or the model's parameters.
    """
    try:
        manifest = json.loads(_read_text(path + ".json"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"checkpoint manifest is not valid JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise ParseError("checkpoint manifest must be a JSON object")
    names = manifest.get("params")
    if not isinstance(names, list) or not all(isinstance(k, str) for k in names):
        raise ParseError("checkpoint manifest needs 'params', a list of parameter names")
    model = Model(ModelConfig.from_json(json.dumps(manifest.get("config"))))
    tensors = load_tensors(path)
    if len(tensors) != len(names):
        raise ShapeError(f"checkpoint holds {len(tensors)} tensors, "
                         f"manifest lists {len(names)}")
    model.load_state_arrays(dict(zip(names, tensors)))
    return model
