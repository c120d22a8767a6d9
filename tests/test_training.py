"""Training loop, losses, evaluation, and checkpoint tests."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from neuralwalker.autodiff import Tensor
from neuralwalker.datasets import make_cycle_path_dataset, make_triangle_count_dataset
from neuralwalker.errors import BadSchedule, ParseError, ShapeError, TensorError
from neuralwalker.model import Model, ModelConfig
from neuralwalker.training import (
    classification_loss,
    evaluate,
    load_checkpoint,
    predict,
    regression_loss,
    save_checkpoint,
    train_model,
)


def _config(**overrides):
    base = dict(hidden_dim=8, n_blocks=1, seq_layer="conv", kernel=3,
                window=4, walk_length=4, node_dim=1, rate=1.0,
                epochs=3, batch_size=6, base_lr=3e-3, warmup_epochs=1,
                head="classification", n_classes=2, seed=0)
    base.update(overrides)
    return ModelConfig(**base)


def _small_dataset(task="classification"):
    if task == "classification":
        return make_cycle_path_dataset(seed=1, n_train=12, n_val=6, n_test=6,
                                       min_nodes=4, max_nodes=6)
    return make_triangle_count_dataset(seed=1, n_train=8, n_val=4, n_test=4,
                                       min_nodes=6, max_nodes=7)


# -----------------------------------------------------------------------------
# Losses
# -----------------------------------------------------------------------------

def test_classification_loss_matches_hand_cross_entropy():
    logits = np.array([[2.0, -1.0], [0.5, 0.5], [-3.0, 1.0]])
    labels = np.array([0, 1, 0])
    loss = classification_loss(Tensor(logits), labels)
    probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    want = -np.mean(np.log(probs[np.arange(3), labels]))
    assert abs(float(loss.data) - want) < 1e-12
    with pytest.raises(ShapeError):
        classification_loss(Tensor(logits), np.array([0, 1]))


def test_regression_loss_matches_mse_and_broadcasts_targets():
    pred = np.array([[1.0], [2.0], [4.0]])
    targets = np.array([0.0, 2.0, 1.0])
    loss = regression_loss(Tensor(pred), targets)
    assert abs(float(loss.data) - np.mean((pred[:, 0] - targets) ** 2)) < 1e-12
    with pytest.raises(ShapeError):
        regression_loss(Tensor(pred), np.zeros(4))


# -----------------------------------------------------------------------------
# Training loop
# -----------------------------------------------------------------------------

def test_training_reduces_loss_and_keeps_best_snapshot():
    dataset = _small_dataset()
    model = Model(_config(epochs=4), seed=0)
    result = train_model(model, dataset)
    train_losses = [e["value"] for e in result.history if e["split"] == "train"]
    val_entries = [e for e in result.history if e["split"] == "val"]
    assert result.epochs_run == 4
    assert len(train_losses) == 4
    assert len(val_entries) == 4
    assert val_entries[0]["metric"] == "accuracy"
    assert train_losses[-1] < train_losses[0]
    assert result.best_state is not None
    assert result.best_value == max(e["value"] for e in val_entries)
    # The best snapshot is restored into the live model.
    restored = model.state_arrays()
    for k, v in result.best_state.items():
        assert (restored[k] == v).all()


def test_training_is_bit_reproducible():
    dataset = _small_dataset()
    runs = []
    for _ in range(2):
        model = Model(_config(epochs=2), seed=3)
        result = train_model(model, dataset)
        runs.append((result, model.state_arrays()))
    (r1, s1), (r2, s2) = runs
    assert [e["value"] for e in r1.history] == [e["value"] for e in r2.history]
    assert sorted(s1) == sorted(s2)
    for k in s1:
        assert (s1[k] == s2[k]).all()


def test_training_stops_at_target_value():
    dataset = _small_dataset()
    model = Model(_config(epochs=50), seed=0)
    result = train_model(model, dataset, target_value=0.0)  # any accuracy passes
    assert result.epochs_run == 1


@pytest.mark.filterwarnings("ignore:overflow")
def test_training_aborts_on_non_finite_loss():
    dataset = _small_dataset("regression")
    model = Model(_config(head="regression", epochs=1, batch_size=8), seed=0)
    model.params["head.w"].data *= 1e200
    with pytest.raises(TensorError, match="non-finite"):
        train_model(model, dataset)


@pytest.mark.parametrize("kwargs", [{"eval_every": 0}, {"eval_every": -1},
                                    {"target_value": float("nan")}])
def test_training_rejects_a_schedule_it_cannot_follow(kwargs):
    model = Model(_config())
    with pytest.raises(BadSchedule):
        train_model(model, _small_dataset(), **kwargs)


@pytest.mark.parametrize("task,fields", [("classification", {"head": "regression"}),
                                         ("classification", {"pooling": "none"}),
                                         ("classification", {"n_classes": 3}),
                                         ("regression", {"head": "regression", "out_dim": 2})])
def test_train_model_rejects_a_head_that_does_not_fit_the_task(task, fields, monkeypatch):
    forwards = []
    monkeypatch.setattr(Model, "forward", lambda *args, **kw: forwards.append(args))
    with pytest.raises(ShapeError, match="head"):
        train_model(Model(_config(**fields)), _small_dataset(task))
    assert forwards == []


def test_train_model_runs_the_config_epochs():
    dataset = _small_dataset()
    model = Model(_config(epochs=2), seed=0)
    result = train_model(model, dataset)
    assert result.epochs_run == 2
    assert [e["epoch"] for e in result.history if e["split"] == "train"] == [0, 1]


# -----------------------------------------------------------------------------
# Evaluation and prediction
# -----------------------------------------------------------------------------

def test_evaluate_reports_spread_over_resamplings():
    dataset = _small_dataset("regression")
    model = Model(_config(head="regression"), seed=1)
    out = evaluate(model, dataset, "val", seed=5, repeat=3)
    assert out["metric"] == "mae"
    assert len(out["values"]) == 3
    assert out["std"] >= 0.0
    assert abs(out["mean"] - np.mean(out["values"])) < 1e-12
    again = evaluate(model, dataset, "val", seed=5, repeat=3)
    assert out == again

    averaged = evaluate(model, dataset, "val", seed=5, repeat=3,
                        average_predictions=True)
    assert len(averaged["values"]) == 1
    assert averaged["std"] == 0.0


def test_predict_chunking_is_seeded_per_chunk():
    dataset = _small_dataset()
    model = Model(_config(), seed=2)
    graphs, _ = dataset.subset("val")
    out = predict(model, graphs, seed=9, batch_size=2)
    assert out.shape == (len(graphs), 2)
    assert np.isfinite(out).all()
    assert (out == predict(model, graphs, seed=9, batch_size=2)).all()


# -----------------------------------------------------------------------------
# Checkpoints
# -----------------------------------------------------------------------------

def test_checkpoint_round_trip(tmp_path):
    model = Model(_config(seq_layer="s4", state=4), seed=4)
    path = str(tmp_path / "model.nwtf")
    save_checkpoint(model, path)
    back = load_checkpoint(path)
    assert back.config == model.config
    g_list = _small_dataset().subset("test")[0][:3]
    p1 = predict(model, g_list, seed=0)
    p2 = predict(back, g_list, seed=0)
    assert (p1 == p2).all()


def test_checkpoint_detects_tensor_count_mismatch(tmp_path):
    import json
    model = Model(_config(), seed=0)
    path = str(tmp_path / "model.nwtf")
    save_checkpoint(model, path)
    with open(path + ".json") as fh:
        manifest = json.load(fh)
    manifest["params"] = manifest["params"][:-1]
    with open(path + ".json", "w") as fh:
        json.dump(manifest, fh)
    with pytest.raises(ShapeError):
        load_checkpoint(path)


@pytest.mark.parametrize("sidecar", [
    b"not json",
    b"[1]",
    b"3",
    b'{"config": 3}',
    b'{"params": 3, "config": {}}',
    b'{"params": [1, 2], "config": {}}',
    b'{"params": []}',
    b'{"params": [], "config": null}',
    b'{"params": [], "config": 3}',
    b"\xff\xfe{}",
])
def test_checkpoint_rejects_a_malformed_manifest(tmp_path, sidecar):
    path = str(tmp_path / "model.nwtf")
    save_checkpoint(Model(_config(), seed=0), path)
    with open(path + ".json", "wb") as fh:
        fh.write(sidecar)
    with pytest.raises(ParseError):
        load_checkpoint(path)


# The lines ``tools/train_digests.py`` printed when it was added; a change that
# keeps the model's, sampler's and optimizer's bits leaves every one of them.
_TRAIN_DIGESTS = """\
conv+virtual_node+sum 26bfcf0373e27d89f263478c34b80071c4e7f65d05b64f5b5bbdbfcdc9b99e69
attention+virtual_node+mean 41f43c54f5c297ce0458f29d509e9dc8bd4bbba4a04cefbfbc3511a6702a38e2
s4+none+mean+constant b266834008672db881514426c996c74ec91a5d93847b0c137e5d7ed863c042d2
selective+transformer+sum fd761972e6f592d4eb794402fb12510fa2617d3dc1937611cbb1c83301d40a50
conv+transformer+mean+constant 60e417849916bad5ef0257dbf74e85443a5945c06d102ce079b142ec6d52c0ba
s4 0e022dc7d3f37f0c17ba99c2882b1dfecdac1344645811d16a0b1b2abbff1839
selective 3c3fb359e36528ee76c9907a6b64ed57ac655b0ff83f581e27c806d410772ea8
bidirectional selective e495b7d34cc38064d27e7e8f136e8a5b95bc14d2c7b96b4fe1f6eed0a41a8e13
"""


def test_train_digests_script_prints_the_pinned_lines():
    """The script sets its own BLAS thread count, so it runs in a fresh process."""
    script = Path(__file__).resolve().parent.parent / "tools" / "train_digests.py"
    run = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout == _TRAIN_DIGESTS
