"""Autodiff engine tests: per-op gradients, tape semantics, broadcast policy."""

import numpy as np
import pytest

from neuralwalker import autodiff as ad
from neuralwalker.autodiff import Tape, Tensor, backward
from neuralwalker.errors import ShapeError

from conftest import fd_gradcheck, random_tensor


def _weighted_sum(t: Tensor, weights: np.ndarray) -> Tensor:
    """Scalar probe loss: sum(t * weights) with fixed non-grad weights."""
    return ad.reduce_sum(ad.mul(t, Tensor(weights)))


# -----------------------------------------------------------------------------
# Per-op gradient checks (central differences, step 1e-6, rel tol 1e-4)
# -----------------------------------------------------------------------------

UNARY_OPS = [
    ("neg", ad.neg, (-2.0, 2.0)),
    ("exp", ad.exp, (-1.5, 1.5)),
    ("log", ad.log, (0.4, 3.0)),
    ("relu", ad.relu, (-2.0, 2.0)),
    ("gelu", ad.gelu, (-2.0, 2.0)),
    ("silu", ad.silu, (-2.0, 2.0)),
    ("sigmoid", ad.sigmoid, (-3.0, 3.0)),
    ("tanh", ad.tanh, (-2.0, 2.0)),
    ("softplus", ad.softplus, (-3.0, 3.0)),
    ("zoh_phi", ad.zoh_phi, (-2.0, -0.01)),
]


@pytest.mark.parametrize("name,op,box", UNARY_OPS, ids=[u[0] for u in UNARY_OPS])
def test_unary_gradients(name, op, box):
    rng = np.random.default_rng(hash(name) % (1 << 32))
    lo, hi = box
    x = Tensor(rng.uniform(lo, hi, size=(3, 5)), requires_grad=True)
    weights = rng.standard_normal((3, 5))
    fd_gradcheck(lambda: _weighted_sum(op(x), weights), {"x": x})


def test_relu_gradcheck_avoids_kink():
    # relu is not differentiable at 0; verify the probe values stay away.
    x = Tensor(np.array([[0.5, -0.5], [1.0, -1.0]]), requires_grad=True)
    fd_gradcheck(lambda: ad.reduce_sum(ad.relu(x)), {"x": x})
    assert (x.grad == np.array([[1.0, 0.0], [1.0, 0.0]])).all()


def test_zoh_phi_smooth_through_zero():
    # The series branch must agree with the exact formula on both sides.
    x = Tensor(np.array([-1e-3, -1e-5, 0.0, 1e-5, 1e-3, 0.5]),
               requires_grad=True)
    w = np.ones(6)
    fd_gradcheck(lambda: _weighted_sum(ad.zoh_phi(x), w), {"x": x},
                 n_probes=12, seed=4)
    val = ad.zoh_phi(x).data
    assert val[2] == pytest.approx(1.0)
    assert val[5] == pytest.approx(np.expm1(0.5) / 0.5, rel=1e-12)


def test_binary_elementwise_gradients(rng):
    a = random_tensor(rng, (4, 3))
    b = random_tensor(rng, (4, 3))
    w = rng.standard_normal((4, 3))
    fd_gradcheck(lambda: _weighted_sum(ad.add(a, b), w), {"a": a, "b": b})
    fd_gradcheck(lambda: _weighted_sum(ad.sub(a, b), w), {"a": a, "b": b})
    fd_gradcheck(lambda: _weighted_sum(ad.mul(a, b), w), {"a": a, "b": b})
    fd_gradcheck(lambda: _weighted_sum(ad.scale(a, -1.7), w), {"a": a})


def test_suffix_broadcast_gradients(rng):
    x = random_tensor(rng, (5, 4))
    bias = random_tensor(rng, (4,))
    w = rng.standard_normal((5, 4))
    fd_gradcheck(lambda: _weighted_sum(ad.add(x, bias), w),
                 {"x": x, "bias": bias})
    fd_gradcheck(lambda: _weighted_sum(ad.mul(x, bias), w),
                 {"x": x, "bias": bias})


def test_matmul_gradients(rng):
    a = random_tensor(rng, (4, 3))
    b = random_tensor(rng, (3, 5))
    w = rng.standard_normal((4, 5))
    fd_gradcheck(lambda: _weighted_sum(ad.matmul(a, b), w), {"a": a, "b": b})


def test_matmul_batched_shared_weight_gradients(rng):
    # (m, T, k) @ (k, p): the weight VJP must sum over every batch row.
    a = random_tensor(rng, (2, 3, 4))
    b = random_tensor(rng, (4, 5))
    w = rng.standard_normal((2, 3, 5))
    fd_gradcheck(lambda: _weighted_sum(ad.matmul(a, b), w), {"a": a, "b": b},
                 n_probes=30)


def test_matmul_batched_both_sides(rng):
    a = random_tensor(rng, (2, 3, 4))
    b = random_tensor(rng, (2, 4, 2))
    w = rng.standard_normal((2, 3, 2))
    fd_gradcheck(lambda: _weighted_sum(ad.matmul(a, b), w), {"a": a, "b": b})


def test_softmax_and_log_softmax_gradients(rng):
    x = random_tensor(rng, (3, 6), scale=2.0)
    w = rng.standard_normal((3, 6))
    fd_gradcheck(lambda: _weighted_sum(ad.softmax(x), w), {"x": x})
    fd_gradcheck(lambda: _weighted_sum(ad.log_softmax(x), w), {"x": x})
    probs = ad.softmax(x).data
    assert np.allclose(probs.sum(axis=-1), 1.0)
    assert np.allclose(np.log(probs), ad.log_softmax(x).data)


def test_layernorm_gradients(rng):
    x = random_tensor(rng, (4, 6), scale=2.0)
    gain = Tensor(rng.uniform(0.5, 1.5, size=(6,)), requires_grad=True)
    bias = random_tensor(rng, (6,))
    w = rng.standard_normal((4, 6))
    fd_gradcheck(lambda: _weighted_sum(ad.layernorm(x, gain, bias), w),
                 {"x": x, "gain": gain, "bias": bias}, n_probes=30)
    out = ad.layernorm(x, Tensor(np.ones(6)), Tensor(np.zeros(6))).data
    assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-12)
    assert np.allclose(out.std(axis=-1), 1.0, atol=1e-3)


def test_reduce_gradients(rng):
    x = random_tensor(rng, (3, 4, 2))
    w0 = rng.standard_normal((4, 2))
    fd_gradcheck(lambda: _weighted_sum(ad.reduce_sum(x, axis=0), w0), {"x": x})
    w1 = rng.standard_normal((3, 2))
    fd_gradcheck(lambda: _weighted_sum(ad.reduce_mean(x, axis=1), w1), {"x": x})
    fd_gradcheck(lambda: ad.reduce_sum(x), {"x": x})
    w2 = rng.standard_normal((3, 1, 2))
    fd_gradcheck(lambda: _weighted_sum(ad.reduce_sum(x, axis=1, keepdims=True), w2),
                 {"x": x})


def test_shape_op_gradients(rng):
    x = random_tensor(rng, (2, 3, 4))
    w = rng.standard_normal((6, 4))
    fd_gradcheck(lambda: _weighted_sum(ad.reshape(x, (6, 4)), w), {"x": x})
    wt = rng.standard_normal((4, 2, 3))
    fd_gradcheck(lambda: _weighted_sum(ad.transpose(x, (2, 0, 1)), wt), {"x": x})
    wf = rng.standard_normal((2, 3, 4))
    fd_gradcheck(lambda: _weighted_sum(ad.flip_axis(x, 1), wf), {"x": x})
    ws = rng.standard_normal((2, 2, 4))
    fd_gradcheck(lambda: _weighted_sum(ad.slice_axis(x, 1, 0, 2), ws), {"x": x})


def test_expand_gradients(rng):
    x = random_tensor(rng, (3, 1))
    w = rng.standard_normal((3, 5))
    fd_gradcheck(lambda: _weighted_sum(ad.expand(x, (3, 5)), w), {"x": x})
    y = random_tensor(rng, (1, 3, 1))
    w2 = rng.standard_normal((2, 3, 4))
    fd_gradcheck(lambda: _weighted_sum(ad.expand(y, (2, 3, 4)), w2), {"y": y})


def test_concat_gradients(rng):
    a = random_tensor(rng, (3, 2))
    b = random_tensor(rng, (3, 4))
    w = rng.standard_normal((3, 6))
    fd_gradcheck(lambda: _weighted_sum(ad.concat([a, b], axis=-1), w),
                 {"a": a, "b": b})


def test_gather_scatter_segment_gradients(rng):
    x = random_tensor(rng, (4, 3))
    index = np.array([2, 0, 0, 3, 1, 2])
    w = rng.standard_normal((6, 3))
    fd_gradcheck(lambda: _weighted_sum(ad.gather_rows(x, index), w), {"x": x})

    vals = random_tensor(rng, (6, 3))
    seg = np.array([0, 0, 1, 2, 2, 2])
    w2 = rng.standard_normal((4, 3))
    fd_gradcheck(lambda: _weighted_sum(ad.scatter_add(vals, seg, 4), w2),
                 {"vals": vals})
    fd_gradcheck(lambda: _weighted_sum(ad.segment_mean(vals, seg, 4), w2),
                 {"vals": vals})


def test_conv1d_depthwise_gradients(rng):
    x = random_tensor(rng, (2, 6, 3))
    kernel = random_tensor(rng, (5, 3))
    w = rng.standard_normal((2, 6, 3))
    fd_gradcheck(lambda: _weighted_sum(ad.conv1d_depthwise(x, kernel), w),
                 {"x": x, "kernel": kernel}, n_probes=30)


def test_associative_scan_gradients(rng):
    a = Tensor(rng.uniform(0.2, 0.9, size=(2, 5, 3)), requires_grad=True)
    b = random_tensor(rng, (2, 5, 3))
    w = rng.standard_normal((2, 5, 3))
    fd_gradcheck(lambda: _weighted_sum(ad.associative_scan(a, b), w),
                 {"a": a, "b": b}, n_probes=30)


# -----------------------------------------------------------------------------
# Op semantics
# -----------------------------------------------------------------------------

def test_segment_mean_pinned_example():
    vals = Tensor(np.array([[1.0], [3.0], [5.0]]))
    out = ad.segment_mean(vals, np.array([0, 0, 1]), 2)
    assert out.data.ravel().tolist() == [2.0, 5.0]


def test_segment_mean_empty_segment_is_zero():
    vals = Tensor(np.array([[4.0], [6.0]]))
    out = ad.segment_mean(vals, np.array([0, 0]), 3)
    assert out.data.ravel().tolist() == [5.0, 0.0, 0.0]


def test_segment_mean_permutation_equivariant(rng):
    vals = rng.standard_normal((8, 3))
    seg = np.array([0, 1, 1, 2, 0, 2, 2, 1])
    base = ad.segment_mean(Tensor(vals), seg, 3).data
    perm = rng.permutation(8)
    again = ad.segment_mean(Tensor(vals[perm]), seg[perm], 3).data
    assert np.allclose(base, again, atol=1e-14)


def test_scatter_add_matches_bincount(rng):
    vals = rng.standard_normal((10, 2))
    seg = rng.integers(0, 4, size=10)
    out = ad.scatter_add(Tensor(vals), seg, 4).data
    for k in range(4):
        assert np.allclose(out[k], vals[seg == k].sum(axis=0))


def test_segment_sum_matches_add_at_bit_for_bit(rng):
    # Reference: np.add.at accumulates rows one at a time in input order.
    for trial in range(60):
        n_rows, n_out = int(rng.integers(0, 200)), int(rng.integers(1, 12))
        ids = rng.integers(0, max(1, n_out // 2), size=n_rows)   # repeats, empty segments
        x = rng.standard_normal((n_rows, 3)) * 10.0 ** rng.integers(-8, 9, size=(n_rows, 1))
        x[rng.random((n_rows, 3)) < 0.2] = -0.0
        x[rng.random(n_rows) < 0.2] = 0.0                          # whole zero rows
        ref = np.zeros((n_out, 3))
        np.add.at(ref, ids, x)
        out = ad._segment_sum(x, ids, n_out)
        assert out.shape == ref.shape and out.tobytes() == ref.tobytes()


def test_conv1d_box_kernel_averages_neighbors():
    # Kernel [1/3, 1/3, 1/3] with zero padding at the ends.
    x = Tensor(np.arange(5, dtype=np.float64).reshape(1, 5, 1))
    kernel = Tensor(np.full((3, 1), 1.0 / 3.0))
    out = ad.conv1d_depthwise(x, kernel).data.ravel()
    assert np.allclose(out, [1 / 3, 1.0, 2.0, 3.0, 7 / 3])


def test_scan_matches_sequential_reference(rng):
    a = rng.uniform(-0.9, 0.9, size=(3, 7, 4))
    b = rng.standard_normal((3, 7, 4))
    out = ad.associative_scan(Tensor(a), Tensor(b)).data
    ref = np.zeros_like(b)
    h = np.zeros((3, 4))
    for t in range(7):
        h = a[:, t] * h + b[:, t]
        ref[:, t] = h
    assert np.allclose(out, ref, atol=1e-12)


def test_scan_prefix_sum_special_case():
    # a == 1 turns the recurrence into a cumulative sum.
    b = np.arange(6, dtype=np.float64).reshape(1, 6, 1)
    out = ad.associative_scan(Tensor(np.ones_like(b)), Tensor(b)).data
    assert np.allclose(out.ravel(), np.cumsum(b.ravel()))


# -----------------------------------------------------------------------------
# Tape semantics
# -----------------------------------------------------------------------------

def test_two_uses_sum_gradients():
    x = Tensor(np.array([3.0]), requires_grad=True)
    with Tape() as tape:
        y = ad.mul(x, x)  # d/dx = 2x = 6
        loss = ad.reduce_sum(ad.add(y, x))  # + 1
    backward(loss, tape)
    assert x.grad[0] == pytest.approx(7.0)


def test_unreachable_leaf_gets_zero_gradient():
    x = Tensor(np.array([1.0]), requires_grad=True)
    unused = Tensor(np.array([2.0]), requires_grad=True)
    with Tape() as tape:
        loss = ad.reduce_sum(ad.mul(x, x))
    backward(loss, tape, leaves=[x, unused])
    assert unused.grad is not None and unused.grad[0] == 0.0
    assert x.grad[0] == pytest.approx(2.0)


def test_backward_rejects_non_scalar_loss():
    x = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        y = ad.mul(x, x)
    with pytest.raises(ShapeError):
        backward(y, tape)


def test_no_tape_records_nothing():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    y = ad.relu(ad.mul(x, x))
    assert isinstance(y, Tensor)
    with Tape() as tape:
        ad.mul(x, x)
        assert len(tape.records) == 1
    ad.mul(x, x)
    assert len(tape.records) == 1


def test_tape_replay_is_deterministic(rng):
    # Two identical forward+backward passes produce bit-identical grads.
    x_data = rng.standard_normal((4, 4))
    w_data = rng.standard_normal((4, 4))

    def run():
        x = Tensor(x_data.copy(), requires_grad=True)
        w = Tensor(w_data.copy(), requires_grad=True)
        with Tape() as tape:
            h = ad.relu(ad.matmul(x, w))
            loss = ad.reduce_sum(ad.mul(h, h))
        backward(loss, tape)
        return x.grad.copy(), w.grad.copy()

    gx1, gw1 = run()
    gx2, gw2 = run()
    assert (gx1 == gx2).all()
    assert (gw1 == gw2).all()


# -----------------------------------------------------------------------------
# Broadcast policy: equal shapes, scalars, and trailing suffixes only
# -----------------------------------------------------------------------------

def test_broadcast_policy():
    a = Tensor(np.ones((4, 3)))
    assert ad.add(a, 2.0).data.max() == 3.0
    assert ad.add(a, Tensor(np.ones(3))).shape == (4, 3)
    with pytest.raises(ShapeError):
        ad.add(a, Tensor(np.ones((4, 1))))  # size-1 axis is NOT broadcast
    with pytest.raises(ShapeError):
        ad.add(a, Tensor(np.ones((4,))))  # leading prefix is not a suffix
    with pytest.raises(ShapeError):
        ad.mul(a, Tensor(np.ones((2, 3))))


def test_expand_only_grows_size_one_axes():
    x = Tensor(np.ones((3, 1)))
    assert ad.expand(x, (3, 5)).shape == (3, 5)
    with pytest.raises(ShapeError):
        ad.expand(x, (4, 5))
    with pytest.raises(ShapeError):
        ad.expand(Tensor(np.ones((3, 2))), (3, 5))


def test_matmul_shape_errors():
    with pytest.raises(ShapeError):
        ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))
