"""Autodiff engine tests: per-op gradients, tape semantics, broadcast policy."""

import warnings

import numpy as np
import pytest

from neuralwalker import autodiff as ad
from neuralwalker.autodiff import Tape, Tensor, backward
from neuralwalker.errors import BadKernel, ShapeError

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


def _selective_inputs(rng, m, T, d, n, requires_grad=False):
    """x, delta, B, C and A for ``selective_scan``. x is zero, as the layer's
    mask leaves it (with -0.0 where it was negative), after a random end of
    each walk; A holds entries of 0, 1e-7 and -2e-5 next to its init."""
    keep = np.arange(T)[None, :] < rng.integers(1, T + 1, size=m)[:, None]
    x = rng.standard_normal((m, T, d)) * keep[..., None]
    delta = np.log1p(np.exp(rng.normal(-2.0, 1.5, (m, T, d))))
    a = -np.tile(1.0 + np.arange(n, dtype=np.float64), (d, 1))
    a.flat[[0, n + 1, 2 * n + 2]] = (0.0, 1e-7, -2e-5)
    arrays = (x, delta, rng.standard_normal((m, T, n)), rng.standard_normal((m, T, n)), a)
    return [Tensor(v, requires_grad=requires_grad) for v in arrays]


def test_selective_scan_gradients(rng):
    inputs = _selective_inputs(rng, 2, 5, 3, 4, requires_grad=True)
    w = rng.standard_normal((2, 5, 3))
    fd_gradcheck(lambda: _weighted_sum(ad.selective_scan(*inputs), w),
                 dict(zip(("x", "delta", "b", "c", "a"), inputs)), n_probes=40)


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


def test_segment_mean_vjp_bits_equal_the_per_row_division(rng):
    seg = rng.permutation(np.repeat([0, 2, 3], [3, 5, 7]))   # segments 1 and 4 are empty
    vals = Tensor(rng.standard_normal((seg.size, 16)), requires_grad=True)
    g = rng.standard_normal((5, 16))
    with Tape() as tape:
        loss = ad.reduce_sum(ad.mul(ad.segment_mean(vals, seg, 5), Tensor(g)))
    backward(loss, tape)
    denom = np.maximum(np.bincount(seg, minlength=5).astype(np.float64), 1.0)[:, None]
    assert vals.grad.tobytes() == (g[seg] / denom[seg]).tobytes()


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
        out = ad._segment_sum(x, ad.Segments(ids, n_out))
        assert out.shape == ref.shape and out.tobytes() == ref.tobytes()


def _probe(shape) -> np.ndarray:
    """A fixed output gradient with some -0.0 entries."""
    rng = np.random.default_rng(31)
    g = rng.standard_normal(shape)
    g[rng.random(shape) < 0.1] = -0.0
    return g


def _taped(op, *arrays):
    """Value and VJP pieces of ``op`` on leaf tensors of ``arrays`` (kept
    uncopied, strides and all), for the output gradient ``_probe``."""
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    with Tape() as tape:
        out = op(*leaves)
    g = _probe(out.shape)
    return (out.data,) + tuple(tape.records[-1].vjp(g))


@pytest.mark.parametrize("op", ["segment_mean", "scatter_add", "gather_rows"])
def test_raw_ids_and_a_segment_plan_give_the_same_bits(rng, op):
    ids = rng.integers(0, 6, size=40)                      # ids 6 and 7 stay empty
    x = rng.standard_normal((40 if op != "gather_rows" else 8, 5))
    x[rng.random(x.shape) < 0.1] = -0.0
    plan = ad.Segments(ids, 8)
    fn = getattr(ad, op)
    raw = _taped(lambda t: fn(t, ids) if op == "gather_rows" else fn(t, ids, 8), x)
    planned = [_taped(lambda t: fn(t, plan) if op == "gather_rows" else fn(t, plan, 8), x)
               for _ in range(2)]                          # the second call reuses the build
    for again in planned:
        assert [a.tobytes() for a in again] == [a.tobytes() for a in raw]
    assert plan.counts.tolist() == np.bincount(ids, minlength=8).tolist()


def test_a_segment_plan_that_does_not_fit_raises_shape_error():
    for ids, n in ((np.array([0, 3]), 3), (np.array([-1, 0]), 2), (np.array([], int), -1)):
        with pytest.raises(ShapeError):
            ad.Segments(ids, n)
    plan = ad.Segments(np.array([0, 1, 1]), 2)
    with pytest.raises(ShapeError):                        # n does not fit
        ad.scatter_add(Tensor(np.ones((3, 2))), plan, 3)
    with pytest.raises(ShapeError):
        ad.segment_mean(Tensor(np.ones((3, 2))), plan, 1)
    with pytest.raises(ShapeError):                        # length does not fit
        ad.scatter_add(Tensor(np.ones((4, 2))), plan, 2)
    with pytest.raises(ShapeError):                        # gathers from 2 rows only
        ad.gather_rows(Tensor(np.ones((3, 2))), plan)
    assert ad.gather_rows(Tensor(np.ones((2, 2))), plan).shape == (3, 2)


def _conv_per_tap(x, w, g):
    """The per-tap loop of full-size multiply-adds that conv1d_depthwise's
    einsums must reproduce bit for bit: value, dx, dw."""
    k, d = w.shape
    t, h = x.shape[-2], k // 2
    pad = [(0, 0)] * (x.ndim - 2) + [(h, h), (0, 0)]
    xp = np.pad(x, pad)
    out = np.zeros_like(x)
    for j in range(k):
        out += xp[..., j:j + t, :] * w[j]
    gp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    for j in range(k):
        gp[..., j:j + t, :] += g * w[j]
        dw[j] = (g * xp[..., j:j + t, :]).reshape(-1, d).sum(axis=0)
    return out, gp[..., h:h + t, :], dw


@pytest.mark.parametrize("k", [1, 3, 5, 7])
@pytest.mark.parametrize("shape", [(1, 21, 24), (3, 7, 5), (64, 11, 32), (6, 2, 4),
                                   (2, 3, 21, 24), (4, 0, 6), (0, 5, 3), (2, 1, 2)],
                         ids=["walk", "small", "wide", "k_over_T", "4d", "T0", "m0", "T1"])
def test_conv1d_depthwise_bits_equal_the_per_tap_loop(shape, k):
    rng = np.random.default_rng(k * 100 + len(shape))
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 7, size=shape[:-1] + (1,))
    x[rng.random(shape[:-1]) < 0.25] = 0.0                 # masked zero rows
    x[rng.random(shape) < 0.1] = -0.0
    w = rng.standard_normal((k, shape[-1]))
    w[rng.random(w.shape) < 0.2] = -0.0
    got = _taped(ad.conv1d_depthwise, x, w)
    g = _probe(shape)
    for a, b in zip(got, _conv_per_tap(x, w, g)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_conv1d_depthwise_on_one_channel_is_within_rounding_of_the_per_tap_loop(rng):
    # At D = 1 numpy reduces the taps and the rows with its own unrolled
    # sums, so there the promise is the float64 bound of a reordered sum:
    # n terms * eps * the sum of the terms' magnitudes.
    x, w = rng.standard_normal((9, 13, 1)), rng.standard_normal((5, 1))
    got = _taped(ad.conv1d_depthwise, x, w)
    g = _probe(x.shape)
    magnitudes = _conv_per_tap(np.abs(x), np.abs(w), np.abs(g))
    for a, b, size, n_terms in zip(got, _conv_per_tap(x, w, g), magnitudes, (5, 5, x.size)):
        assert np.all(np.abs(a - b) <= n_terms * np.finfo(np.float64).eps * size)


def test_conv1d_depthwise_rejects_even_kernels_and_channel_mismatch():
    with pytest.raises(BadKernel):
        ad.conv1d_depthwise(Tensor(np.ones((2, 5, 3))), Tensor(np.ones((4, 3))))
    with pytest.raises(ShapeError):
        ad.conv1d_depthwise(Tensor(np.ones((2, 5, 3))), Tensor(np.ones((3, 2))))


@pytest.mark.parametrize("p", [1, 15, 24, 48])
@pytest.mark.parametrize("layout", ["3d", "4d", "transposed"])
def test_shared_weight_matmul_bits_equal_a_per_matrix_loop(layout, p):
    rng = np.random.default_rng(p)
    a = {"3d": lambda: rng.standard_normal((64, 21, 24)),
         "4d": lambda: rng.standard_normal((2, 5, 21, 24)),
         "transposed": lambda: rng.standard_normal((21, 64, 24)).transpose(1, 0, 2)}[layout]()
    b = rng.standard_normal((24, p))
    value, da, db = _taped(ad.matmul, a, b)
    mats = a.reshape((-1,) + a.shape[-2:])
    g = _probe(value.shape)
    gs = g.reshape((-1,) + g.shape[-2:])
    assert value.tobytes() == np.stack([m @ b for m in mats]).reshape(value.shape).tobytes()
    assert da.tobytes() == np.stack([gm @ b.T for gm in gs]).reshape(a.shape).tobytes()
    assert db.tobytes() == (a.reshape(-1, 24).T @ g.reshape(-1, p)).tobytes()


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


def test_scan_bits_equal_the_step_loop_with_signed_zeros():
    # The in-place scan and its adjoint against the loops they replaced:
    # state = a_t * state + b_t from a zero state, and the reverse sweep.
    rng = np.random.default_rng(12)
    a = rng.uniform(-1.0, 1.0, (3, 6, 5))
    b = rng.standard_normal((3, 6, 5))
    g = rng.standard_normal((3, 6, 5))
    a[:, 0, :2] = -0.5                    # a_0 * 0 is -0.0 ...
    b[:, :, :3] = -0.0                    # ... and -0.0 + -0.0 stays -0.0
    a[1, :, 3] = -0.0
    g[:, -2:, 1:4] = -0.0
    h, state = np.empty_like(b), np.zeros((3, 5))
    for t in range(6):
        state = a[:, t] * state + b[:, t]
        h[:, t] = state
    da, db, s = np.empty_like(a), np.empty_like(b), np.zeros((3, 5))
    for t in range(5, -1, -1):
        s = s + g[:, t]
        da[:, t] = s * (h[:, t - 1] if t > 0 else np.zeros((3, 5)))
        db[:, t] = s
        s = s * a[:, t]
    ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
    with Tape() as tape:
        out = ad.associative_scan(ta, tb)
        loss = _weighted_sum(out, g)
    backward(loss, tape)
    assert np.signbit(h[h == 0]).any() and np.signbit(da[da == 0]).any()
    assert out.data.tobytes() == h.tobytes()
    assert ta.grad.tobytes() == da.tobytes() and tb.grad.tobytes() == db.tobytes()


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


def test_expand_is_a_read_only_view_with_the_same_gradient():
    x = Tensor(np.arange(3.0).reshape(3, 1), requires_grad=True)
    w = np.arange(15.0).reshape(3, 5) - 7.0
    with Tape() as tape:
        y = ad.expand(x, (3, 5))
        loss = _weighted_sum(y, w)
    assert not y.data.flags.writeable
    assert np.shares_memory(y.data, x.data)
    with pytest.raises(ValueError):
        y.data[0, 0] = 1.0
    backward(loss, tape)
    assert x.grad.tobytes() == w.sum(axis=1, keepdims=True).tobytes()


@pytest.mark.parametrize("shape", [(5, 4), (3, 5, 4)], ids=["2d", "3d"])
def test_mask_rows_bits_equal_a_multiply_by_the_float_copy(shape):
    rng = np.random.default_rng(12)
    x = rng.normal(size=shape)
    specials = np.array([-np.inf, np.inf, -0.0, 0.0, -3.5])
    x[..., 0] = np.resize(specials, shape[:-1])      # every row has one, kept or not
    g = rng.normal(size=shape)
    g[..., -1] = -0.0
    pattern = np.resize([True, False, False, True, True, False, True], shape[:-1])
    for keep in (pattern, np.ones(shape[:-1], dtype=bool)):   # the second keeps every row
        float_copy = np.broadcast_to(keep[..., None], shape).astype(np.float64)
        with np.errstate(invalid="ignore"):           # 0 * inf
            got = _value_and_vjp(lambda t: ad.mask_rows(t, keep), x, g)
            want = _value_and_vjp(lambda t: ad.mul(t, Tensor(float_copy)), x, g)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()


def test_mask_rows_rejects_a_mask_of_the_wrong_shape():
    x = Tensor(np.ones((3, 4)))
    for keep in (np.ones(4, bool), np.ones((3, 4), bool), np.ones((3, 1), bool),
                 np.ones(3)):                            # the last one is not bool
        with pytest.raises(ShapeError):
            ad.mask_rows(x, keep)


# -----------------------------------------------------------------------------
# Inference mode computes only values: forward values and VJPs stay the bits of
# the eager formulas that used to compute the derivative in the forward pass
# -----------------------------------------------------------------------------

def _value_and_vjp(op, x: np.ndarray, g: np.ndarray):
    t = Tensor(x.copy(), requires_grad=True)
    untaped = op(Tensor(x.copy())).data
    with Tape() as tape:
        out = op(t)
        loss = ad.reduce_sum(ad.mul(out, Tensor(g)))
    backward(loss, tape)
    assert untaped.tobytes() == out.data.tobytes()
    return out.data, t.grad


def _eager_zoh_phi(x, g):
    small = np.abs(x) < 1e-4
    safe = np.where(small, 1.0, x)
    val = np.where(small, 1.0 + x / 2.0 + x * x / 6.0 + x * x * x / 24.0,
                   np.expm1(safe) / safe)
    der_big = (np.exp(safe) * (safe - 1.0) + 1.0) / (safe * safe)
    der_small = 0.5 + x / 3.0 + x * x / 8.0 + x * x * x / 30.0
    return val, g * np.where(small, der_small, der_big)


def _eager_softplus(x, g):
    return np.logaddexp(0.0, x), g * (1.0 / (1.0 + np.exp(-x)))


def _eager_gelu(x, g):
    cdf = 0.5 * (1.0 + ad._erf(x / np.sqrt(2.0)))
    pdf = np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
    return x * cdf, g * (cdf + x * pdf)


def _eager_log_softmax(x, g):
    shifted = x - x.max(axis=-1, keepdims=True)
    y = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return y, g - np.exp(y) * g.sum(axis=-1, keepdims=True)


@pytest.mark.parametrize("op,eager", [
    (ad.zoh_phi, _eager_zoh_phi),
    (ad.softplus, _eager_softplus),
    (ad.gelu, _eager_gelu),
    (ad.log_softmax, _eager_log_softmax),
], ids=["zoh_phi", "softplus", "gelu", "log_softmax"])
def test_value_and_vjp_bits_match_eager_formulas(op, eager):
    rng = np.random.default_rng(11)
    x = np.concatenate([
        np.array([0.0, -0.0, 1e-300, -9.99e-5, 9.99e-5, 1e-4, -1e-4, 3e-7, -2e-12]),
        rng.uniform(-1e-4, 1e-4, 23),              # near-zero series branch
        -rng.uniform(1.0, 700.0, 16),              # large negative (delta * A)
        rng.uniform(-5.0, 5.0, 16),
    ]).reshape(8, 8)
    # No |x| < 1e-4 entry: zoh_phi skips its series patch. One-signed inputs
    # with near-zero entries: the patch must still run.
    far = -rng.uniform(1e-4, 2.0, (6, 5))
    neg = -rng.uniform(0.0, 2.0, (6, 5))
    neg.flat[:4] = (-0.0, -9.99e-5, -2e-12, -1e-300)
    for x in (x, far, neg, -neg):
        g = rng.normal(size=x.shape)
        value, grad = _value_and_vjp(op, x, g)
        want_value, want_grad = eager(x, g)
        assert value.tobytes() == want_value.tobytes()
        assert grad.tobytes() == want_grad.tobytes()


def test_zoh_phi_at_signed_zero_warns_nothing():
    x = np.array([0.0, -0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert ad.zoh_phi(Tensor(x)).data.tolist() == [1.0, 1.0]
        t = Tensor(x, requires_grad=True)
        with Tape() as tape:
            loss = ad.reduce_sum(ad.zoh_phi(t))
        backward(loss, tape)
    assert t.grad.tolist() == [0.5, 0.5]


def test_scan_gradient_bits_do_not_depend_on_an_expand_view_input():
    rng = np.random.default_rng(5)
    a = Tensor(rng.uniform(0.1, 0.9, (1, 1, 6)), requires_grad=True)
    b = Tensor(rng.normal(size=(16, 12, 6)), requires_grad=True)
    w = rng.normal(size=(16, 12, 6))

    def grads(copy_first):
        a.grad = b.grad = None
        with Tape() as tape:
            a_full = ad.expand(a, (16, 12, 6))
            if copy_first:
                a_full = ad.add(a_full, 0.0)       # a contiguous copy of the view
            loss = _weighted_sum(ad.associative_scan(a_full, b), w)
        backward(loss, tape)
        return a.grad.tobytes(), b.grad.tobytes()

    assert grads(copy_first=False) == grads(copy_first=True)


# -----------------------------------------------------------------------------
# The selective scan against the chain of tape ops it replaces
# -----------------------------------------------------------------------------

def _selective_chain(x, delta, b, c, a):
    """The selective recurrence as elementwise tape ops: z = delta A, exp(z)
    and phi(z), ((delta x) B) phi, the scan over (k, T, d N), and the readout
    as a stacked (d, N) @ (N, 1) matmul."""
    k, T, d = x.shape
    n = a.shape[1]
    shape = (k, T, d, n)
    z = ad.mul(ad.expand(ad.reshape(delta, (k, T, d, 1)), shape), a)
    a_bar, phi = ad.exp(z), ad.zoh_phi(z)
    dx = ad.expand(ad.reshape(ad.mul(delta, x), (k, T, d, 1)), shape)
    b_x = ad.mul(ad.mul(dx, ad.expand(ad.reshape(b, (k, T, 1, n)), shape)), phi)
    h = ad.associative_scan(ad.reshape(a_bar, (k, T, d * n)), ad.reshape(b_x, (k, T, d * n)))
    return ad.reshape(ad.matmul(ad.reshape(h, shape), ad.reshape(c, (k, T, n, 1))), (k, T, d))


@pytest.mark.parametrize("m,T,d,n", [(3, 7, 5, 4), (600, 8, 8, 8)])
def test_selective_scan_bits_equal_the_tape_chain(m, T, d, n):
    # 600 walks of 8 x 8 x 8 are three blocks of the op, so the VJP's da adds
    # across blocks; it must still give the whole-batch sum's bits.
    rng = np.random.default_rng(m)
    inputs = _selective_inputs(rng, m, T, d, n, requires_grad=True)
    g = rng.standard_normal((m, T, d))
    assert ad.selective_scan(*(Tensor(t.data) for t in inputs)).data.tobytes() == \
        _selective_chain(*(Tensor(t.data) for t in inputs)).data.tobytes()
    got = []
    for op in (ad.selective_scan, _selective_chain):
        for t in inputs:
            t.grad = None
        with Tape() as tape:
            y = op(*inputs)
            loss = _weighted_sum(y, g)
        backward(loss, tape)
        got.append([y.data] + [t.grad for t in inputs])
    for fused, chain in zip(*got):
        np.testing.assert_allclose(fused, chain, rtol=1e-12, atol=0)
        assert fused.tobytes() == chain.tobytes()


def test_selective_scan_tapes_only_its_inputs():
    inputs = _selective_inputs(np.random.default_rng(3), 4, 6, 3, 3, requires_grad=True)
    with Tape() as tape:
        y = ad.selective_scan(*inputs)
    assert [r.op for r in tape.records] == ["selective_scan"]
    assert tape.records[0].inputs == tuple(inputs) and y.shape == (4, 6, 3)
    with pytest.raises(ShapeError):
        ad.selective_scan(*inputs[:4], Tensor(np.zeros((3, 2))))
