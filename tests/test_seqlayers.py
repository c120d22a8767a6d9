"""Sequence-layer tests: shapes, masking, closed forms, and reductions."""

import tracemalloc

import numpy as np
import pytest

from neuralwalker import autodiff as ad
from neuralwalker.autodiff import Tape, Tensor, backward
from neuralwalker.errors import BadHeads, BadKernel, BadTimestep, Unsupported
from neuralwalker.optim import AdamW
from neuralwalker.seqlayers import (
    SEQ_LAYER_KINDS,
    AttentionLayer,
    Bidirectional,
    ConvLayer,
    S4Layer,
    SelectiveLayer,
    make_seq_layer,
)

from conftest import fd_gradcheck


def _layer(kind, dim=6, bidirectional=False, seed=0, **kw):
    rng = np.random.default_rng(seed)
    return make_seq_layer(kind, dim=dim, rng=rng, kernel=kw.get("kernel", 3),
                          heads=kw.get("heads", 2), state=kw.get("state", 4),
                          bidirectional=bidirectional)


def _input(m, T, d, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return Tensor(scale * rng.standard_normal((m, T, d)))


# -----------------------------------------------------------------------------
# Shapes and construction errors
# -----------------------------------------------------------------------------

@pytest.mark.parametrize("kind", SEQ_LAYER_KINDS)
@pytest.mark.parametrize("T", [1, 2, 50, 200])
def test_shape_preserved(kind, T):
    layer = _layer(kind)
    x = _input(3, T, 6)
    mask = np.ones((3, T), dtype=bool)
    out = layer(x, mask)
    assert out.shape == (3, T, 6)
    assert np.isfinite(out.data).all()


@pytest.mark.parametrize("kind", SEQ_LAYER_KINDS)
def test_bidirectional_shape_and_param_namespaces(kind):
    layer = _layer(kind, bidirectional=True)
    x = _input(2, 7, 6)
    out = layer(x, np.ones((2, 7), dtype=bool))
    assert out.shape == (2, 7, 6)
    assert all(k.startswith(("fwd.", "bwd.")) for k in layer.params)
    fwd_names = {k[4:] for k in layer.params if k.startswith("fwd.")}
    bwd_names = {k[4:] for k in layer.params if k.startswith("bwd.")}
    assert fwd_names == bwd_names


def test_construction_errors():
    rng = np.random.default_rng(0)
    with pytest.raises(BadKernel):
        ConvLayer(dim=4, kernel=4, rng=rng)
    with pytest.raises(BadKernel):
        ConvLayer(dim=4, kernel=-1, rng=rng)
    with pytest.raises(BadHeads):
        AttentionLayer(dim=6, heads=4, rng=rng)
    with pytest.raises(Unsupported):
        make_seq_layer("lstm", dim=4, rng=rng)


# -----------------------------------------------------------------------------
# Convolution
# -----------------------------------------------------------------------------

def test_conv_identity_configuration():
    layer = ConvLayer.identity(dim=5, kernel=3)
    x = _input(2, 9, 5)
    mask = np.ones((2, 9), dtype=bool)
    out = layer(x, mask)
    assert np.allclose(out.data, x.data, atol=1e-15)


def test_conv_known_kernel_matches_hand_computation():
    layer = ConvLayer.identity(dim=1, kernel=3)
    layer.kernel.data = np.array([[0.25], [0.5], [0.25]])  # smoothing taps
    layer.mix.data = np.array([[1.0]])
    x = Tensor(np.array([0.0, 4.0, 0.0, 0.0]).reshape(1, 4, 1))
    out = layer(x, np.ones((1, 4), dtype=bool)).data.ravel()
    # residual + smoothed: [0,4,0,0] + [1,2,1,0]
    assert np.allclose(out, [1.0, 6.0, 1.0, 0.0])


# -----------------------------------------------------------------------------
# Attention closed forms
# -----------------------------------------------------------------------------

def test_attention_single_real_position_reduces_to_value_path():
    layer = _layer("attention", dim=6)
    x = _input(1, 5, 6, seed=3)
    mask = np.zeros((1, 5), dtype=bool)
    mask[0, 2] = True
    out = layer(x, mask).data

    p = {k: t.data for k, t in layer.params.items()}
    x0 = x.data[0, 2]
    v = x0 @ p["wv"] + p["bv"]
    attn = v @ p["wo"] + p["bo"]
    h = x0 + attn
    ffn = np.maximum(h @ p["w1"] + p["b1"], 0.0) @ p["w2"] + p["b2"]
    expected = h + ffn
    assert np.allclose(out[0, 2], expected, atol=1e-12)
    assert (out[0, [0, 1, 3, 4]] == 0).all()


def test_attention_uniform_weights_on_equal_inputs():
    # Identical tokens attend uniformly, so every output position is equal.
    layer = _layer("attention", dim=4, heads=2)
    row = np.random.default_rng(1).standard_normal(4)
    x = Tensor(np.tile(row, (1, 6, 1)))
    out = layer(x, np.ones((1, 6), dtype=bool)).data
    assert np.allclose(out, out[0, 0], atol=1e-12)


def test_attention_permutation_equivariant_over_positions():
    layer = _layer("attention", dim=6)
    x = _input(1, 7, 6, seed=5)
    mask = np.ones((1, 7), dtype=bool)
    base = layer(x, mask).data
    perm = np.random.default_rng(2).permutation(7)
    permuted = layer(Tensor(x.data[:, perm]), mask).data
    assert np.allclose(permuted, base[:, perm], atol=1e-12)


# -----------------------------------------------------------------------------
# State-space layers
# -----------------------------------------------------------------------------

def test_s4_prefix_sum_configuration():
    # A = 0, B = C = 1, delta = 1: y_t is exactly the running sum of x.
    layer = S4Layer.from_matrices(a=[[0.0]], b=[[1.0]], c=[[1.0]], delta=[1.0])
    x = Tensor(np.array([1.0, 2.0, -1.0, 0.5]).reshape(1, 4, 1))
    out = layer(x, np.ones((1, 4), dtype=bool)).data.ravel()
    assert np.allclose(out, np.cumsum([1.0, 2.0, -1.0, 0.5]), atol=1e-12)


def test_s4_matches_direct_recurrence():
    layer = _layer("s4", dim=3, state=4, seed=7)
    x = _input(2, 6, 3, seed=8)
    mask = np.ones((2, 6), dtype=bool)
    out = layer(x, mask).data

    a = layer.params["a"].data
    delta = np.exp(layer.params["log_delta"].data)[:, None]
    b = layer.params["b"].data
    c = layer.params["c"].data
    a_bar = np.exp(delta * a)
    z = delta * a
    phi = np.where(np.abs(z) < 1e-4, 1.0 + z / 2 + z * z / 6, np.expm1(z) / z)
    b_bar = delta * phi * b
    h = np.zeros((2, 3, 4))
    for t in range(6):
        h = a_bar * h + b_bar * x.data[:, t, :, None]
        assert np.allclose(out[:, t], (h * c).sum(-1), atol=1e-12)


def test_selective_matches_direct_recurrence(monkeypatch):
    m = _WALK_COUNTS[2]  # one block and a walk at the block shape
    d, n, T = _BD, _BN, _BT
    layer = _layer("selective", dim=d, state=n, seed=7)
    layer.params["b_gate"].data[:] = 0.5  # open the gate
    x = _input(m, T, d, seed=8)
    rng = np.random.default_rng(9)
    mask = np.arange(T)[None, :] < rng.integers(1, T + 1, size=m)[:, None]
    mask[:2] = True
    mask[2, 2:] = False
    p = {k: t.data for k, t in layer.params.items()}
    blocks = _block_sizes(monkeypatch)
    blocked = layer(x, mask).data
    assert blocks == [_BLOCK, 1]
    for y in (blocked, layer(Tensor(x.data[:3]), mask[:3]).data):
        k = y.shape[0]
        xs = x.data[:k] * mask[:k, :, None]
        h = np.zeros((k, d, n))
        for t in range(T):
            xt = xs[:, t]
            delta = np.log1p(np.exp(xt @ p["w_delta"] + p["b_delta"]))[:, :, None]
            b_t = (xt @ p["w_b"] + p["b_b"])[:, None, :]
            c_t = (xt @ p["w_c"] + p["b_c"])[:, None, :]
            pre = xt @ p["w_gate"] + p["b_gate"]
            gate = pre / (1.0 + np.exp(-pre))
            z = delta * p["a"]
            phi = np.where(np.abs(z) < 1e-4, 1.0 + z / 2 + z * z / 6, np.expm1(z) / z)
            h = np.exp(z) * h + delta * phi * b_t * xt[:, :, None]
            want = (h * c_t).sum(-1) * gate * mask[:k, t, None]
            assert np.allclose(y[:, t], want, rtol=1e-10, atol=1e-12), (k, t)


def test_s4_discretizes_once_per_call(monkeypatch):
    calls = []
    zoh_phi = ad.zoh_phi
    monkeypatch.setattr(ad, "zoh_phi", lambda z: calls.append(z.shape) or zoh_phi(z))
    for kind, want in (("s4", 1), ("selective", -(-_WALK_COUNTS[-1] // _BLOCK))):
        calls.clear()
        layer, x, mask = _block_case(kind, False)
        layer(x, mask)
        assert len(calls) == want, kind


def test_s4_zero_input_zero_output():
    layer = _layer("s4", dim=4)
    out = layer(Tensor(np.zeros((2, 5, 4))), np.ones((2, 5), dtype=bool))
    assert (out.data == 0).all()


def test_bad_timestep_rejected():
    with pytest.raises(BadTimestep):
        S4Layer.from_matrices(a=[[0.0]], b=[[1.0]], c=[[1.0]], delta=[0.0])
    with pytest.raises(BadTimestep):
        S4Layer.from_matrices(a=[[0.0]], b=[[1.0]], c=[[1.0]], delta=[-0.1])


@pytest.mark.parametrize("kind", ["s4", "selective"])
def test_state_space_layers_are_causal(kind):
    layer = _layer(kind, dim=5, state=3, seed=11)
    # Open the selective gate so outputs are non-trivial at init.
    if kind == "selective":
        layer.params["b_gate"].data[:] = 1.0
    x = _input(2, 8, 5, seed=12)
    mask = np.ones((2, 8), dtype=bool)
    base = layer(x, mask).data
    bumped = x.data.copy()
    bumped[:, 5, :] += 10.0
    out = layer(Tensor(bumped), mask).data
    assert np.allclose(out[:, :5], base[:, :5], atol=1e-12)
    assert not np.allclose(out[:, 5:], base[:, 5:], atol=1e-3)


def test_selective_reduces_to_s4_when_projections_frozen():
    rng = np.random.default_rng(21)
    d, n = 3, 4
    sel = SelectiveLayer(dim=d, state=n, rng=rng)
    delta0 = np.array([0.05, 0.2, 0.7])
    b0 = rng.standard_normal(n)
    c0 = rng.standard_normal(n)
    gate_pre = np.array([0.3, -0.4, 1.2])
    sel.params["w_delta"].data[:] = 0.0
    sel.params["b_delta"].data = np.log(np.expm1(delta0))
    sel.params["w_b"].data[:] = 0.0
    sel.params["b_b"].data = b0.copy()
    sel.params["w_c"].data[:] = 0.0
    sel.params["b_c"].data = c0.copy()
    sel.params["w_gate"].data[:] = 0.0
    sel.params["b_gate"].data = gate_pre.copy()

    gate = gate_pre / (1.0 + np.exp(-gate_pre))  # silu of the frozen preact
    s4 = S4Layer.from_matrices(
        a=sel.params["a"].data,
        b=np.tile(b0, (d, 1)),
        c=c0[None, :] * gate[:, None],
        delta=delta0,
    )
    x = _input(2, 10, d, seed=22)
    mask = np.ones((2, 10), dtype=bool)
    mask[1, 7:] = False
    got = sel(x, mask).data
    want = s4(x, mask).data
    assert np.abs(got - want).max() < 1e-10


# -----------------------------------------------------------------------------
# Mask neutrality (all kinds)
# -----------------------------------------------------------------------------

@pytest.mark.parametrize("kind", SEQ_LAYER_KINDS)
@pytest.mark.parametrize("bidirectional", [False, True])
def test_masked_positions_cannot_leak(kind, bidirectional):
    layer = _layer(kind, dim=6, bidirectional=bidirectional, seed=4)
    rng = np.random.default_rng(9)
    mask = np.ones((3, 10), dtype=bool)
    mask[0, 6:] = False
    mask[2, 3:] = False
    x1 = rng.standard_normal((3, 10, 6))
    x2 = x1.copy()
    x2[~mask] = rng.standard_normal(((~mask).sum(), 6)) * 100.0
    out1 = layer(Tensor(x1), mask).data
    out2 = layer(Tensor(x2), mask).data
    assert (out1[mask] == out2[mask]).all()
    assert (out1[~mask] == 0).all()
    assert (out2[~mask] == 0).all()


# -----------------------------------------------------------------------------
# Bidirectional behavior
# -----------------------------------------------------------------------------

def test_bidirectional_identity_wrapping():
    inner_f = ConvLayer.identity(dim=3, kernel=3)
    inner_b = ConvLayer.identity(dim=3, kernel=3)
    layer = Bidirectional(inner_f, inner_b)
    x = _input(2, 6, 3, seed=1)
    out = layer(x, np.ones((2, 6), dtype=bool))
    assert np.allclose(out.data, x.data, atol=1e-15)


def test_bidirectional_tied_params_palindrome_symmetry():
    # With identical fwd/bwd parameters, a palindromic input must produce a
    # palindromic output (the wrapper is reflection-equivariant).
    rng = np.random.default_rng(14)
    fwd = S4Layer(dim=3, state=4, rng=rng)
    bwd = S4Layer.from_matrices(a=fwd.params["a"].data.copy(),
                                b=fwd.params["b"].data.copy(),
                                c=fwd.params["c"].data.copy(),
                                delta=np.exp(fwd.params["log_delta"].data))
    layer = Bidirectional(fwd, bwd)
    half = rng.standard_normal((1, 4, 3))
    x = np.concatenate([half, half[:, ::-1]], axis=1)  # palindrome, T=8
    out = layer(Tensor(x), np.ones((1, 8), dtype=bool)).data
    assert np.allclose(out, out[:, ::-1], atol=1e-12)


def test_bidirectional_beats_unidirectional_on_lookahead_task():
    # Target y_t = x_{t+1}: invisible to a causal layer, easy with a backward
    # pass. Compare best-achievable MSE after identical training budgets.
    def fit(bidirectional, seed):
        rng = np.random.default_rng(seed)
        layer = make_seq_layer("s4", dim=1, rng=rng, state=4,
                               bidirectional=bidirectional)
        data_rng = np.random.default_rng(100 + seed)
        x = data_rng.standard_normal((16, 12, 1))
        y = np.zeros_like(x)
        y[:, :-1] = x[:, 1:]
        mask = np.ones((16, 12), dtype=bool)
        opt = AdamW(layer.params, base_lr=0.05)
        last = None
        for _ in range(150):
            opt.zero_grad()
            with Tape() as tape:
                pred = layer(Tensor(x), mask)
                err = ad.sub(pred, Tensor(y))
                loss = ad.reduce_mean(ad.mul(err, err))
            backward(loss, tape, leaves=layer.params.values())
            opt.step()
            last = float(loss.data)
        return last

    uni = sorted(fit(False, s) for s in range(5))[2]
    bi = sorted(fit(True, s) for s in range(5))[2]
    assert bi < 0.5 * uni, f"bidirectional {bi:.4f} not better than causal {uni:.4f}"


# -----------------------------------------------------------------------------
# Gradients through each kind
# -----------------------------------------------------------------------------

@pytest.mark.parametrize("kind", SEQ_LAYER_KINDS)
def test_layer_parameter_gradients(kind):
    layer = _layer(kind, dim=4, seed=6, state=3)
    if kind == "selective":
        layer.params["b_gate"].data[:] = 0.5  # open the gate off the silu kink
    x = _input(2, 5, 4, seed=13, scale=0.7)
    mask = np.ones((2, 5), dtype=bool)
    mask[1, 3:] = False
    weights = np.random.default_rng(3).standard_normal((2, 5, 4))

    def loss():
        return ad.reduce_sum(ad.mul(layer(x, mask), Tensor(weights)))

    fd_gradcheck(loss, layer.params, n_probes=25, seed=kind.__hash__() % 997)


# -----------------------------------------------------------------------------
# Walk blocks of the state-space chain
# -----------------------------------------------------------------------------

# T = d = N = 8 is 4 KiB of float64 per walk in each (k, T, d, N) array.
_BT = _BD = _BN = 8
_BLOCK = ad._SCAN_BLOCK_BYTES // (8 * _BT * _BD * _BN)
# Less than a block, exactly one, one block and a walk, and >= 3 blocks with a
# partial last block.
_WALK_COUNTS = (1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + _BLOCK // 3)


def _block_case(kind, bidirectional):
    m = _WALK_COUNTS[-1]
    layer = _layer(kind, dim=_BD, state=_BN, seed=31, bidirectional=bidirectional)
    for name, t in layer.params.items():
        if name.endswith("b_gate"):
            t.data[:] = 0.5  # open the gate off the silu kink
    rng = np.random.default_rng(32)
    x = Tensor(rng.standard_normal((m, _BT, _BD)), requires_grad=True)
    # Every walk keeps its start; about half are masked after it.
    real = np.where(rng.random(m) < 0.5, _BT, rng.integers(1, _BT, size=m))
    mask = np.arange(_BT)[None, :] < real[:, None]
    return layer, x, mask


def _block_sizes(monkeypatch) -> list:
    """Record the walk count of every block that ``ad.selective_scan`` runs."""
    blocks = []
    block = ad._selective_block

    def spy(x, *rest):
        blocks.append(x.shape[0])
        return block(x, *rest)
    monkeypatch.setattr(ad, "_selective_block", spy)
    return blocks


def test_walk_counts_span_the_block_cuts():
    assert _BLOCK == 256
    assert [-(-m // _BLOCK) for m in _WALK_COUNTS] == [1, 1, 2, 3]
    assert _WALK_COUNTS[-1] % _BLOCK != 0


@pytest.mark.parametrize("kind", ["s4", "selective"])
@pytest.mark.parametrize("bidirectional", [False, True])
def test_blocked_forward_bits_equal_one_walk_calls(kind, bidirectional, monkeypatch):
    layer, x, mask = _block_case(kind, bidirectional)
    one_walk = np.concatenate([layer(Tensor(x.data[i:i + 1]), mask[i:i + 1]).data
                               for i in range(x.shape[0])])
    blocks = _block_sizes(monkeypatch)
    for m in _WALK_COUNTS:
        blocks.clear()
        out = layer(Tensor(x.data[:m]), mask[:m]).data
        assert out.shape == (m, _BT, _BD)
        assert out.tobytes() == one_walk[:m].tobytes(), m
        if kind == "s4":  # a convolution over all walks: no walk blocks
            assert blocks == []
            continue
        n_blocks = -(-m // _BLOCK)
        want = [_BLOCK] * (n_blocks - 1) + [m - (n_blocks - 1) * _BLOCK]
        assert blocks == want * (2 if bidirectional else 1)


@pytest.mark.parametrize("kind,bidirectional",
                         [("s4", False), ("selective", False), ("selective", True)])
def test_blocked_layer_gradients(kind, bidirectional):
    layer, x, mask = _block_case(kind, bidirectional)
    weights = Tensor(np.random.default_rng(33).standard_normal(x.shape))

    def loss():
        return ad.reduce_sum(ad.mul(layer(x, mask), weights))

    # The op's VJP and the untaped finite differences both run through the
    # op's walk blocks.
    fd_gradcheck(loss, {**layer.params, "x": x}, n_probes=30, seed=34)


@pytest.mark.parametrize("kind", ["s4", "selective"])
def test_taped_calls_run_the_chain_as_one_block(kind, monkeypatch):
    # The op blocks its walks the same way whether or not a tape records.
    layer, x, mask = _block_case(kind, False)
    blocks = _block_sizes(monkeypatch)
    blocked = layer(x, mask).data
    untaped_blocks = list(blocks)
    blocks.clear()
    with Tape():
        taped = layer(x, mask).data
    assert blocks == untaped_blocks == ([] if kind == "s4" else [_BLOCK, _BLOCK, _BLOCK // 3])
    assert taped.tobytes() == blocked.tobytes()


@pytest.mark.parametrize("taped", [False, True])
def test_selective_blocks_run_one_scan_op_and_build_no_per_walk_state(taped, monkeypatch):
    # The layer makes one ad.selective_scan call on the whole batch, taped or
    # not, and no op output has the (m, T, d, N) shape of a per-walk state
    # chain: the op keeps its states to itself.
    layer, x, mask = _block_case("selective", False)
    ndims = []
    emit = ad._emit

    def spy(op, out_data, inputs, vjp):
        ndims.append((op, out_data.ndim))
        return emit(op, out_data, inputs, vjp)
    monkeypatch.setattr(ad, "_emit", spy)
    if taped:
        with Tape() as tape:
            loss = ad.reduce_sum(layer(x, mask))
        backward(loss, tape)
    else:
        layer(Tensor(x.data), mask)
    assert ndims.count(("selective_scan", 3)) == 1
    assert [c for c in ndims if c[1] >= 4] == []


@pytest.mark.parametrize("kind,limit_mib", [("selective", 32), ("s4", 16)])
def test_state_space_forward_memory_peak(kind, limit_mib):
    # The eval_ssm shape: 512 walks x 21 steps x 24 channels x 16 states is
    # 33 MB per (m, T, d, N) float64 array when the chain runs on all walks.
    layer = _layer(kind, dim=24, state=16, seed=35)
    x = _input(512, 21, 24, seed=36)
    mask = np.ones((512, 21), dtype=bool)
    tracemalloc.start()
    try:
        layer(x, mask)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_mib * 2**20, f"{kind} forward peaked at {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("taped", [False, True])
def test_s4_builds_no_per_walk_state(taped, monkeypatch):
    # S4 is a causal convolution: no op output has the (m, T, d, N) shape of a
    # per-walk state chain, with or without a tape.
    layer, x, mask = _block_case("s4", False)
    ndims = []
    emit = ad._emit

    def spy(op, out_data, inputs, vjp):
        ndims.append((op, out_data.ndim))
        return emit(op, out_data, inputs, vjp)
    monkeypatch.setattr(ad, "_emit", spy)
    if taped:
        with Tape() as tape:
            loss = ad.reduce_sum(layer(x, mask))
        backward(loss, tape)
    else:
        layer(Tensor(x.data), mask)
    assert ("conv1d", 3) in ndims
    assert [c for c in ndims if c[1] >= 4] == []


def test_s4_taped_step_memory_peak():
    # A taped forward + backward at the eval_ssm shape keeps the (2T - 1)-step
    # kernel scan and the conv input on the tape, not (m, T, d, N) states.
    layer = _layer("s4", dim=24, state=16, seed=35)
    x = _input(512, 21, 24, seed=36)
    mask = np.ones((512, 21), dtype=bool)
    tracemalloc.start()
    try:
        with Tape() as tape:
            loss = ad.reduce_sum(layer(x, mask))
        backward(loss, tape, leaves=layer.params.values())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, f"taped s4 step peaked at {peak / 2**20:.1f} MiB"


def test_selective_taped_step_memory_peak():
    # A taped forward + backward at the eval_ssm shape keeps only the scan's
    # inputs on the tape; its VJP recomputes each walk block's states.
    layer = _layer("selective", dim=24, state=16, seed=35)
    x = _input(512, 21, 24, seed=36)
    mask = np.ones((512, 21), dtype=bool)
    tracemalloc.start()
    try:
        with Tape() as tape:
            loss = ad.reduce_sum(layer(x, mask))
        backward(loss, tape, leaves=layer.params.values())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 96 * 2**20, f"taped selective step peaked at {peak / 2**20:.1f} MiB"
