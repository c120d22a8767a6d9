"""Sequence layers applied along random walks.

Every layer maps a (m, T, d) tensor to the same shape given a (m, T) boolean
pad mask, and is mask-neutral: inputs at masked positions are zeroed on entry
(so their original values can never leak into real positions) and outputs at
masked positions are zeroed on exit. Attention additionally removes masked
keys with an additive -1e30 score so real queries never average over padding.
Its :func:`attention_block` is also the global transformer of
:mod:`neuralwalker.model`, run there on each graph's padded node sequence.

Kinds:

* ``conv``       - depthwise conv + pointwise mix + residual
* ``attention``  - multi-head self-attention + FFN with residuals
* ``s4``         - diagonal state-space layer, zero-order-hold discretization
* ``selective``  - input-dependent (gated) state-space layer that collapses to
                   ``s4`` when its projections are frozen to constants

``bidirectional=True`` wraps a kind with independent forward/backward copies
and averages the two directions.

Both state-space kinds discretize by zero-order hold, ``exp(delta A)`` and
``phi(delta A)`` from ``ad.zoh_phi``, and run the one ``ad.associative_scan``.
S4's ``A_bar``, ``B_bar`` and ``C`` are the same at every position, so S4 is a
causal depthwise convolution with kernel ``K_t = sum_N C A_bar^t B_bar`` (the
convolutional view of S4, Gu, Goel & Re, arXiv 2111.00396): it discretizes
once per call, scans an impulse to get ``K`` and runs
``ad.conv1d_depthwise`` on all walks at once, with no (walks, T, d, N) state.
The selective kind discretizes per position inside one op,
``ad.selective_scan``, after Mamba's selective scan (Gu & Dao, arXiv
2312.00752): it forms ``((delta x) B_t) phi``, scans, and reads out ``C_t . h_t``
with a stacked matmul, time-major on cache-sized blocks of walks, and its VJP
recomputes the states from the op's five inputs, so no (walks, T, d, N) array
lives on the tape. Input mask, projections, gate, op and output mask each run
once on the whole batch. Every step of the op acts on one walk, so each walk's
output bits do not depend on the op's blocks or on the walk count.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import BadHeads, BadKernel, BadTimestep, ShapeError, Unsupported

__all__ = [
    "ConvLayer",
    "AttentionLayer",
    "attention_block",
    "S4Layer",
    "SelectiveLayer",
    "Bidirectional",
    "make_seq_layer",
    "SEQ_LAYER_KINDS",
]

SEQ_LAYER_KINDS = ("conv", "attention", "s4", "selective")


class _ParamHolder:
    """Base: a flat name -> Tensor parameter dict."""

    def __init__(self):
        self.params: dict[str, Tensor] = {}

    def _add(self, name: str, tensor: Tensor) -> Tensor:
        self.params[name] = tensor
        return tensor


# =============================================================================
# Convolution
# =============================================================================

class ConvLayer(_ParamHolder):
    """x + pointwise(depthwise(x)): a residual local mixer."""

    def __init__(self, dim: int, kernel: int, rng: np.random.Generator):
        super().__init__()
        if kernel % 2 == 0 or kernel < 1:
            raise BadKernel(f"conv kernel must be odd and positive, got {kernel}")
        self.dim = dim
        self.kernel_size = kernel
        self.kernel = self._add("kernel", ad.param_uniform(rng, (kernel, dim), fan_in=kernel))
        self.mix = self._add("mix", ad.param_uniform(rng, (dim, dim)))
        self.bias = self._add("bias", ad.param_zeros((dim,)))

    @classmethod
    def identity(cls, dim: int, kernel: int) -> "ConvLayer":
        """Delta kernel and zero mix: the layer is exactly the identity."""
        layer = cls(dim, kernel, np.random.default_rng(0))
        delta = np.zeros((kernel, dim))
        delta[kernel // 2, :] = 1.0
        layer.kernel.data = delta
        layer.mix.data = np.zeros((dim, dim))
        layer.bias.data = np.zeros((dim,))
        return layer

    def __call__(self, x: Tensor, mask: np.ndarray) -> Tensor:
        xm = ad.mask_rows(x, mask)
        local = ad.conv1d_depthwise(xm, self.kernel)
        mixed = ad.add(ad.matmul(local, self.mix), self.bias)
        return ad.mask_rows(ad.add(xm, mixed), mask)


# =============================================================================
# Attention
# =============================================================================

def attention_block(x: Tensor, mask: np.ndarray, heads: int, linears) -> Tensor:
    """One transformer block on a padded (m, T, d) batch: ``h = x + Attn(x)``,
    then ``h + FFN(h)``. ``linears`` holds the (weight, bias) pairs of the q, k,
    v and output projections and of the ReLU FFN's two layers. Keys where
    ``mask`` (m, T) is False score -1e30; padded outputs are not zeroed."""
    m, T, d = x.shape
    dh = d // heads

    def linear(t: Tensor, i: int) -> Tensor:
        return ad.add(ad.matmul(t, linears[i][0]), linears[i][1])

    q, k, v = (ad.transpose(ad.reshape(linear(x, i), (m, T, heads, dh)), (0, 2, 1, 3))
               for i in range(3))
    scores = ad.scale(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(dh))
    key_bias = np.where(mask, 0.0, -1e30)[:, None, None, :]
    scores = ad.add(scores, ad.expand(Tensor(key_bias), (m, heads, T, T)))
    ctx = ad.matmul(ad.softmax(scores, axis=-1), v)
    h = ad.add(x, linear(ad.reshape(ad.transpose(ctx, (0, 2, 1, 3)), (m, T, d)), 3))
    return ad.add(h, linear(ad.relu(linear(h, 4)), 5))


class AttentionLayer(_ParamHolder):
    """Self-attention + FFN, both residual (transformer-style):
    :func:`attention_block` between two pad masks."""

    def __init__(self, dim: int, heads: int, rng: np.random.Generator):
        super().__init__()
        if dim % heads != 0:
            raise BadHeads(f"width {dim} not divisible by {heads} heads")
        self.dim, self.heads = dim, heads
        for name in ("wq", "wk", "wv", "wo"):
            self._add(name, ad.param_uniform(rng, (dim, dim)))
        for name in ("bq", "bk", "bv", "bo"):
            self._add(name, ad.param_zeros((dim,)))
        ff = 2 * dim
        self._add("w1", ad.param_uniform(rng, (dim, ff)))
        self._add("b1", ad.param_zeros((ff,)))
        self._add("w2", ad.param_uniform(rng, (ff, dim)))
        self._add("b2", ad.param_zeros((dim,)))

    def __call__(self, x: Tensor, mask: np.ndarray) -> Tensor:
        p = self.params
        linears = [(p[f"w{r}"], p[f"b{r}"]) for r in ("q", "k", "v", "o", "1", "2")]
        out = attention_block(ad.mask_rows(x, mask), mask, self.heads, linears)
        return ad.mask_rows(out, mask)


# =============================================================================
# State-space layers
# =============================================================================

class S4Layer(_ParamHolder):
    """Diagonal SSM: h_t = exp(delta*A) h_{t-1} + ZOH(delta, A, B) x_t, y = C h.

    ``A`` starts at -(1 + arange(N)) on every channel; ``delta`` is stored as
    its log, initialized log-uniformly in [1e-3, 1e-1]. ``A_bar`` and
    ``B_bar`` are discretized once per call, and the layer runs as the causal
    convolution ``y_t = sum_{s <= t} K_s x_{t-s}`` with
    ``K_s = sum_N C A_bar^s B_bar``.
    """

    def __init__(self, dim: int, state: int, rng: np.random.Generator):
        super().__init__()
        self.dim, self.state = dim, state
        a0 = -np.tile(1.0 + np.arange(state, dtype=np.float64), (dim, 1))
        self.a = self._add("a", Tensor(a0, requires_grad=True))
        log_lo, log_hi = np.log(1e-3), np.log(1e-1)
        self.log_delta = self._add(
            "log_delta", Tensor(rng.uniform(log_lo, log_hi, size=(dim,)), requires_grad=True))
        self.b = self._add("b", ad.param_uniform(rng, (dim, state), fan_in=state))
        self.c = self._add("c", ad.param_uniform(rng, (dim, state), fan_in=state))

    @classmethod
    def from_matrices(cls, a: np.ndarray, b: np.ndarray, c: np.ndarray,
                      delta: np.ndarray) -> "S4Layer":
        """Build from explicit (d, N) matrices and per-channel delta > 0."""
        a = np.asarray(a, dtype=np.float64)
        delta = np.asarray(delta, dtype=np.float64)
        if np.any(delta <= 0):
            raise BadTimestep("discretization step must be strictly positive")
        layer = cls(a.shape[0], a.shape[1], np.random.default_rng(0))
        layer.a.data = a
        layer.b.data = np.asarray(b, dtype=np.float64)
        layer.c.data = np.asarray(c, dtype=np.float64)
        layer.log_delta.data = np.log(delta)
        return layer

    def __call__(self, x: Tensor, mask: np.ndarray) -> Tensor:
        xm = ad.mask_rows(x, mask)
        _, T, d = xm.shape
        delta = ad.exp(self.log_delta)                     # (d,)
        n = self.state
        delta_col = ad.expand(ad.reshape(delta, (d, 1)), (d, n))
        # Zero-order hold: A_bar = exp(delta A), B_bar = delta phi(delta A) B.
        z = ad.mul(delta_col, self.a)
        a_bar, phi = ad.exp(z), ad.zoh_phi(z)
        b_bar = ad.mul(ad.mul(delta_col, phi), self.b)     # (d, N)
        # The scan of an impulse B_bar at step T - 1 over 2T - 1 steps reads
        # out [0 ... 0, K_0 ... K_{T-1}]; flipped, it is the centred kernel of
        # y_t = sum_{s <= t} K_s x_{t-s}.
        steps = 2 * T - 1
        impulse = np.zeros((steps, d * n))
        impulse[T - 1] = 1.0
        h = ad.associative_scan(ad.expand(ad.reshape(a_bar, (1, d * n)), (steps, d * n)),
                                ad.mul(Tensor(impulse), ad.reshape(b_bar, (d * n,))))
        k = ad.reduce_sum(ad.mul(ad.reshape(h, (steps, d, n)), self.c), axis=-1)
        return ad.mask_rows(ad.conv1d_depthwise(xm, ad.flip_axis(k, 0)), mask)


class SelectiveLayer(_ParamHolder):
    """Input-dependent SSM with a silu gate.

    delta_t = softplus(x W_d + b_d) per channel; B_t = x W_b + b_b and
    C_t = x W_c + b_c (shared across channels); gate z_t = silu(x W_z + b_z);
    y_t = (C_t . h_t) * z_t. Freezing the projection weights to zero (biases
    carrying the constants) makes the recurrence identical to
    :class:`S4Layer` with broadcast B/C. The projections and the gate run on
    the whole batch; ``ad.selective_scan`` discretizes per position.
    """

    def __init__(self, dim: int, state: int, rng: np.random.Generator):
        super().__init__()
        self.dim, self.state = dim, state
        a0 = -np.tile(1.0 + np.arange(state, dtype=np.float64), (dim, 1))
        self.a = self._add("a", Tensor(a0, requires_grad=True))
        self._add("w_delta", ad.param_uniform(rng, (dim, dim)))
        # softplus(b_delta) spans the same log-uniform [1e-3, 1e-1] band as S4.
        delta0 = np.exp(rng.uniform(np.log(1e-3), np.log(1e-1), size=(dim,)))
        self._add("b_delta", Tensor(np.log(np.expm1(delta0)), requires_grad=True))
        self._add("w_b", ad.param_uniform(rng, (dim, state)))
        self._add("b_b", ad.param_zeros((state,)))
        self._add("w_c", ad.param_uniform(rng, (dim, state)))
        self._add("b_c", ad.param_zeros((state,)))
        self._add("w_gate", ad.param_uniform(rng, (dim, dim)))
        self._add("b_gate", ad.param_zeros((dim,)))

    def __call__(self, x: Tensor, mask: np.ndarray) -> Tensor:
        xm = ad.mask_rows(x, mask)
        p = self.params
        delta = ad.softplus(ad.add(ad.matmul(xm, p["w_delta"]), p["b_delta"]))  # (m,T,d)
        b_t = ad.add(ad.matmul(xm, p["w_b"]), p["b_b"])                         # (m,T,N)
        c_t = ad.add(ad.matmul(xm, p["w_c"]), p["b_c"])                         # (m,T,N)
        gate = ad.silu(ad.add(ad.matmul(xm, p["w_gate"]), p["b_gate"]))         # (m,T,d)
        y = ad.selective_scan(xm, delta, b_t, c_t, self.a)
        return ad.mask_rows(ad.mul(y, gate), mask)


# =============================================================================
# Bidirectional wrapper
# =============================================================================

class Bidirectional(_ParamHolder):
    """Average of a forward pass and a time-reversed pass with its own copy
    of the inner layer (independent per-direction parameters)."""

    def __init__(self, forward_layer, backward_layer):
        super().__init__()
        self.forward_layer = forward_layer
        self.backward_layer = backward_layer
        for name, t in forward_layer.params.items():
            self._add(f"fwd.{name}", t)
        for name, t in backward_layer.params.items():
            self._add(f"bwd.{name}", t)

    def __call__(self, x: Tensor, mask: np.ndarray) -> Tensor:
        fwd = self.forward_layer(x, mask)
        x_rev = ad.flip_axis(x, 1)
        mask_rev = mask[:, ::-1]
        bwd = ad.flip_axis(self.backward_layer(x_rev, mask_rev), 1)
        return ad.scale(ad.add(fwd, bwd), 0.5)


def make_seq_layer(kind: str, dim: int, rng: np.random.Generator,
                   kernel: int = 5, heads: int = 4, state: int = 16,
                   bidirectional: bool = False):
    """Factory over the layer kinds; bidirectional wraps two fresh copies."""

    def build():
        if kind == "conv":
            return ConvLayer(dim, kernel, rng)
        if kind == "attention":
            return AttentionLayer(dim, heads, rng)
        if kind == "s4":
            return S4Layer(dim, state, rng)
        if kind == "selective":
            return SelectiveLayer(dim, state, rng)
        raise Unsupported(f"unknown sequence layer kind {kind!r}")

    if bidirectional:
        return Bidirectional(build(), build())
    return build()
