"""Dense f64 tensors with tape-based reverse-mode differentiation.

A :class:`Tape` records one :class:`OpRecord` per differentiable op in
execution order; :func:`backward` replays the records once, in reverse,
accumulating vector-Jacobian products into ``Tensor.grad`` buffers (numpy
arrays; the backward pass itself is never recorded, so there is no
higher-order differentiation). With no tape active, ops run in inference mode
and record nothing.

Inference mode computes only the value. A quantity that only the backward
pass reads (a derivative such as phi'(z) in :func:`zoh_phi`, the sigmoid of
:func:`softplus`) is computed inside the op's VJP closure, from the same
inputs and with the same formula, so it costs nothing without a tape and the
gradients are the same bits either way.

Broadcasting is deliberately narrow: elementwise ops accept equal shapes, a
python scalar, or one operand whose shape is a trailing suffix of the other's
(the bias case). Anything else needs an explicit :func:`expand` / ``reshape``.
The one op with a trailing-axis broadcast is :func:`mask_rows`, the one
row-mask op: it gates the rows of ``x`` with a bool mask of shape
``x.shape[:-1]``, so no caller builds a float 0/1 copy of a mask.

``Tensor.data`` is never written in place. :func:`expand` returns a read-only
broadcast view instead of a copy, ``reshape`` copies only where numpy cannot
return a view, and the optimizer rebinds ``data`` rather than writing into it.

Every row scatter -- :func:`segment_mean`, :func:`scatter_add` and the VJP of
:func:`gather_rows` -- goes through one primitive, :func:`_segment_sum`, which
multiplies by the 0/1 incidence of a :class:`Segments` plan. A plan holds one
index array, range-checked once, with its counts and incidence built on first
use. The three ops take a plan wherever they take ids and wrap a raw array in a
one-use plan, so a caller that segments by the same array again and again
(every block of a forward, and the VJPs) builds it once and passes it on.

:func:`selective_scan` is the one fused op: the whole selective state-space
recurrence, whose VJP keeps only its inputs and recomputes its states. It
takes phi from :func:`zoh_phi` and the states from :func:`associative_scan`,
and its VJP shares their private adjoints, so the recurrence and phi each have
one implementation.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.sparse import csr_array
from scipy.special import erf as _erf

from .errors import BadKernel, ShapeError

__all__ = [
    "Tensor",
    "Tape",
    "backward",
    "as_tensor",
    "param_uniform",
    "param_zeros",
    "add", "sub", "mul", "scale", "neg", "mask_rows", "matmul", "transpose", "reshape",
    "slice_axis", "expand", "flip_axis",
    "relu", "gelu", "sigmoid", "tanh", "exp", "log", "softplus", "silu",
    "softmax", "log_softmax", "reduce_sum", "reduce_mean",
    "layernorm", "conv1d_depthwise", "Segments", "segment_mean", "scatter_add",
    "gather_rows", "associative_scan", "zoh_phi", "selective_scan",
]


# =============================================================================
# Tensor and tape
# =============================================================================

class Tensor:
    """A float64 numpy array plus gradient metadata. Float64 input is kept
    without a copy; anything else is converted."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # Operator sugar; all dispatch to module-level ops.
    def __add__(self, other): return add(self, other)
    def __radd__(self, other): return add(self, other)
    def __sub__(self, other): return sub(self, other)
    def __rsub__(self, other): return sub(as_tensor(other), self)
    def __mul__(self, other): return mul(self, other)
    def __rmul__(self, other): return mul(self, other)
    def __neg__(self): return neg(self)
    def __matmul__(self, other): return matmul(self, other)

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, 1.0 / float(other))
        raise ShapeError("tensor division only supports python scalars; use mul + reciprocal ops")


@dataclass
class OpRecord:
    """One recorded op: inputs, produced output, and its vector-Jacobian product."""

    op: str
    inputs: tuple
    output: Tensor
    vjp: Callable[[np.ndarray], tuple]


@dataclass
class Tape:
    """Ordered op records for one forward computation (a context manager)."""

    records: list = field(default_factory=list)

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        _tape_stack().pop()
        return False


_TLS = threading.local()


def _tape_stack() -> list:
    stack = getattr(_TLS, "stack", None)
    if stack is None:
        stack = []
        _TLS.stack = stack
    return stack


def _active_tape() -> Tape | None:
    stack = _tape_stack()
    return stack[-1] if stack else None


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _emit(op: str, out_data: np.ndarray, inputs: tuple, vjp) -> Tensor:
    out = Tensor(out_data)
    tape = _active_tape()
    if tape is not None and any(
        isinstance(t, Tensor) and t.requires_grad for t in inputs
    ):
        out.requires_grad = True
        tape.records.append(OpRecord(op, inputs, out, vjp))
    return out


def backward(loss: Tensor, tape: Tape, leaves=()) -> None:
    """Populate ``.grad`` on every reachable requires_grad tensor.

    Records are traversed exactly once, newest first; because the tape is in
    execution order, every consumer of a value is processed before its
    producer, so multiple uses sum correctly. ``leaves`` that the loss never
    touched get explicit zero gradients.

    Raises
    ------
    ShapeError
        If ``loss`` is not a scalar (size-1) tensor.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    if loss.requires_grad:
        seed = np.ones_like(loss.data)
        loss.grad = seed if loss.grad is None else loss.grad + seed
        for rec in reversed(tape.records):
            g = rec.output.grad
            if g is None:
                continue
            for inp, piece in zip(rec.inputs, rec.vjp(g)):
                if piece is None or not isinstance(inp, Tensor) or not inp.requires_grad:
                    continue
                inp.grad = piece if inp.grad is None else inp.grad + piece
    for leaf in leaves:
        if leaf.grad is None:
            leaf.grad = np.zeros_like(leaf.data)


# =============================================================================
# Parameter initialization policy
# =============================================================================

def param_uniform(rng: np.random.Generator, shape: tuple[int, ...],
                  fan_in: int | None = None) -> Tensor:
    """Weight init: uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)); fan_in defaults
    to the first dimension (rows of a right-multiplied weight matrix)."""
    fan = int(fan_in) if fan_in is not None else int(shape[0])
    bound = 1.0 / np.sqrt(max(fan, 1))
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


def param_zeros(shape: tuple[int, ...]) -> Tensor:
    """Bias init: zeros."""
    return Tensor(np.zeros(shape), requires_grad=True)


# =============================================================================
# Elementwise arithmetic (equal shapes, scalar, or suffix broadcast)
# =============================================================================

def _coerce_pair(a, b) -> tuple[Tensor, Tensor]:
    a = as_tensor(a) if not isinstance(a, (int, float)) else a
    b = as_tensor(b) if not isinstance(b, (int, float)) else b
    return a, b


def _check_broadcast(sa: tuple[int, ...], sb: tuple[int, ...]) -> None:
    small, big = (sa, sb) if len(sa) <= len(sb) else (sb, sa)
    if big[len(big) - len(small):] != small:
        raise ShapeError(f"shapes {sa} and {sb} are neither equal nor suffix-broadcastable")


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if g.shape == shape:
        return g
    lead = g.ndim - len(shape)
    return g.sum(axis=tuple(range(lead)))


def add(a, b) -> Tensor:
    a, b = _coerce_pair(a, b)
    if isinstance(b, (int, float)):
        return _emit("add", a.data + b, (a,), lambda g: (g,))
    if isinstance(a, (int, float)):
        return _emit("add", b.data + a, (b,), lambda g: (g,))
    _check_broadcast(a.shape, b.shape)
    return _emit("add", a.data + b.data, (a, b),
                 lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)))


def sub(a, b) -> Tensor:
    a, b = _coerce_pair(a, b)
    if isinstance(b, (int, float)):
        return _emit("sub", a.data - b, (a,), lambda g: (g,))
    if isinstance(a, (int, float)):
        return _emit("sub", a - b.data, (b,), lambda g: (-g,))
    _check_broadcast(a.shape, b.shape)
    return _emit("sub", a.data - b.data, (a, b),
                 lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)))


def mul(a, b) -> Tensor:
    a, b = _coerce_pair(a, b)
    if isinstance(b, (int, float)):
        return scale(a, float(b))
    if isinstance(a, (int, float)):
        return scale(b, float(a))
    _check_broadcast(a.shape, b.shape)
    ad, bd = a.data, b.data
    return _emit("mul", ad * bd, (a, b),
                 lambda g: (_unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape)))


def scale(a, c: float) -> Tensor:
    a = as_tensor(a)
    c = float(c)
    return _emit("scale", a.data * c, (a,), lambda g: (g * c,))


def neg(a) -> Tensor:
    return scale(a, -1.0)


def mask_rows(x, keep: np.ndarray) -> Tensor:
    """Zero the rows of ``x`` where the bool ``keep`` (shape ``x.shape[:-1]``)
    is False. Value ``x * keep[..., None]``, VJP ``g * keep[..., None]``, with
    the mask as a float (..., 1) column: the same bits as a multiply by a
    full-size float 0/1 copy of the mask. When every row is kept, the value is
    ``x``'s own array and the VJP passes ``g`` through, since ``x * 1.0`` is
    ``x`` bit for bit."""
    x, keep = as_tensor(x), np.asarray(keep)
    if x.data.ndim == 0 or keep.dtype != np.bool_ or keep.shape != x.data.shape[:-1]:
        raise ShapeError(f"mask_rows needs a bool {x.shape[:-1]} mask, got {keep.dtype} {keep.shape}")
    if keep.all():
        return _emit("mask_rows", x.data, (x,), lambda g: (g,))
    col = keep[..., None].astype(np.float64)
    return _emit("mask_rows", x.data * col, (x,), lambda g: (g * col,))


# =============================================================================
# Linear algebra and shape ops
# =============================================================================

def matmul(a, b) -> Tensor:
    """Either ``(..., n, k) @ (k, p)`` (shared weights) or
    ``(..., n, k) @ (..., k, p)`` with identical leading dims.

    A shared weight runs as a stack of per-matrix products, in the value and
    in ``da``, and only ``db`` is one 2-D GEMM. One GEMM on the ``(rows, k)``
    view of ``a`` would be faster, but OpenBLAS picks its kernel by size, so
    its bits differ from the per-matrix products for ``p`` of 1 or 2 and, in
    ``da``, for inner widths of 32 and more.
    """
    a, b = as_tensor(a), as_tensor(b)
    ad, bd = a.data, b.data
    if ad.ndim < 2 or bd.ndim < 2:
        raise ShapeError(f"matmul needs >= 2-D operands, got {ad.shape} @ {bd.shape}")
    if ad.shape[-1] != bd.shape[-2]:
        raise ShapeError(f"inner dims differ: {ad.shape} @ {bd.shape}")
    if bd.ndim == 2:
        out = ad @ bd

        def vjp(g):
            # A constant input (walk encodings, raw features) gets no da.
            da = g @ bd.T if a.requires_grad else None
            db = ad.reshape(-1, ad.shape[-1]).T @ g.reshape(-1, g.shape[-1])
            return da, db
        return _emit("matmul", out, (a, b), vjp)
    if ad.shape[:-2] != bd.shape[:-2]:
        raise ShapeError(f"leading dims differ: {ad.shape} @ {bd.shape}")
    out = ad @ bd

    def vjp(g):
        return g @ np.swapaxes(bd, -1, -2), np.swapaxes(ad, -1, -2) @ g
    return _emit("matmul", out, (a, b), vjp)


def transpose(a, axes: tuple[int, ...]) -> Tensor:
    a = as_tensor(a)
    axes = tuple(axes)
    inverse = tuple(int(i) for i in np.argsort(axes))
    return _emit("transpose", np.transpose(a.data, axes), (a,),
                 lambda g: (np.transpose(g, inverse),))


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    old = a.data.shape
    return _emit("reshape", a.data.reshape(shape), (a,),
                 lambda g: (g.reshape(old),))


def slice_axis(a, axis: int, start: int, stop: int) -> Tensor:
    a = as_tensor(a)
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)
    full_shape = a.data.shape

    def vjp(g):
        buf = np.zeros(full_shape, dtype=g.dtype)
        buf[idx] = g
        return (buf,)
    return _emit("slice", a.data[idx].copy(), (a,), vjp)


def flip_axis(a, axis: int) -> Tensor:
    """Reverse one axis (used to run causal layers right-to-left)."""
    a = as_tensor(a)
    return _emit("flip", np.flip(a.data, axis=axis).copy(), (a,),
                 lambda g: (np.flip(g, axis=axis).copy(),))


def expand(a, shape) -> Tensor:
    """Broadcast size-1 axes of ``a`` up to ``shape`` (equal ndim required).

    The output's data is a read-only view of ``a.data``; nothing is copied.
    """
    a = as_tensor(a)
    shape = tuple(int(s) for s in shape)
    if len(shape) != a.data.ndim:
        raise ShapeError(f"expand needs equal ndim: {a.shape} -> {shape}")
    for have, want in zip(a.data.shape, shape):
        if have != want and have != 1:
            raise ShapeError(f"expand only grows size-1 axes: {a.shape} -> {shape}")
    grown = tuple(i for i, (have, want) in enumerate(zip(a.data.shape, shape)) if have != want)

    def vjp(g):
        return (g.sum(axis=grown, keepdims=True) if grown else g,)
    return _emit("expand", np.broadcast_to(a.data, shape), (a,), vjp)


# =============================================================================
# Elementwise nonlinearities
# =============================================================================

def relu(a) -> Tensor:
    a = as_tensor(a)
    keep = a.data > 0
    return _emit("relu", a.data * keep, (a,), lambda g: (g * keep,))


def gelu(a) -> Tensor:
    """Exact GELU: x * Phi(x) with the Gaussian CDF."""
    a = as_tensor(a)
    x = a.data
    cdf = 0.5 * (1.0 + _erf(x / np.sqrt(2.0)))

    def vjp(g):
        pdf = np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
        return (g * (cdf + x * pdf),)
    return _emit("gelu", x * cdf, (a,), vjp)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    s = 1.0 / (1.0 + np.exp(-a.data))
    return _emit("sigmoid", s, (a,), lambda g: (g * s * (1.0 - s),))


def tanh(a) -> Tensor:
    a = as_tensor(a)
    t = np.tanh(a.data)
    return _emit("tanh", t, (a,), lambda g: (g * (1.0 - t * t),))


def exp(a) -> Tensor:
    a = as_tensor(a)
    e = np.exp(a.data)
    return _emit("exp", e, (a,), lambda g: (g * e,))


def log(a) -> Tensor:
    a = as_tensor(a)
    x = a.data
    return _emit("log", np.log(x), (a,), lambda g: (g / x,))


def softplus(a) -> Tensor:
    a = as_tensor(a)
    x = a.data
    return _emit("softplus", np.logaddexp(0.0, x), (a,),
                 lambda g: (g * (1.0 / (1.0 + np.exp(-x))),))


def silu(a) -> Tensor:
    a = as_tensor(a)
    x = a.data
    s = 1.0 / (1.0 + np.exp(-x))
    return _emit("silu", x * s, (a,), lambda g: (g * (s + x * s * (1.0 - s)),))


# =============================================================================
# Reductions and normalizations
# =============================================================================

def _axis_tuple(axis, ndim) -> tuple[int, ...]:
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


def reduce_sum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    axes = _axis_tuple(axis, a.data.ndim)
    out = a.data.sum(axis=axes, keepdims=keepdims)
    shape = a.data.shape

    def vjp(g):
        gg = g
        if not keepdims:
            expander = list(shape)
            for ax in axes:
                expander[ax] = 1
            gg = g.reshape(expander)
        return (np.broadcast_to(gg, shape).copy(),)
    return _emit("sum", out, (a,), vjp)


def reduce_mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    axes = _axis_tuple(axis, a.data.ndim)
    count = int(np.prod([a.data.shape[ax] for ax in axes]))
    return scale(reduce_sum(a, axis=axes, keepdims=keepdims), 1.0 / max(count, 1))


def softmax(a, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    x = a.data
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return ((g - dot) * y,)
    return _emit("softmax", y, (a,), vjp)


def log_softmax(a, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    x = a.data
    shifted = x - x.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    y = shifted - lse

    def vjp(g):
        return (g - np.exp(y) * g.sum(axis=axis, keepdims=True),)
    return _emit("log_softmax", y, (a,), vjp)


def layernorm(a, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    a, gain, bias = as_tensor(a), as_tensor(gain), as_tensor(bias)
    x = a.data
    d = x.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ShapeError(f"layernorm affine params must have shape ({d},)")
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    y = xc * inv
    out = y * gain.data + bias.data

    def vjp(g):
        dgain = (g * y).reshape(-1, d).sum(axis=0)
        dbias = g.reshape(-1, d).sum(axis=0)
        dy = g * gain.data
        dx = inv * (dy - dy.mean(axis=-1, keepdims=True)
                    - y * (dy * y).mean(axis=-1, keepdims=True))
        return dx, dgain, dbias
    return _emit("layernorm", out, (a, gain, bias), vjp)


# =============================================================================
# Convolution, segments, gather/scatter
# =============================================================================

def _windows(xp: np.ndarray, k: int) -> np.ndarray:
    """(..., T, D, k) view of the k-row windows along axis -2 of a padded
    (..., T + k - 1, D) array. ``sliding_window_view`` refuses T = 0, so that
    case is an empty array."""
    if xp.shape[-2] < k:
        return np.empty(xp.shape[:-2] + (0, xp.shape[-1], k))
    return sliding_window_view(xp, k, axis=-2)


def conv1d_depthwise(a, kernel) -> Tensor:
    """Per-channel cross-correlation over axis -2 with zero same-padding.

    ``a``: (..., T, D); ``kernel``: (k, D) with odd k. Output matches ``a``.

    The value, ``dx`` and ``dw`` are each one einsum over a sliding-window
    view (of the padded input; of the padded gradient for ``dx``, with the
    window axis reversed). For D >= 2 every entry of the value and ``dx``
    adds its k products in tap order j = 0..k-1, starting from zero, and
    ``dw[j]`` adds its products in row order, so the bits are those of a
    per-tap loop of full-size multiply-adds. At D = 1 einsum reduces the taps
    (and, for ``dw``, the rows) with its own unrolled sum, which may differ
    from that loop in the last place.
    """
    a, kernel = as_tensor(a), as_tensor(kernel)
    x, w = a.data, kernel.data
    if w.ndim != 2:
        raise ShapeError(f"depthwise kernel must be (k, D), got {w.shape}")
    k, d = w.shape
    if k % 2 == 0 or k < 1:
        raise BadKernel(f"kernel width must be odd and positive, got {k}")
    if x.ndim < 2 or x.shape[-1] != d:
        raise ShapeError(f"input {x.shape} does not match kernel channels {d}")
    t = x.shape[-2]
    h = k // 2
    pad = [(0, 0)] * (x.ndim - 2) + [(h, h), (0, 0)]
    xp = np.pad(x, pad)
    out = np.einsum("...tdj,jd->...td", _windows(xp, k), w)

    def vjp(g):
        # dx[s] = sum_j g[s + h - j] w[j]: window s of the padded g, reversed.
        dx = np.einsum("...tdj,jd->...td", _windows(np.pad(g, pad), k)[..., ::-1], w)
        m = math.prod(x.shape[:-2])
        g3, xp3 = g.reshape(m, t, d), xp.reshape(m, t + 2 * h, d)
        dw = np.einsum("mtd,mtdj->jd", g3, _windows(xp3, k))
        return dx, dw
    return _emit("conv1d", out, (a, kernel), vjp)


class Segments:
    """A segment plan: the integer index array ``ids`` into ``n`` rows.

    The ids are stored as int64 and range-checked once, here. ``counts`` (rows
    per id) and ``incidence`` (the matrix :func:`_segment_sum` multiplies by)
    are built on first use and kept, so every op and VJP that segments by the
    same plan shares one build.

    Raises
    ------
    ShapeError
        If ``n`` is negative or an id lies outside [0, n).
    """

    def __init__(self, ids, n: int):
        self.ids = np.asarray(ids, dtype=np.int64)
        self.n = int(n)
        if self.n < 0:
            raise ShapeError(f"segment count must be >= 0, got {self.n}")
        if self.ids.size and (self.ids.min() < 0 or self.ids.max() >= self.n):
            raise ShapeError(f"index out of range [0, {self.n})")

    @cached_property
    def counts(self) -> np.ndarray:
        """(n,) int64: how many entries of ``ids`` hold each id."""
        return np.bincount(self.ids.ravel(), minlength=self.n)

    @cached_property
    def incidence(self) -> csr_array:
        """(n, ids.size) 0/1 CSR matrix whose row ``k`` lists the flat
        positions of id ``k`` in ascending order (a stable argsort)."""
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(self.counts, out=indptr[1:])
        order = np.argsort(self.ids.ravel(), kind="stable")
        return csr_array((np.ones(self.ids.size), order, indptr),
                         shape=(self.n, self.ids.size))


def _segment_sum(x: np.ndarray, seg: Segments) -> np.ndarray:
    """Row scatter: ``out[k]`` is the sum of the rows ``x[i]`` with flat id
    ``seg.ids[i] == k``.

    The package's only scatter, shared by :func:`segment_mean`,
    :func:`scatter_add` and the VJP of :func:`gather_rows`. It is the product
    of ``seg.incidence`` with ``x``, so each output row adds its inputs one at
    a time in input order, starting from zero. The sums are therefore the
    same, bit for bit, as a sequential row-by-row accumulation.
    """
    return seg.incidence @ x


def _plan(op: str, x: np.ndarray, ids, n_out: int | None = None) -> Segments:
    """Check that ``x`` is (N, D) and return ``ids`` as a :class:`Segments`,
    wrapping a raw array in a one-use plan.

    Scatters pass ``n_out``: one id per row of ``x``, each in [0, n_out).
    Gathers pass none: ids of any shape, each in [0, N).
    """
    if x.ndim != 2:
        raise ShapeError(f"{op} needs a 2-D (N, D) array, got {x.shape}")
    n = x.shape[0] if n_out is None else n_out
    seg = ids if isinstance(ids, Segments) else Segments(ids, n)
    if n_out is not None and seg.ids.shape != (x.shape[0],):
        raise ShapeError(f"{op} needs (N,) ids for {x.shape} values, got {seg.ids.shape}")
    if seg.n != n:
        raise ShapeError(f"{op}: a plan over {seg.n} rows where {n} are needed")
    return seg


def segment_mean(values, segment_ids, n_segments: int) -> Tensor:
    """Mean of value rows per segment id; empty segments are zero.

    ``values``: (N, D); ``segment_ids``: (N,) ints in [0, n_segments), or a
    :class:`Segments` plan of them.
    """
    values = as_tensor(values)
    x = values.data
    seg = _plan("segment_mean", x, segment_ids, n_segments)
    denom = np.maximum(seg.counts.astype(x.dtype), 1.0)[:, None]
    out = _segment_sum(x, seg) / denom

    def vjp(g):
        return ((g / denom)[seg.ids],)
    return _emit("segment_mean", out, (values,), vjp)


def scatter_add(values, segment_ids, n_rows: int) -> Tensor:
    """Sum of value rows per segment id: (N, D) + ids (or a
    :class:`Segments` plan) -> (n_rows, D)."""
    values = as_tensor(values)
    x = values.data
    seg = _plan("scatter_add", x, segment_ids, n_rows)

    def vjp(g):
        return (g[seg.ids],)
    return _emit("scatter_add", _segment_sum(x, seg), (values,), vjp)


def gather_rows(a, index) -> Tensor:
    """Row lookup: ``a`` (N, D), integer ``index`` of any shape (or a
    :class:`Segments` plan of it over N rows) -> output of shape
    ``index.shape + (D,)``."""
    a = as_tensor(a)
    x = a.data
    seg = _plan("gather_rows", x, index)

    def vjp(g):
        return (_segment_sum(g.reshape(-1, x.shape[1]), seg),)
    return _emit("gather_rows", x[seg.ids], (a,), vjp)


# =============================================================================
# Linear recurrence scan and the selective scan
# =============================================================================

def _scan_into(a: np.ndarray, b: np.ndarray, h: np.ndarray) -> None:
    """Write h_t = a_t * h_{t-1} + b_t over axis -2 into ``h``, h_{-1} = 0.

    Each step is one multiply into the row of ``h`` and one in-place add, so
    t = 0 computes ``a_0 * 0 + b_0`` (signed zeros included) and every row
    has the bits of ``a_t * h_{t-1} + b_t``.
    """
    if not h.size:
        return
    np.multiply(a[..., 0, :], 0.0, out=h[..., 0, :])
    h[..., 0, :] += b[..., 0, :]
    for t in range(1, a.shape[-2]):
        np.multiply(a[..., t, :], h[..., t - 1, :], out=h[..., t, :])
        h[..., t, :] += b[..., t, :]


def _scan_adjoint(a: np.ndarray, h: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """VJP of :func:`_scan_into` at states ``h``: ``(da, db)`` for the output
    gradient ``g``. ``db`` is the reverse scan s_t = a_{t+1} s_{t+1} + g_t,
    and ``da_t = s_t h_{t-1}``."""
    db = np.empty(g.shape)
    if not g.size:
        return np.empty(g.shape), db
    db[..., -1, :] = g[..., -1, :] + 0.0          # s_T = 0, so -0.0 gives +0.0
    for t in range(a.shape[-2] - 2, -1, -1):
        np.multiply(a[..., t + 1, :], db[..., t + 1, :], out=db[..., t, :])
        db[..., t, :] += g[..., t, :]
    da = np.empty(g.shape)
    np.multiply(db[..., 0, :], 0.0, out=da[..., 0, :])
    np.multiply(db[..., 1:, :], h[..., :-1, :], out=da[..., 1:, :])
    return da, db


def associative_scan(a, b) -> Tensor:
    """First-order linear recurrence h_t = a_t * h_{t-1} + b_t over axis -2.

    ``a`` and ``b`` share shape (..., T, C); h_{-1} = 0. Runs sequentially in
    time, each step in place in its row of the output, so results are
    deterministic.
    """
    a, b = as_tensor(a), as_tensor(b)
    ad, bd = a.data, b.data
    if ad.shape != bd.shape or ad.ndim < 2:
        raise ShapeError(f"scan needs equal (..., T, C) shapes, got {ad.shape}, {bd.shape}")
    # Buffers are C-ordered by shape: an input may be an expand view, and
    # ``empty_like`` would copy its stride order into the gradient layout.
    h = np.empty(bd.shape)
    _scan_into(ad, bd, h)
    return _emit("scan", h, (a, b), lambda g: _scan_adjoint(ad, h, g))


def _zoh_phi_prime(x: np.ndarray) -> np.ndarray:
    """phi'(z) = (exp(z)(z - 1) + 1) / z^2, series 1/2 + z/3 + z^2/8 + z^3/30
    where |z| < 1e-4."""
    small = np.abs(x) < 1e-4
    safe = np.where(small, 1.0, x)
    xs = x[small]
    der = (np.exp(safe) * (safe - 1.0) + 1.0) / (safe * safe)
    der[small] = 0.5 + xs / 3.0 + xs * xs / 8.0 + xs * xs * xs / 30.0
    return der


def zoh_phi(z) -> Tensor:
    """phi(z) = (exp(z) - 1) / z with a smooth series near zero.

    Used by zero-order-hold discretization: B_bar = delta * phi(delta * A) * B.
    The value is ``expm1(z) / z``; only when some entry has |z| < 1e-4 (checked
    on the min and max first) are those entries overwritten with the quartic
    Taylor tail, which keeps the value and the derivative accurate to ~1e-16
    there, so gradients stay finite at A = 0. The VJP builds its own mask.
    """
    a = as_tensor(z)
    x = a.data
    with np.errstate(divide="ignore", invalid="ignore"):   # 0 / 0 is patched below
        val = np.expm1(x)
        val /= x
    if x.size and x.min() < 1e-4 and x.max() > -1e-4:
        small = np.abs(x) < 1e-4
        xs = x[small]
        val[small] = 1.0 + xs / 2.0 + xs * xs / 6.0 + xs * xs * xs / 24.0
    return _emit("zoh_phi", val, (a,), lambda g: (g * _zoh_phi_prime(x),))


# The selective scan works on blocks of walks holding about this many bytes per
# (T, k, d, N) float64 array, forward and VJP, so its temporaries stay in cache.
_SCAN_BLOCK_BYTES = 1 << 20


def _swap01(v: np.ndarray) -> np.ndarray:
    """A C-contiguous copy of ``v`` with its first two axes swapped: walk-major
    (k, T, ...) to time-major (T, k, ...) and back."""
    return np.ascontiguousarray(np.swapaxes(v, 0, 1))


def _selective_states(xt, dt, bt, a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(A_bar, phi, h)``, the time-major (T, k, d, N) arrays of the selective
    recurrence: ``z = delta A``, ``A_bar = exp(z)``, ``phi(z)``, and the states
    ``h`` of the scan with inputs ``A_bar`` and ``B_bar x = ((delta x) B) phi``.

    φ comes from :func:`zoh_phi` and the states from :func:`associative_scan`,
    both on untaped tensors of the (T, k d N) view, so that each scan step is
    one contiguous row. ``order="C"`` keeps the einsum outputs
    time-major (the default follows the operands' strides). ``A_bar``
    overwrites ``z`` and ``B_bar x`` its outer product: a fresh buffer costs
    more than the arithmetic on it.
    """
    z = np.einsum("tkd,dn->tkdn", dt, a, order="C")
    rows = (z.shape[0], math.prod(z.shape[1:]))
    phi = zoh_phi(Tensor(z.reshape(rows))).data.reshape(z.shape)
    a_bar = np.exp(z, out=z)
    b_x = np.einsum("tkd,tkn->tkdn", dt * xt, bt, order="C")
    b_x *= phi
    h = associative_scan(Tensor(a_bar.reshape(rows)), Tensor(b_x.reshape(rows))).data
    return a_bar, phi, h.reshape(z.shape)


def _selective_block(x, delta, b, c, a) -> np.ndarray:
    """y of one walk block, (k, T, d): the states read out by one stacked
    (d, N) @ (N, 1) matmul per position."""
    xt, dt, bt, ct = (_swap01(v) for v in (x, delta, b, c))
    h = _selective_states(xt, dt, bt, a)[-1]
    return _swap01((h @ ct[..., None])[..., 0])


def _selective_block_vjp(x, delta, b, c, a, g) -> tuple[np.ndarray, ...]:
    """VJP of :func:`_selective_block` for the output gradient ``g``:
    ``(dx, ddelta, db, dc)`` and the product ``dz * delta`` as (k T, d, N)
    rows in walk-major order, whose sum is ``da``.

    Each product and sum is the one that the recurrence written as a chain
    of tape ops (exp, zoh_phi, broadcast mul, expand, scan, matmul readout)
    takes in backward, on the same axes, so the gradients have its bits.
    """
    xt, dt, bt, ct, gt = (_swap01(v) for v in (x, delta, b, c, g))
    a_bar, phi, h = _selective_states(xt, dt, bt, a)
    shape = a_bar.shape
    dc = (np.swapaxes(h, -1, -2) @ gt[..., None])[..., 0]
    dh = gt[..., None] @ ct[..., None, :]
    rows = (shape[0], math.prod(shape[1:]))
    dz, db_x = (v.reshape(shape) for v in _scan_adjoint(
        a_bar.reshape(rows), h.reshape(rows), dh.reshape(rows)))
    dz *= a_bar                                      # through A_bar = exp(z)
    dw = db_x * phi                                  # w = (delta x) B
    u = dt * xt
    db_x *= u[..., None] * bt[..., None, :]
    db_x *= _zoh_phi_prime(np.einsum("tkd,dn->tkdn", dt, a, order="C"))
    dz += db_x                                       # through phi(z)
    du = (dw * bt[..., None, :]).sum(axis=-1)
    ddelta = du * xt
    ddelta += (dz * a).sum(axis=-1)
    dz_delta = np.empty((shape[1] * shape[0],) + shape[2:])
    np.multiply(np.swapaxes(dz, 0, 1), delta[..., None],
                out=dz_delta.reshape((shape[1], shape[0]) + shape[2:]))
    return (_swap01(du * dt), _swap01(ddelta), _swap01((dw * u[..., None]).sum(axis=-2)),
            _swap01(dc), dz_delta)


def selective_scan(x, delta, b, c, a) -> Tensor:
    """Selective state-space scan (the Mamba recurrence, Gu & Dao, arXiv
    2312.00752) with zero-order-hold discretization.

    ``x`` and ``delta`` are (m, T, d), ``b`` and ``c`` (m, T, N), ``a`` (d, N).
    Returns y (m, T, d) with ``y_t = C_t . h_t`` and
    ``h_t = exp(delta_t A) h_{t-1} + delta_t phi(delta_t A) B_t x_t``, h_{-1} = 0.

    The op runs on blocks of walks (``_SCAN_BLOCK_BYTES``), each copied once to
    time-major order. ``B_bar x`` is ``((delta x) B) phi`` and the readout one
    stacked matmul, so each walk's bits do not depend on the walk count or the
    blocks. Only the five inputs are kept for the backward pass: the VJP
    recomputes each block's (T, k, d, N) arrays instead of holding them on the
    tape, and adds ``da`` over walks, then steps, as one running sum.
    """
    x, delta, b, c, a = (as_tensor(t) for t in (x, delta, b, c, a))
    xd, dd, bd, cd, ad = x.data, delta.data, b.data, c.data, a.data
    if (xd.ndim != 3 or dd.shape != xd.shape or ad.ndim != 2 or ad.shape[0] != xd.shape[2]
            or bd.shape != xd.shape[:2] + ad.shape[1:] or cd.shape != bd.shape):
        raise ShapeError(f"selective scan needs (m, T, d) x and delta, (m, T, N) b and c "
                         f"and (d, N) a, got {xd.shape}, {dd.shape}, {bd.shape}, "
                         f"{cd.shape}, {ad.shape}")
    k = max(1, _SCAN_BLOCK_BYTES // (8 * max(xd.shape[1] * ad.size, 1)))
    blocks = [slice(lo, lo + k) for lo in range(0, max(xd.shape[0], 1), k)]
    y = np.concatenate([_selective_block(xd[s], dd[s], bd[s], cd[s], ad) for s in blocks])

    def vjp(g):
        grads, da = [], None
        for s in blocks:
            *block_grads, rows = _selective_block_vjp(xd[s], dd[s], bd[s], cd[s], ad, g[s])
            grads.append(block_grads)
            da = rows.sum(axis=0) if da is None else np.concatenate((da[None], rows)).sum(axis=0)
        return (*(np.concatenate(p) for p in zip(*grads)), da)
    return _emit("selective_scan", y, (x, delta, b, c, a), vjp)
