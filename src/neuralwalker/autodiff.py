"""Dense f64 tensors with tape-based reverse-mode differentiation.

A :class:`Tape` records one :class:`OpRecord` per differentiable op in
execution order; :func:`backward` replays the records once, in reverse,
accumulating vector-Jacobian products into ``Tensor.grad`` buffers (numpy
arrays; the backward pass itself is never recorded, so there is no
higher-order differentiation). With no tape active, ops run in inference mode
and record nothing.

Broadcasting is deliberately narrow: elementwise ops accept equal shapes, a
python scalar, or one operand whose shape is a trailing suffix of the other's
(the bias case). Anything else needs an explicit :func:`expand` / ``reshape``.

Every row scatter -- :func:`segment_mean`, :func:`scatter_add` and the VJP of
:func:`gather_rows` -- goes through one primitive, :func:`_segment_sum`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.sparse import csr_array
from scipy.special import erf as _erf

from .errors import ShapeError

__all__ = [
    "Tensor",
    "Tape",
    "backward",
    "as_tensor",
    "param_uniform",
    "param_zeros",
    "add", "sub", "mul", "scale", "neg", "matmul", "transpose", "reshape",
    "concat", "slice_axis", "expand", "flip_axis",
    "relu", "gelu", "sigmoid", "tanh", "exp", "log", "softplus", "silu",
    "softmax", "log_softmax", "reduce_sum", "reduce_mean",
    "layernorm", "conv1d_depthwise", "segment_mean", "scatter_add",
    "gather_rows", "associative_scan", "zoh_phi",
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

    def item(self) -> float:
        return float(self.data.reshape(()))

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


# =============================================================================
# Linear algebra and shape ops
# =============================================================================

def matmul(a, b) -> Tensor:
    """Either ``(..., n, k) @ (k, p)`` (shared weights) or
    ``(..., n, k) @ (..., k, p)`` with identical leading dims."""
    a, b = as_tensor(a), as_tensor(b)
    ad, bd = a.data, b.data
    if ad.ndim < 2 or bd.ndim < 2:
        raise ShapeError(f"matmul needs >= 2-D operands, got {ad.shape} @ {bd.shape}")
    if ad.shape[-1] != bd.shape[-2]:
        raise ShapeError(f"inner dims differ: {ad.shape} @ {bd.shape}")
    if bd.ndim == 2:
        out = ad @ bd

        def vjp(g):
            da = g @ bd.T
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


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))
    return _emit("concat", out, tuple(tensors), vjp)


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
    """Broadcast size-1 axes of ``a`` up to ``shape`` (equal ndim required)."""
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
    return _emit("expand", np.broadcast_to(a.data, shape).copy(), (a,), vjp)


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
    pdf = np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
    return _emit("gelu", x * cdf, (a,), lambda g: (g * (cdf + x * pdf),))


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
    out = np.logaddexp(0.0, x)
    s = 1.0 / (1.0 + np.exp(-x))
    return _emit("softplus", out, (a,), lambda g: (g * s,))


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
    sm = np.exp(y)

    def vjp(g):
        return (g - sm * g.sum(axis=axis, keepdims=True),)
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

def conv1d_depthwise(a, kernel) -> Tensor:
    """Per-channel cross-correlation over axis -2 with zero same-padding.

    ``a``: (..., T, D); ``kernel``: (k, D) with odd k. Output matches ``a``.
    """
    from .errors import BadKernel

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
    out = np.zeros_like(x)
    for j in range(k):
        out += xp[..., j:j + t, :] * w[j]

    def vjp(g):
        gp = np.zeros_like(xp)
        dw = np.zeros_like(w)
        for j in range(k):
            gp[..., j:j + t, :] += g * w[j]
            dw[j] = (g * xp[..., j:j + t, :]).reshape(-1, d).sum(axis=0)
        dx = gp[..., h:h + t, :]
        return dx, dw
    return _emit("conv1d", out, (a, kernel), vjp)


def _segment_sum(x: np.ndarray, ids: np.ndarray, n: int) -> np.ndarray:
    """Row scatter: ``out[k]`` is the sum of the rows ``x[i]`` with ``ids[i] == k``.

    The package's only scatter, shared by :func:`segment_mean`,
    :func:`scatter_add` and the VJP of :func:`gather_rows`. It is a product
    with a 0/1 CSR matrix whose row ``k`` lists the positions of id ``k`` in
    ascending order (a stable argsort), so each output row adds its inputs one
    at a time in input order, starting from zero. The sums are therefore the
    same, bit for bit, as a sequential row-by-row accumulation.
    """
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(ids, minlength=n), out=indptr[1:])
    order = np.argsort(ids, kind="stable")
    incidence = csr_array((np.ones(ids.size), order, indptr), shape=(n, x.shape[0]))
    return incidence @ x


def _row_ids(op: str, x: np.ndarray, ids, n_out: int | None = None) -> np.ndarray:
    """Check that ``x`` is (N, D) and return the integer ``ids`` as int64.

    Scatters pass ``n_out``: one id per row of ``x``, each in [0, n_out).
    Gathers pass none: ids of any shape, each in [0, N).
    """
    ids = np.asarray(ids, dtype=np.int64)
    if x.ndim != 2 or (n_out is not None and ids.shape != (x.shape[0],)):
        want = "a (N, D) table" if n_out is None else "(N, D) values and (N,) ids"
        raise ShapeError(f"{op} needs {want}, got {x.shape}, {ids.shape}")
    n = x.shape[0] if n_out is None else n_out
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        raise ShapeError(f"{op}: index out of range [0, {n})")
    return ids


def segment_mean(values, segment_ids: np.ndarray, n_segments: int) -> Tensor:
    """Mean of value rows per segment id; empty segments are zero.

    ``values``: (N, D); ``segment_ids``: (N,) ints in [0, n_segments).
    """
    values = as_tensor(values)
    x = values.data
    ids = _row_ids("segment_mean", x, segment_ids, n_segments)
    counts = np.bincount(ids, minlength=n_segments).astype(x.dtype)
    denom = np.maximum(counts, 1.0)[:, None]
    out = _segment_sum(x, ids, n_segments) / denom

    def vjp(g):
        return (g[ids] / denom[ids],)
    return _emit("segment_mean", out, (values,), vjp)


def scatter_add(values, segment_ids: np.ndarray, n_rows: int) -> Tensor:
    """Sum of value rows per segment id: (N, D) + ids -> (n_rows, D)."""
    values = as_tensor(values)
    x = values.data
    ids = _row_ids("scatter_add", x, segment_ids, n_rows)

    def vjp(g):
        return (g[ids],)
    return _emit("scatter_add", _segment_sum(x, ids, n_rows), (values,), vjp)


def gather_rows(a, index: np.ndarray) -> Tensor:
    """Row lookup: ``a`` (N, D), integer ``index`` of any shape ->
    output of shape ``index.shape + (D,)``."""
    a = as_tensor(a)
    x = a.data
    idx = _row_ids("gather_rows", x, index)

    def vjp(g):
        return (_segment_sum(g.reshape(-1, x.shape[1]), idx.ravel(), x.shape[0]),)
    return _emit("gather_rows", x[idx], (a,), vjp)


# =============================================================================
# Linear recurrence scan
# =============================================================================

def associative_scan(a, b) -> Tensor:
    """First-order linear recurrence h_t = a_t * h_{t-1} + b_t over axis -2.

    ``a`` and ``b`` share shape (..., T, C); h_{-1} = 0. Runs sequentially in
    time, so results are deterministic.
    """
    a, b = as_tensor(a), as_tensor(b)
    ad, bd = a.data, b.data
    if ad.shape != bd.shape or ad.ndim < 2:
        raise ShapeError(f"scan needs equal (..., T, C) shapes, got {ad.shape}, {bd.shape}")
    t_len = ad.shape[-2]
    h = np.empty_like(bd)
    state = np.zeros_like(bd[..., 0, :])
    for t in range(t_len):
        state = ad[..., t, :] * state + bd[..., t, :]
        h[..., t, :] = state

    def vjp(g):
        da = np.empty_like(ad)
        db = np.empty_like(bd)
        s = np.zeros_like(state)
        for t in range(t_len - 1, -1, -1):
            s = s + g[..., t, :]
            prev = h[..., t - 1, :] if t > 0 else np.zeros_like(state)
            da[..., t, :] = s * prev
            db[..., t, :] = s
            s = s * ad[..., t, :]
        return da, db
    return _emit("scan", h, (a, b), vjp)


def zoh_phi(z) -> Tensor:
    """phi(z) = (exp(z) - 1) / z with a smooth series near zero.

    Used by zero-order-hold discretization: B_bar = delta * phi(delta * A) * B.
    The quartic Taylor tail keeps both the value and derivative accurate to
    ~1e-16 inside |z| < 1e-4, so gradients stay finite at A = 0.
    """
    a = as_tensor(z)
    x = a.data
    small = np.abs(x) < 1e-4
    safe = np.where(small, 1.0, x)
    val_big = np.expm1(safe) / safe
    val_small = 1.0 + x / 2.0 + x * x / 6.0 + x * x * x / 24.0
    val = np.where(small, val_small, val_big)
    # phi'(z) = (exp(z)(z - 1) + 1) / z^2, series 1/2 + z/3 + z^2/8 + z^3/30.
    der_big = (np.exp(safe) * (safe - 1.0) + 1.0) / (safe * safe)
    der_small = 0.5 + x / 3.0 + x * x / 8.0 + x * x * x / 30.0
    der = np.where(small, der_small, der_big)
    return _emit("zoh_phi", val, (a,), lambda g: (g * der,))
