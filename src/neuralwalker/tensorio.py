"""NWTF binary tensor format.

One tensor on the wire is::

    magic   4 bytes   b"NWTF"
    rank    1 byte    unsigned
    dims    rank * 8  little-endian uint64
    payload prod(dims) * 8 little-endian float64, C order

Multiple tensors may be concatenated back to back; checkpoints pair such a
concatenation with a JSON manifest naming each tensor in order.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParseError, TooLarge

__all__ = ["MAGIC", "dumps_tensor", "loads_tensor", "save_tensor", "load_tensor",
           "save_tensors", "load_tensors"]

MAGIC = b"NWTF"
_MAX_ELEMENTS = 1 << 30  # refuse absurd allocations from corrupt headers


def dumps_tensor(arr: np.ndarray) -> bytes:
    # np.ascontiguousarray would promote rank-0 arrays to rank 1; keep rank.
    arr = np.asarray(arr, dtype=np.float64)
    if not arr.flags["C_CONTIGUOUS"]:
        arr = np.ascontiguousarray(arr)
    if arr.ndim > 255:
        raise TooLarge(f"rank {arr.ndim} exceeds the u8 rank field")
    header = MAGIC + bytes([arr.ndim])
    dims = np.asarray(arr.shape, dtype="<u8").tobytes()
    payload = arr.astype("<f8", copy=False)
    # join reads the array's buffer directly, so the payload is copied once.
    return b"".join((header, dims, payload.data))


def loads_tensor(buf: bytes, offset: int = 0) -> tuple[np.ndarray, int]:
    """Decode one tensor starting at ``offset``; returns (array, next_offset)."""
    if buf[offset:offset + 4] != MAGIC:
        raise ParseError(f"bad magic at byte {offset}: expected {MAGIC!r}")
    rank = buf[offset + 4]
    pos = offset + 5
    dims_end = pos + 8 * rank
    if dims_end > len(buf):
        raise ParseError("truncated tensor header")
    # Python ints, so that a corrupt dim can neither wrap negative nor overflow the product.
    dims = [int(d) for d in np.frombuffer(buf[pos:dims_end], dtype="<u8")]
    n = math.prod(dims)
    if max(dims, default=0) > _MAX_ELEMENTS or n > _MAX_ELEMENTS:
        raise TooLarge(f"tensor dims {dims} exceed the {_MAX_ELEMENTS}-element cap")
    data_end = dims_end + 8 * n
    if data_end > len(buf):
        raise ParseError("truncated tensor payload")
    arr = np.frombuffer(buf[dims_end:data_end], dtype="<f8").astype(np.float64)
    return arr.reshape(tuple(dims)), data_end


def save_tensor(path, arr: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(dumps_tensor(arr))


def load_tensor(path) -> np.ndarray:
    with open(path, "rb") as fh:
        buf = fh.read()
    arr, end = loads_tensor(buf)
    if end != len(buf):
        raise ParseError(f"{len(buf) - end} trailing bytes after single tensor")
    return arr


def save_tensors(path, arrays) -> None:
    """Write an iterable of arrays back to back."""
    with open(path, "wb") as fh:
        for arr in arrays:
            fh.write(dumps_tensor(arr))


def load_tensors(path) -> list[np.ndarray]:
    with open(path, "rb") as fh:
        buf = fh.read()
    out = []
    offset = 0
    while offset < len(buf):
        arr, offset = loads_tensor(buf, offset)
        out.append(arr)
    return out
