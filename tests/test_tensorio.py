"""Binary tensor format tests: byte layout, round-trips, corruption handling."""

import struct

import numpy as np
import pytest

from neuralwalker.errors import ParseError, TooLarge
from neuralwalker.tensorio import (
    MAGIC,
    dumps_tensor,
    load_tensor,
    load_tensors,
    loads_tensor,
    save_tensor,
    save_tensors,
)


def test_wire_layout_is_pinned():
    arr = np.array([[1.0, 2.0], [3.0, 4.0]])
    buf = dumps_tensor(arr)
    assert buf[:4] == b"NWTF" == MAGIC
    assert buf[4] == 2  # rank
    assert struct.unpack("<QQ", buf[5:21]) == (2, 2)
    assert struct.unpack("<4d", buf[21:]) == (1.0, 2.0, 3.0, 4.0)
    assert len(buf) == 4 + 1 + 16 + 32


def test_scalar_and_empty_tensors():
    scalar = np.array(7.5)
    arr, end = loads_tensor(dumps_tensor(scalar))
    assert arr.shape == () and arr[()] == 7.5 and end == 5 + 8
    empty = np.zeros((0, 3))
    back, _ = loads_tensor(dumps_tensor(empty))
    assert back.shape == (0, 3)


def test_round_trip_preserves_exact_bits(tmp_path):
    rng = np.random.default_rng(0)
    arr = rng.standard_normal((3, 4, 5))
    arr[0, 0, 0] = 1e-300
    arr[0, 0, 1] = -0.0
    path = tmp_path / "t.nwtf"
    save_tensor(path, arr)
    back = load_tensor(path)
    assert back.shape == arr.shape
    assert (back.view(np.uint64) == arr.view(np.uint64)).all()


def test_multi_tensor_file(tmp_path):
    arrays = [np.arange(6.0).reshape(2, 3), np.array(1.5), np.zeros(4)]
    path = tmp_path / "many.nwtf"
    save_tensors(path, arrays)
    back = load_tensors(path)
    assert len(back) == 3
    for a, b in zip(arrays, back):
        assert a.shape == b.shape and (a == b).all()


def test_bad_magic_rejected():
    buf = b"XWTF" + bytes([0]) + struct.pack("<d", 1.0)
    with pytest.raises(ParseError, match="magic"):
        loads_tensor(buf)


def test_truncation_rejected():
    buf = dumps_tensor(np.ones((4, 4)))
    with pytest.raises(ParseError, match="payload"):
        loads_tensor(buf[:-1])
    with pytest.raises(ParseError, match="header"):
        loads_tensor(buf[:7])


def test_trailing_bytes_rejected_for_single_tensor(tmp_path):
    path = tmp_path / "trail.nwtf"
    with open(path, "wb") as fh:
        fh.write(dumps_tensor(np.ones(2)) + b"\x00" * 3)
    with pytest.raises(ParseError, match="^3 trailing bytes"):
        load_tensor(path)


def test_corrupt_header_cannot_trigger_huge_allocation():
    huge = MAGIC + bytes([1]) + struct.pack("<Q", 1 << 40)
    with pytest.raises(TooLarge):
        loads_tensor(huge)


@pytest.mark.parametrize("dims", [
    (1 << 33, 1 << 31),   # int64 product wraps to 0
    ((1 << 64) - 1,),     # reads as -1 in int64
    (0, 1 << 63),         # empty, but the second dim reads as negative
], ids=["product-wraps", "dim-wraps", "zero-then-huge"])
def test_corrupt_dims_raise_too_large(dims):
    header = MAGIC + bytes([len(dims)]) + struct.pack(f"<{len(dims)}Q", *dims)
    with pytest.raises(TooLarge):
        loads_tensor(header + bytes(64))


def test_int_input_is_stored_as_float64():
    back, _ = loads_tensor(dumps_tensor(np.array([1, 2, 3])))
    assert back.dtype == np.float64
    assert back.tolist() == [1.0, 2.0, 3.0]
