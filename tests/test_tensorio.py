"""Binary tensor format: round trips and corruption detection."""
import io
import struct

import numpy as np
import pytest

from tegraph.errors import DataError
from tegraph.tensorio import (
    MAGIC,
    load_tensor,
    read_tensor,
    save_tensor,
    write_tensor,
)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_round_trip_preserves_bits(dtype, tmp_path):
    rng = np.random.default_rng(1)
    for shape in [(), (5,), (2, 3), (3, 1, 4, 2)]:
        original = rng.normal(size=shape).astype(dtype)
        path = tmp_path / "t.tegt"
        save_tensor(path, original)
        loaded = load_tensor(path)
        assert loaded.dtype == dtype
        assert loaded.shape == original.shape
        np.testing.assert_array_equal(loaded, original)


def test_round_trip_keeps_special_values():
    values = np.array([0.0, -0.0, 1e-300, -1e300, np.finfo(np.float64).tiny])
    buf = io.BytesIO()
    write_tensor(buf, values)
    buf.seek(0)
    back = read_tensor(buf)
    assert np.array_equal(back, values)
    assert np.signbit(back[1])


def test_stream_concatenation_of_records():
    buf = io.BytesIO()
    a = np.arange(6.0).reshape(2, 3)
    b = np.float32([1, 2])
    write_tensor(buf, a)
    write_tensor(buf, b)
    buf.seek(0)
    np.testing.assert_array_equal(read_tensor(buf), a)
    np.testing.assert_array_equal(read_tensor(buf), b)
    assert buf.read() == b""


def test_non_contiguous_input_serializes_row_major():
    base = np.arange(12.0).reshape(3, 4)
    view = base.T  # not C-contiguous
    buf = io.BytesIO()
    write_tensor(buf, view)
    buf.seek(0)
    np.testing.assert_array_equal(read_tensor(buf), view)


def test_rejects_unsupported_dtype_and_rank():
    with pytest.raises(DataError):
        write_tensor(io.BytesIO(), np.arange(3))  # int64
    with pytest.raises(DataError):
        write_tensor(io.BytesIO(), np.zeros((1,) * 9))


def test_bad_magic_is_rejected():
    with pytest.raises(DataError, match="magic"):
        read_tensor(io.BytesIO(b"NOPE" + b"\x00" * 16))


def test_truncations_are_rejected():
    buf = io.BytesIO()
    write_tensor(buf, np.arange(4.0))
    blob = buf.getvalue()
    for cut in (2, 4, 5, 12, 13, len(blob) - 1):
        with pytest.raises(DataError):
            read_tensor(io.BytesIO(blob[:cut]))


def test_oversized_dims_are_rejected_before_the_payload():
    # 2**62 x 2**62 elements overflow an index-sized read request.
    blob = (MAGIC + struct.pack("<B", 2) + struct.pack("<2Q", 2**62, 2**62)
            + struct.pack("<B", 1) + b"\x00" * 64)
    with pytest.raises(DataError, match="payload"):
        read_tensor(io.BytesIO(blob))


def test_unknown_element_flag_is_rejected():
    blob = MAGIC + struct.pack("<B", 1) + struct.pack("<Q", 0) + struct.pack("<B", 7)
    with pytest.raises(DataError, match="flag"):
        read_tensor(io.BytesIO(blob))


def test_load_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "t.tegt"
    save_tensor(path, np.zeros(2))
    with open(path, "ab") as stream:
        stream.write(b"\x00")
    with pytest.raises(DataError, match="trailing"):
        load_tensor(path)


def test_empty_tensor_round_trips(tmp_path):
    path = tmp_path / "empty.tegt"
    save_tensor(path, np.zeros((0, 4)))
    loaded = load_tensor(path)
    assert loaded.shape == (0, 4)
