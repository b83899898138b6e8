"""Binary tensor serialization.

File layout, all integers little-endian:

    bytes 0..3   magic "TEGT"
    byte  4      rank (u8)
    next 8*rank  dims (u64 each)
    next 1       element type flag: 0 = float32, 1 = float64
    rest         raw row-major element data, little-endian

The stream variants exist so a checkpoint can concatenate many tensors into
one file; each record is self-delimiting because the header fixes the
payload length.
"""
from __future__ import annotations

import io
import math
import struct
from typing import BinaryIO

import numpy as np

from .errors import DataError

MAGIC = b"TEGT"
_FLAG_TO_DTYPE = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_MAX_RANK = 8


def write_tensor(stream: BinaryIO, array: np.ndarray) -> None:
    array = np.asarray(array)
    if array.dtype == np.float32:
        flag, payload = 0, array.astype("<f4", copy=False)
    elif array.dtype == np.float64:
        flag, payload = 1, array.astype("<f8", copy=False)
    else:
        raise DataError(f"cannot serialize dtype {array.dtype}; use float32 or float64")
    if array.ndim > _MAX_RANK:
        raise DataError(f"rank {array.ndim} exceeds the format limit of {_MAX_RANK}")
    stream.write(MAGIC)
    stream.write(struct.pack("<B", array.ndim))
    for dim in array.shape:
        stream.write(struct.pack("<Q", dim))
    stream.write(struct.pack("<B", flag))
    stream.write(np.ascontiguousarray(payload).tobytes())


def read_tensor(stream: BinaryIO) -> np.ndarray:
    magic = stream.read(4)
    if magic != MAGIC:
        raise DataError(f"bad tensor magic {magic!r}, expected {MAGIC!r}")
    rank_raw = stream.read(1)
    if len(rank_raw) != 1:
        raise DataError("truncated tensor header: missing rank")
    rank = rank_raw[0]
    if rank > _MAX_RANK:
        raise DataError(f"tensor rank {rank} exceeds the format limit of {_MAX_RANK}")
    dims = []
    for _ in range(rank):
        raw = stream.read(8)
        if len(raw) != 8:
            raise DataError("truncated tensor header: missing dimension")
        dims.append(struct.unpack("<Q", raw)[0])
    flag_raw = stream.read(1)
    if len(flag_raw) != 1:
        raise DataError("truncated tensor header: missing element type flag")
    flag = flag_raw[0]
    if flag not in _FLAG_TO_DTYPE:
        raise DataError(f"unknown element type flag {flag}")
    dtype = _FLAG_TO_DTYPE[flag]
    # numpy caps the bytes spanned by the non-zero dims at intp, even where
    # a zero dim leaves the array empty.
    if dtype.itemsize * math.prod(max(dim, 1) for dim in dims) > np.iinfo(np.intp).max:
        raise DataError(f"tensor dims {dims} declare a payload larger than numpy can hold")
    nbytes = math.prod(dims) * dtype.itemsize
    if stream.seekable():  # reject huge dims before asking read() for them
        here = stream.tell()
        left = stream.seek(0, io.SEEK_END) - here
        stream.seek(here)
        if nbytes > left:
            raise DataError(f"truncated tensor payload: header declares {nbytes} bytes, "
                            f"{left} remain")
    payload = stream.read(nbytes)
    if len(payload) != nbytes:
        raise DataError(
            f"truncated tensor payload: expected {nbytes} bytes, got {len(payload)}"
        )
    return np.frombuffer(payload, dtype=dtype).reshape(dims).copy()


def save_tensor(path, array: np.ndarray) -> None:
    with open(path, "wb") as stream:
        write_tensor(stream, array)


def load_tensor(path) -> np.ndarray:
    with open(path, "rb") as stream:
        array = read_tensor(stream)
        trailing = stream.read(1)
        if trailing:
            raise DataError(f"{path}: trailing bytes after tensor payload")
    return array
