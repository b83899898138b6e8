"""Property tests: any bytes read as an input file give a value or a DataError.

Inputs are arbitrary byte strings, tensor headers with arbitrary dims, and
single-byte mutations of valid `.tegt`, `.tegc`, `manifest.jsonl` and
`.skeleton` files.  Nothing else may escape (a ParseError is a DataError):
the CLI maps DataError to exit 3, and anything else would end in a
traceback.
"""
import io
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import format_skeleton
from tegraph.checkpoint import load_checkpoint, save_checkpoint
from tegraph.dataset import generate_synthetic, load_split, read_manifest, write_dataset
from tegraph.errors import DataError, ParseError
from tegraph.model import LayerSpec, ModelConfig, Network
from tegraph.skeleton import Body, RawClip, parse_skeleton_file
from tegraph.tensorio import MAGIC, read_tensor, write_tensor

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)


def tensor_bytes(array) -> bytes:
    stream = io.BytesIO()
    write_tensor(stream, array)
    return stream.getvalue()


def checkpoint_bytes() -> bytes:
    config = ModelConfig(layers=[LayerSpec(3, 4, 1, "tc", 3), LayerSpec(4, 4, 1, "both", 3)],
                         num_classes=2, num_joints=3, fixed_length=4, max_bodies=1,
                         heads=2, graph="chain", seed=0)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.tegc"
        save_checkpoint(path, Network(config), epoch=1)
        return path.read_bytes()


VALID_TENSORS = [tensor_bytes(np.arange(6.0).reshape(2, 3)),
                 tensor_bytes(np.float32([[1.5], [-2.0]])),
                 tensor_bytes(np.float64(3.0))]
VALID_CHECKPOINT = checkpoint_bytes()


def read_or_data_error(blob: bytes) -> None:
    stream = io.BytesIO(blob)
    try:
        # A concatenated stream: keep reading records until the bytes run out.
        while stream.tell() < len(blob):
            assert isinstance(read_tensor(stream), np.ndarray)
    except DataError:
        pass


def load_or_data_error(blob: bytes) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.tegc"
        path.write_bytes(blob)
        try:
            manifest, tensors = load_checkpoint(path)
        except DataError:
            return
    assert isinstance(manifest, dict) and isinstance(tensors, dict)


def mutate(blob: bytes, data) -> bytes:
    index = data.draw(st.integers(0, len(blob) - 1), label="index")
    value = data.draw(st.integers(0, 255).filter(lambda v: v != blob[index]), label="value")
    return blob[:index] + bytes([value]) + blob[index + 1:]


@SETTINGS
@given(st.binary(max_size=96))
def test_read_tensor_on_arbitrary_bytes(blob):
    read_or_data_error(blob)
    read_or_data_error(MAGIC + blob)


@SETTINGS
@given(dims=st.lists(st.one_of(st.integers(0, 4), st.integers(0, 2**64 - 1)), max_size=8),
       flag=st.integers(0, 2), payload=st.binary(max_size=64))
def test_read_tensor_on_arbitrary_dims(dims, flag, payload):
    header = MAGIC + struct.pack("<B", len(dims)) + b"".join(struct.pack("<Q", d) for d in dims)
    read_or_data_error(header + struct.pack("<B", flag) + payload)


@SETTINGS
@given(st.sampled_from(VALID_TENSORS), st.data())
def test_read_tensor_on_single_byte_mutations(blob, data):
    read_or_data_error(mutate(blob, data))


@pytest.mark.parametrize("dims", [(0, 2**63), (2**64 - 1, 0), (0, 2**62, 2**62), (0, 2**61)])
def test_dims_numpy_cannot_hold_are_data_errors(dims):
    header = MAGIC + struct.pack("<B", len(dims)) + b"".join(struct.pack("<Q", d) for d in dims)
    with pytest.raises(DataError, match="larger than numpy can hold"):
        read_tensor(io.BytesIO(header + b"\x01"))


def test_largest_empty_tensor_numpy_can_hold_still_reads():
    dims = (0, 2**60 - 1)  # 8-byte elements: just under intp's maximum
    header = MAGIC + b"\x02" + b"".join(struct.pack("<Q", d) for d in dims)
    assert read_tensor(io.BytesIO(header + b"\x01")).shape == dims


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.binary(max_size=128))
def test_load_checkpoint_on_arbitrary_bytes(blob):
    load_or_data_error(blob)
    load_or_data_error(struct.pack("<I", len(blob)) + blob)


@SETTINGS
@given(st.data())
def test_load_checkpoint_on_single_byte_mutations(data):
    load_or_data_error(mutate(VALID_CHECKPOINT, data))


# ---------------------------------------------------------------------------
# Dataset manifests and skeleton captures

MANIFEST_SPEC = {"sets": [
    {"generator": "templates", "classes": 2, "samples_per_class": 1, "joints": 3,
     "frames": 4, "sigma": 0.05, "seed": 1, "split": "train"},
    {"generator": "templates", "classes": 2, "samples_per_class": 1, "joints": 3,
     "frames": 4, "sigma": 0.05, "seed": 2, "split": "eval"},
]}


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """(dataset directory, bytes of its valid manifest)."""
    labeled, graph = generate_synthetic(MANIFEST_SPEC)
    root = tmp_path_factory.mktemp("dataset")
    return root, write_dataset(root, labeled, graph).read_bytes()


def read_or_data_errors(root: Path, blob: bytes) -> None:
    """Read a manifest with these bytes through both entry points."""
    path = root / "manifest.jsonl"
    path.write_bytes(blob)
    try:
        assert all(isinstance(rec, dict) for rec in read_manifest(path))
        for split in ("train", "eval"):
            for data, label, sample_id in load_split(path, "joint-spatial", split):
                assert isinstance(data, np.ndarray) and isinstance(label, int)
    except DataError:
        pass


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.binary(max_size=160))
def test_manifest_on_arbitrary_bytes(dataset, blob):
    read_or_data_errors(dataset[0], blob)


@SETTINGS
@given(st.data())
def test_manifest_on_single_byte_mutations(dataset, data):
    root, valid = dataset
    read_or_data_errors(root, mutate(valid, data))


def capture_bytes() -> bytes:
    rng = np.random.default_rng(0)
    frames = [[Body("b0", rng.normal(size=(4, 3))), Body("b1", rng.normal(size=(4, 3)))],
              [Body("b0", rng.normal(size=(4, 3)))]]
    return format_skeleton(RawClip(frames, "c")).encode("utf-8")


VALID_CAPTURE = capture_bytes()


def parse_or_parse_error(blob: bytes) -> None:
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError:
        return  # the dataset reader turns this into a DataError naming the file
    try:
        clip = parse_skeleton_file(text, source_id="c")
    except ParseError:
        return
    assert isinstance(clip, RawClip)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(st.binary(max_size=160), st.text(max_size=80).map(str.encode)))
def test_skeleton_on_arbitrary_input(blob):
    parse_or_parse_error(blob)


@SETTINGS
@given(st.data())
def test_skeleton_on_single_byte_mutations(data):
    parse_or_parse_error(mutate(VALID_CAPTURE, data))


@pytest.mark.parametrize("text", [
    "1\n1\nb0\n99999999999999\n0 0 0\n",
    "1\n99999999999999\n",
])
def test_skeleton_huge_counts_are_parse_errors(text):
    with pytest.raises(ParseError, match="file ended"):
        parse_skeleton_file(text, source_id="c")
