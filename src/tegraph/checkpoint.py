"""Checkpoint files: one JSON manifest plus concatenated binary tensors.

Layout: u32 little-endian manifest length, manifest bytes (JSON, sorted
keys so identical states serialize to identical bytes), then one tensor
record per manifest entry in order.  Entries cover trainable parameters,
batchnorm running buffers, and (when the trainer passes them) momentum
buffers, each keyed by the owning parameter's identifier.
"""
from __future__ import annotations

import json
import os
import struct
from pathlib import Path

import numpy as np

from . import precision
from .errors import ConfigError, DataError, ShapeError
from .model import ModelConfig, Network
from .tensorio import read_tensor, write_tensor

FORMAT_NAME = "tegraph-checkpoint"
FORMAT_VERSION = 1


def _network_entries(network: Network) -> list[tuple[str, str, np.ndarray]]:
    entries = [(p.identifier, "param", p.value.data) for p in network.parameters()]
    for bn in network.batchnorms():
        for name, buf in bn.buffers():
            entries.append((name, "buffer", buf))
    return entries


def save_checkpoint(path, network: Network, epoch: int,
                    momentum: dict[str, np.ndarray] | None = None,
                    extra: dict | None = None) -> None:
    """Replace `path` atomically with the network's current state."""
    entries = _network_entries(network)
    if momentum is not None:
        for name in sorted(momentum):
            entries.append((name, "momentum", momentum[name]))
    manifest = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "config": network.config.to_dict(),
        "epoch": epoch,
        "extra": extra or {},
        "entries": [
            {"id": name, "kind": kind, "shape": list(arr.shape)}
            for name, kind, arr in entries
        ],
    }
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    # Write a sibling file, make it durable, then rename it over `path`: a
    # crash or kill at any point leaves either the old file or the new one.
    path = Path(path)
    partial = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(partial, "wb") as stream:
            stream.write(struct.pack("<I", len(blob)))
            stream.write(blob)
            for _, _, arr in entries:
                write_tensor(stream, arr)
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def load_checkpoint(path) -> tuple[dict, dict[tuple[str, str], np.ndarray]]:
    """Returns (manifest, {(id, kind): array})."""
    with open(path, "rb") as stream:
        header = stream.read(4)
        if len(header) != 4:
            raise DataError(f"{path}: truncated checkpoint header")
        (length,) = struct.unpack("<I", header)
        # a length past the end of the file is refused before read() allocates it
        left = os.fstat(stream.fileno()).st_size - len(header)
        blob = stream.read(length) if length <= left else b""
        if len(blob) != length:
            raise DataError(f"{path}: truncated checkpoint manifest")
        try:
            manifest = json.loads(blob)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise DataError(f"{path}: bad checkpoint manifest: {exc}")
        if not isinstance(manifest, dict) or manifest.get("format") != FORMAT_NAME:
            raise DataError(f"{path}: not a checkpoint file")
        entries = manifest.get("entries")
        if not isinstance(entries, list):
            raise DataError(f"{path}: checkpoint manifest has no entries list")
        for n, entry in enumerate(entries):
            if not (isinstance(entry, dict) and isinstance(entry.get("id"), str)
                    and isinstance(entry.get("kind"), str)
                    and isinstance(entry.get("shape"), list)):
                raise DataError(f"{path}: checkpoint entry {n} needs a string id and "
                                "kind and a shape list")
        tensors: dict[tuple[str, str], np.ndarray] = {}
        for entry in entries:
            arr = read_tensor(stream)
            if list(arr.shape) != entry["shape"]:
                raise DataError(
                    f"{path}: entry {entry['id']}: payload shape {arr.shape} "
                    f"disagrees with manifest {entry['shape']}"
                )
            tensors[(entry["id"], entry["kind"])] = arr
    return manifest, tensors


def restore_network(network: Network, manifest: dict,
                    tensors: dict[tuple[str, str], np.ndarray]) -> dict[str, np.ndarray]:
    """Load parameter and buffer values into `network`; returns momentum buffers.

    The checkpoint's config must match the network's: loading half a model
    is always a mistake at this scale.
    """
    if manifest["config"] != network.config.to_dict():
        raise ConfigError("checkpoint config does not match the constructed model")
    for p in network.parameters():
        key = (p.identifier, "param")
        if key not in tensors:
            raise ConfigError(f"checkpoint missing parameter {p.identifier}")
        p.assign(tensors[key])
    for bn in network.batchnorms():
        for name, _ in bn.buffers():
            key = (name, "buffer")
            if key not in tensors:
                raise ConfigError(f"checkpoint missing buffer {name}")
            bn.load_buffer(name, tensors[key])
    return {
        name: arr for (name, kind), arr in tensors.items() if kind == "momentum"
    }


def network_from_checkpoint(path) -> tuple[Network, dict, dict[str, np.ndarray]]:
    """Rebuild the saved network, switching the process-global precision to
    the one its parameters were saved in (float32 "train", float64 "verify").
    """
    manifest, tensors = load_checkpoint(path)
    if not isinstance(manifest.get("config"), dict):
        raise DataError(f"{path}: checkpoint manifest has no config object")
    dtypes = {arr.dtype for (_, kind), arr in tensors.items() if kind == "param"}
    if len(dtypes) > 1:
        raise DataError(f"{path}: checkpoint mixes parameter dtypes {sorted(map(str, dtypes))}")
    if dtypes:
        precision.set_mode("train" if dtypes.pop() == np.float32 else "verify")
    try:
        network = Network(ModelConfig.from_dict(manifest["config"]))
    except (KeyError, TypeError, ValueError, OverflowError, ConfigError) as exc:
        raise DataError(f"{path}: bad checkpoint config: {exc!r}")
    try:
        momentum = restore_network(network, manifest, tensors)
    except (ConfigError, ShapeError) as exc:
        # The network was built from the file's own config, so an entry that
        # is missing or misshapen is a fault of the file.
        raise DataError(f"{path}: {exc}")
    return network, manifest, momentum
