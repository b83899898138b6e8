"""Preprocessed dataset storage and the two preprocessing front doors.

A dataset on disk is a directory of per-sample per-modality tensor files
plus `manifest.jsonl`, one JSON object per line:

    {"sample_id": ..., "label": ..., "split": ..., "files": {kind: relpath}}

Input can be a directory of raw `.skeleton` captures (labels taken from the
`A###` action tag in the filename, one split label for the whole directory)
or a JSON description of synthetic sets, e.g.

    {"sets": [
      {"generator": "templates", "classes": 4, "samples_per_class": 32,
       "joints": 5, "frames": 32, "sigma": 0.05, "seed": 7, "split": "train"},
      {"generator": "longrange", "samples_per_class": 32, "joints": 5,
       "frames": 32, "sigma": 0.05, "seed": 8, "split": "eval"}
    ]}
"""
from __future__ import annotations

import json
import logging
import math
import os
import re
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, EmptyClipError
from .graph import SkeletonGraph, chain_graph, ntu_graph
from .modalities import KINDS, all_streams
from .skeleton import (
    MAX_BODIES,
    MOTION_RANGE,
    SkeletonSequence,
    center_and_pad,
    filter_bodies,
    parse_skeleton_file,
    subsample_frames,
)
from .synth import synth_dataset, synth_longrange_dataset
from .tensorio import load_tensor, save_tensor

log = logging.getLogger("tegraph.dataset")

MANIFEST_NAME = "manifest.jsonl"


def _read_utf8(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}")


def label_from_filename(name: str) -> int:
    """Zero-based action label from the A### tag of a capture filename."""
    match = re.search(r"A(\d{3})", name)
    if match is None or match.group(1) == "000":
        raise DataError(f"{name}: no A001-A999 action tag to take the label from")
    return int(match.group(1)) - 1


def preprocess_skeleton_dir(src_dir, fixed_length: int, split: str = "train",
                            lo: float = MOTION_RANGE[0], hi: float = MOTION_RANGE[1],
                            max_bodies: int = MAX_BODIES
                            ) -> tuple[list[tuple[SkeletonSequence, str]], SkeletonGraph]:
    """Parse, filter, subsample, and center every capture under `src_dir`.

    Clips left empty by body filtering are skipped with a log line, matching
    the "reject and note it" contract rather than failing the whole run.
    """
    src_dir = Path(src_dir)
    paths = sorted(src_dir.glob("*.skeleton"))
    if not paths:
        raise DataError(f"{src_dir}: no .skeleton files found")
    graph = ntu_graph()
    out = []
    for path in paths:
        label = label_from_filename(path.name)
        clip = parse_skeleton_file(_read_utf8(path), source_id=path.name)
        try:
            clip = filter_bodies(clip, lo, hi, max_bodies)
        except EmptyClipError as exc:
            log.warning("skipping %s: %s", path.name, exc)
            continue
        clip = subsample_frames(clip, fixed_length)
        seq = center_and_pad(clip, fixed_length, max_bodies=max_bodies, label=label)
        out.append((seq, split))
    if not out:
        raise DataError(f"{src_dir}: every clip was rejected by body filtering")
    return out, graph


def _spec_field(block: dict, where: str, key: str, default, cast, minimum):
    value = block.get(key, default)
    try:
        number = cast(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if isinstance(value, bool) or (isinstance(value, float) and number != value):
        number = None  # true is not a count, and 7.9 frames are not 7
    if number is None or not minimum <= number < math.inf:
        raise ConfigError(f"synthetic spec: {where} field {key!r} = {value!r} is not "
                          f"a finite {cast.__name__} >= {minimum}")
    return number


def generate_synthetic(spec: dict) -> tuple[list[tuple[SkeletonSequence, str]], SkeletonGraph]:
    if not isinstance(spec, dict):
        raise DataError("synthetic spec is not a JSON object")
    sets = spec.get("sets", [spec])
    if not isinstance(sets, list) or not sets:
        raise ConfigError(f"synthetic spec: field 'sets' = {sets!r} is not a non-empty list")
    out: list[tuple[SkeletonSequence, str]] = []
    joints = None
    for n, block in enumerate(sets):
        where = f"set {n}"
        if not isinstance(block, dict):
            raise ConfigError(f"synthetic spec: {where} is not an object")
        kind = block.get("generator", "templates")
        block_joints = _spec_field(block, where, "joints", 5, int, 1)
        if joints is None:
            joints = block_joints
        elif joints != block_joints:
            raise ConfigError("all synthetic sets must agree on the joint count")
        split = str(block.get("split", "train"))
        prefix = str(block.get("prefix", split))
        if prefix in ("", ".", "..") or any(c in prefix for c in "/\\\0"):
            field = "prefix" if "prefix" in block else "split"
            raise ConfigError(f"synthetic spec: {where} {field} {prefix!r} names stream "
                              f"files, so it must be a plain file name")
        frames = _spec_field(block, where, "frames", 32, int, 1)
        sigma = _spec_field(block, where, "sigma", 0.05, float, 0)
        seed = _spec_field(block, where, "seed", 0, int, 0)
        per_class = _spec_field(block, where, "samples_per_class", 32, int, 1)
        if kind == "templates":
            samples = synth_dataset(_spec_field(block, where, "classes", 4, int, 2), per_class,
                                    block_joints, frames, sigma, seed)
        elif kind == "longrange":
            samples = synth_longrange_dataset(per_class, block_joints, frames,
                                              sigma, seed)
        else:
            raise ConfigError(f"unknown synthetic generator {kind!r}")
        for seq in samples:
            seq.source_id = f"{prefix}-{seq.source_id}"
            out.append((seq, split))
    return out, chain_graph(joints, 0)


def write_dataset(out_dir, labeled: list[tuple[SkeletonSequence, str]],
                  graph: SkeletonGraph) -> Path:
    out_dir = Path(out_dir)
    streams_dir = out_dir / "streams"
    streams_dir.mkdir(parents=True, exist_ok=True)
    lines = []
    seen = set()
    for seq, split in labeled:
        if seq.source_id in seen:
            raise DataError(f"duplicate sample id {seq.source_id}")
        seen.add(seq.source_id)
        streams = all_streams(seq, graph)
        files = {}
        for kind in KINDS:
            rel = f"streams/{seq.source_id}.{kind}.tegt"
            save_tensor(out_dir / rel, streams[kind].data)
            files[kind] = rel
        lines.append(json.dumps(
            {"sample_id": seq.source_id, "label": seq.label, "split": split,
             "files": files},
            sort_keys=True,
        ))
    manifest = out_dir / MANIFEST_NAME
    manifest.write_text("\n".join(lines) + "\n")
    return manifest


MANIFEST_FIELDS = ("split", "label", "sample_id", "files")


def _check_record(record, where: str) -> None:
    if not isinstance(record, dict):
        raise DataError(f"{where}: manifest line is not a JSON object")
    missing = [name for name in MANIFEST_FIELDS if name not in record]
    if missing:
        raise DataError(f"{where}: manifest line lacks {', '.join(missing)}")
    label = record["label"]
    if isinstance(label, bool) or not isinstance(label, int):
        raise DataError(f"{where}: label {label!r} is not an integer")
    if label < 0:
        raise DataError(f"{where}: label {label} is negative")
    files = record["files"]
    if not isinstance(files, dict) or not all(isinstance(v, str) for v in files.values()):
        raise DataError(f"{where}: files must map stream kinds to paths")
    for path in files.values():
        if "\0" in path:
            raise DataError(f"{where}: stream path {path!r} holds a NUL byte")
        if os.path.isabs(path) or os.path.normpath(path).split(os.sep)[0] == os.pardir:
            raise DataError(f"{where}: stream path {path!r} leaves the dataset directory")


def read_manifest(manifest_path) -> list[dict]:
    manifest_path = Path(manifest_path)
    if not manifest_path.exists():
        raise DataError(f"{manifest_path}: manifest not found")
    records = []
    for i, line in enumerate(_read_utf8(manifest_path).splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{manifest_path}: line {i}: bad JSON: {exc}")
        _check_record(record, f"{manifest_path}: line {i}")
        records.append(record)
    if not records:
        raise DataError(f"{manifest_path}: empty manifest")
    return records


def load_split(manifest_path, kind: str, split: str) -> list[tuple[np.ndarray, int, str]]:
    """(data, label, sample_id) triples of one modality for one split."""
    if kind not in KINDS:
        raise ConfigError(f"unknown modality kind {kind!r}; choose from {KINDS}")
    manifest_path = Path(manifest_path)
    base = manifest_path.parent
    out = []
    for rec in read_manifest(manifest_path):
        if rec["split"] != split:
            continue
        if kind not in rec["files"]:
            raise DataError(f"sample {rec['sample_id']} has no {kind} stream")
        try:
            data = load_tensor(base / rec["files"][kind])
        except OSError as exc:
            raise DataError(f"sample {rec['sample_id']}: cannot read its {kind} stream: {exc}")
        out.append((data, int(rec["label"]), str(rec["sample_id"])))
    return out
