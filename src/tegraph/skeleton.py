"""Raw capture parsing and the clip preprocessing pipeline.

The text format handled here is the common motion-capture layout: a frame
count, then per frame a body count, per body one tracking-info line (first
field is the body id), a joint count, and one line per joint whose first
three fields are the x y z camera coordinates in meters.

Preprocessing order used by the dataset driver:

    parse -> filter_bodies -> subsample_frames (only if too long)
          -> center_and_pad -> modality derivation

All functions are pure per-clip transforms; nothing here touches the
autodiff machinery, coordinates stay float64 numpy throughout.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, EmptyClipError, ParseError

SPINE_JOINT = 1  # mid-spine index in the 25-joint order; the centering anchor
MAX_BODIES = 2
MOTION_RANGE = (0.1, 2.0)


@dataclass
class Body:
    body_id: str
    joints: np.ndarray  # (J, 3) float64


@dataclass
class RawClip:
    frames: list[list[Body]]
    source_id: str = ""

    def __len__(self) -> int:
        return len(self.frames)

    def num_joints(self) -> int:
        for frame in self.frames:
            for body in frame:
                return body.joints.shape[0]
        raise EmptyClipError(f"{self.source_id or 'clip'}: no bodies in any frame")


@dataclass
class SkeletonSequence:
    """Preprocessed clip: data shaped (C=3, T, J, M), zero-padded."""

    data: np.ndarray
    label: int
    source_id: str = ""


# ---------------------------------------------------------------------------
# Parsing


def parse_skeleton_file(text: str, expected_joints: int | None = None,
                        source_id: str = "") -> RawClip:
    lines = text.splitlines()
    pos = 0

    def at_end() -> bool:
        nonlocal pos
        while pos < len(lines) and not lines[pos].strip():
            pos += 1
        return pos >= len(lines)

    def next_line(what: str) -> tuple[str, int]:
        nonlocal pos
        if at_end():
            raise ParseError(f"{source_id}: file ended while reading {what}")
        pos += 1
        return lines[pos - 1], pos

    def read_count(what: str) -> int:
        line, lineno = next_line(what)
        token = line.split()[0]
        try:
            count = int(token)
        except ValueError:
            raise ParseError(f"{source_id}: line {lineno}: expected integer {what}, got {token!r}")
        if count < 0:
            raise ParseError(f"{source_id}: line {lineno}: negative {what} {count}")
        return count

    frame_count = read_count("frame count")
    frames: list[list[Body]] = []
    locked_joints = expected_joints
    for f in range(frame_count):
        if at_end():
            raise ParseError(
                f"{source_id}: declared {frame_count} frames but file ended after {f}"
            )
        body_count = read_count(f"body count of frame {f}")
        bodies: list[Body] = []
        for b in range(body_count):
            info, _ = next_line(f"body info of frame {f}")
            body_id = info.split()[0]
            joint_count = read_count(f"joint count of frame {f} body {b}")
            if locked_joints is None:
                locked_joints = joint_count
            elif joint_count != locked_joints:
                raise ParseError(
                    f"{source_id}: frame {f} body {b} has {joint_count} joints, "
                    f"expected {locked_joints}"
                )
            if joint_count > len(lines) - pos:
                raise ParseError(f"{source_id}: file ended while reading the {joint_count} "
                                 f"joints of frame {f} body {b}")
            joints = np.zeros((joint_count, 3), dtype=np.float64)
            for j in range(joint_count):
                line, lineno = next_line(f"joint {j} of frame {f} body {b}")
                fields = line.split()
                if len(fields) < 3:
                    raise ParseError(
                        f"{source_id}: line {lineno}: joint line has {len(fields)} "
                        "fields, need at least x y z"
                    )
                try:
                    joints[j] = [float(fields[0]), float(fields[1]), float(fields[2])]
                except ValueError:
                    raise ParseError(f"{source_id}: line {lineno}: non-numeric coordinate")
            if not np.all(np.isfinite(joints)):
                raise ParseError(f"{source_id}: frame {f} body {b}: non-finite coordinate")
            bodies.append(Body(body_id, joints))
        frames.append(bodies)
    if not at_end():
        raise ParseError(f"{source_id}: line {pos + 1}: trailing content after last frame")
    return RawClip(frames, source_id)


# ---------------------------------------------------------------------------
# Body selection


def body_motion_value(track: np.ndarray) -> float:
    """Sum over joints and coordinate axes of the temporal population variance.

    `track` is (T, J, 3) for the frames where the body is present.  A still
    body scores 0; one frame scores 0 (population variance, no T-1 blowup).
    """
    track = np.asarray(track, dtype=np.float64)
    if track.ndim != 3 or track.shape[0] < 1:
        raise DataError(f"motion value needs a (T, J, 3) track, got {track.shape}")
    return float(track.var(axis=0).sum())


def _tracks(clip: RawClip) -> dict[str, list[tuple[int, np.ndarray]]]:
    tracks: dict[str, list[tuple[int, np.ndarray]]] = {}
    for t, frame in enumerate(clip.frames):
        for body in frame:
            tracks.setdefault(body.body_id, []).append((t, body.joints))
    return tracks


def body_motions(clip: RawClip) -> dict[str, float]:
    """Motion value per body id, over the frames where that body appears."""
    return {
        body_id: body_motion_value(np.stack([joints for _, joints in entries]))
        for body_id, entries in _tracks(clip).items()
    }


def rank_bodies(clip: RawClip) -> list[str]:
    """Body ids by decreasing motion; ties broken by first appearance."""
    tracks = _tracks(clip)
    motions = body_motions(clip)
    first_seen = {body_id: entries[0][0] for body_id, entries in tracks.items()}
    return sorted(motions, key=lambda b: (-motions[b], first_seen[b], b))


def _check_max_bodies(max_bodies: int) -> None:
    if max_bodies < 1:
        raise ConfigError(f"body count must be at least 1, got {max_bodies}")


def filter_bodies(clip: RawClip, lo: float = MOTION_RANGE[0], hi: float = MOTION_RANGE[1],
                  max_bodies: int = MAX_BODIES) -> RawClip:
    """Drop implausible bodies by motion value, then cap the body count.

    Bodies whose motion value falls outside [lo, hi] are removed (tracking
    ghosts are near-still, jitter explosions are wildly fast).  Of the
    survivors the `max_bodies` with highest motion are kept.  Frames left
    with no bodies are dropped; a clip with nothing left raises.
    """
    if not lo < hi:
        raise DataError(f"motion range is empty: [{lo}, {hi}]")
    _check_max_bodies(max_bodies)
    motions = body_motions(clip)
    keep = {b for b, m in motions.items() if lo <= m <= hi}
    if len(keep) > max_bodies:
        keep = set([b for b in rank_bodies(clip) if b in keep][:max_bodies])
    frames = []
    for frame in clip.frames:
        bodies = [body for body in frame if body.body_id in keep]
        if bodies:
            frames.append(bodies)
    if not frames:
        raise EmptyClipError(
            f"{clip.source_id or 'clip'}: no bodies with motion in [{lo}, {hi}]"
        )
    return RawClip(frames, clip.source_id)


# ---------------------------------------------------------------------------
# Fixed-length tensor assembly


def subsample_frames(clip: RawClip, target: int) -> RawClip:
    """Uniformly thin a too-long clip down to `target` frames."""
    if target < 1:
        raise DataError("target length must be positive")
    length = len(clip.frames)
    if length <= target:
        return clip
    indices = (np.arange(target, dtype=np.int64) * length) // target
    return RawClip([clip.frames[i] for i in indices], clip.source_id)


def center_and_pad(clip: RawClip, fixed_length: int, spine_joint: int = SPINE_JOINT,
                   max_bodies: int = MAX_BODIES, label: int = 0) -> SkeletonSequence:
    """Translate by the primary body's first-frame spine and pad to length.

    The primary body is the one with the highest motion value; every joint of
    every body in every frame is shifted by minus the spine-joint coordinates
    of the primary body in its first visible frame (the clip's first frame
    whenever the primary is tracked from the start).  Trailing frames and
    absent body slots are exactly zero.  Body slots are ordered by decreasing
    motion, so slot 0 is always the primary.
    """
    _check_max_bodies(max_bodies)
    length = len(clip.frames)
    if length == 0:
        raise EmptyClipError(f"{clip.source_id or 'clip'}: empty clip")
    if length > fixed_length:
        raise DataError(
            f"{clip.source_id or 'clip'}: {length} frames exceed fixed length "
            f"{fixed_length}; subsample first"
        )
    num_joints = clip.num_joints()
    if not 0 <= spine_joint < num_joints:
        raise DataError(f"spine joint {spine_joint} out of range for {num_joints} joints")

    slots = rank_bodies(clip)[:max_bodies]
    slot_of = {body_id: i for i, body_id in enumerate(slots)}
    primary = slots[0]
    reference = None
    for frame in clip.frames:
        for body in frame:
            if body.body_id == primary:
                reference = body.joints[spine_joint].copy()
                break
        if reference is not None:
            break

    data = np.zeros((3, fixed_length, num_joints, max_bodies), dtype=np.float64)
    for t, frame in enumerate(clip.frames):
        for body in frame:
            slot = slot_of.get(body.body_id)
            if slot is None:
                continue
            data[:, t, :, slot] = (body.joints - reference).T
    return SkeletonSequence(data, label, clip.source_id)
