"""Capture parsing, body selection, and the fixed-length assembly contract."""
import numpy as np
import pytest

from oracles import format_skeleton
from tegraph.errors import ConfigError, DataError, EmptyClipError, ParseError
from tegraph.skeleton import (
    Body,
    RawClip,
    body_motion_value,
    body_motions,
    center_and_pad,
    filter_bodies,
    parse_skeleton_file,
    rank_bodies,
    subsample_frames,
)

TWO_FRAME_CLIP = """2
1
77 0 0 0 0 0 0 0 0 0
2
1.0 2.0 3.0 0 0 0 0 0 0 0 0
4.0 5.0 6.0 0 0 0 0 0 0 0 0
1
77 0 0 0 0 0 0 0 0 0
2
1.5 2.0 3.0 0 0 0 0 0 0 0 0
4.0 5.5 6.0 0 0 0 0 0 0 0 0
"""


def make_clip(tracks, source_id="fixture"):
    """tracks: {body_id: {frame: (J, 3) array}} -> RawClip."""
    frame_count = 1 + max(t for entries in tracks.values() for t in entries)
    frames = []
    for t in range(frame_count):
        bodies = [
            Body(body_id, np.asarray(entries[t], dtype=np.float64))
            for body_id, entries in tracks.items()
            if t in entries
        ]
        frames.append(bodies)
    return RawClip(frames, source_id)


def still_track(frames, joints, value=0.0):
    return {t: np.full((joints, 3), value) for t in range(frames)}


# ---------------------------------------------------------------------------
# Parsing


def test_parse_two_frame_fixture():
    clip = parse_skeleton_file(TWO_FRAME_CLIP, source_id="fix")
    assert len(clip) == 2
    assert clip.num_joints() == 2
    assert clip.frames[0][0].body_id == "77"
    np.testing.assert_array_equal(clip.frames[0][0].joints,
                                  [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    np.testing.assert_array_equal(clip.frames[1][0].joints,
                                  [[1.5, 2.0, 3.0], [4.0, 5.5, 6.0]])


def test_parse_tolerates_blank_lines():
    padded = TWO_FRAME_CLIP.replace("\n2\n", "\n\n2\n\n")
    clip = parse_skeleton_file(padded)
    assert len(clip) == 2


def test_parse_missing_frames_is_an_error():
    truncated = "\n".join(TWO_FRAME_CLIP.splitlines()[:6]) + "\n"
    with pytest.raises(ParseError, match="ended"):
        parse_skeleton_file(truncated, source_id="fix")


def test_parse_inconsistent_joint_count():
    lines = TWO_FRAME_CLIP.splitlines()
    lines[8] = "3"  # second frame suddenly claims three joints
    with pytest.raises(ParseError, match="expected"):
        parse_skeleton_file("\n".join(lines))


def test_parse_enforces_expected_joints():
    with pytest.raises(ParseError, match="expected 25"):
        parse_skeleton_file(TWO_FRAME_CLIP, expected_joints=25)


def test_parse_rejects_bad_coordinates():
    broken = TWO_FRAME_CLIP.replace("1.0 2.0 3.0", "1.0 huh 3.0")
    with pytest.raises(ParseError, match="non-numeric"):
        parse_skeleton_file(broken)
    short = TWO_FRAME_CLIP.replace("1.0 2.0 3.0 0 0 0 0 0 0 0 0", "1.0 2.0")
    with pytest.raises(ParseError, match="fields"):
        parse_skeleton_file(short)
    inf = TWO_FRAME_CLIP.replace("1.0", "inf", 1)
    with pytest.raises(ParseError, match="non-finite"):
        parse_skeleton_file(inf)


def test_parse_rejects_negative_counts():
    with pytest.raises(ParseError, match="line 1: negative frame count -3"):
        parse_skeleton_file("-3\n", source_id="fix")
    lines = TWO_FRAME_CLIP.splitlines()
    lines[1] = "-1"  # first frame claims a negative number of bodies
    with pytest.raises(ParseError, match="line 2: negative body count of frame 0"):
        parse_skeleton_file("\n".join(lines))
    lines = TWO_FRAME_CLIP.splitlines()
    lines[3] = "-2"
    with pytest.raises(ParseError, match="negative joint count of frame 0 body 0"):
        parse_skeleton_file("\n".join(lines))


def test_parse_zero_frames_is_an_empty_clip():
    assert len(parse_skeleton_file("0\n")) == 0


def test_parse_rejects_trailing_content():
    with pytest.raises(ParseError, match="trailing"):
        parse_skeleton_file(TWO_FRAME_CLIP + "0 0 0\n")


def test_format_parse_round_trip_is_bit_exact():
    rng = np.random.default_rng(6)
    tracks = {
        "a": {t: rng.normal(size=(4, 3)) for t in range(3)},
        "b": {t: rng.normal(size=(4, 3)) for t in (1, 2)},
    }
    clip = make_clip(tracks)
    back = parse_skeleton_file(format_skeleton(clip))
    assert len(back) == len(clip)
    for f1, f2 in zip(clip.frames, back.frames):
        assert [b.body_id for b in f1] == [b.body_id for b in f2]
        for b1, b2 in zip(f1, f2):
            np.testing.assert_array_equal(b1.joints, b2.joints)


# ---------------------------------------------------------------------------
# Motion values and body selection


def test_still_body_has_zero_motion():
    track = np.full((5, 3, 3), 2.5)
    assert body_motion_value(track) == 0.0


def test_single_frame_has_zero_motion():
    assert body_motion_value(np.ones((1, 4, 3))) == 0.0


def test_motion_value_hand_example():
    # one joint moving 0 -> 2 on x: population variance over 2 frames is 1
    track = np.zeros((2, 1, 3))
    track[1, 0, 0] = 2.0
    assert body_motion_value(track) == pytest.approx(1.0, rel=0, abs=1e-15)


def test_motion_value_matches_two_pass_loop():
    rng = np.random.default_rng(3)
    track = rng.normal(size=(6, 4, 3))
    total = 0.0
    for j in range(4):
        for axis in range(3):
            series = track[:, j, axis]
            mean = sum(series) / len(series)
            total += sum((v - mean) ** 2 for v in series) / len(series)
    assert body_motion_value(track) == pytest.approx(total, rel=1e-12)


def test_motion_value_rejects_bad_shapes():
    with pytest.raises(DataError):
        body_motion_value(np.zeros((4, 3)))


def test_body_motions_cover_only_visible_frames():
    moving = {0: np.zeros((1, 3)), 1: np.full((1, 3), 1.0)}
    late = {1: np.zeros((1, 3))}  # one frame only
    clip = make_clip({"m": moving, "l": late})
    motions = body_motions(clip)
    assert motions["l"] == 0.0
    assert motions["m"] == pytest.approx(0.75, rel=0, abs=1e-15)  # 3 axes * 0.25


def test_rank_orders_by_motion_then_first_seen():
    fast = {t: np.array([[t * 1.0, 0, 0]]) for t in range(3)}
    slow = {t: np.array([[t * 0.1, 0, 0]]) for t in range(3)}
    clip = make_clip({"slow": slow, "fast": fast})
    assert rank_bodies(clip) == ["fast", "slow"]
    # equal motion: the body seen first wins
    tie_clip = make_clip({"b": {1: np.zeros((1, 3))}, "a": {0: np.zeros((1, 3))}})
    assert rank_bodies(tie_clip) == ["a", "b"]


def test_filter_drops_still_ghost_keeps_mover():
    mover = {t: np.array([[0.4 * t, 0, 0]]) for t in range(4)}  # motion ~0.25
    ghost = still_track(4, 1)
    clip = make_clip({"ghost": ghost, "real": mover})
    kept = filter_bodies(clip, 0.1, 2.0)
    ids = {b.body_id for frame in kept.frames for b in frame}
    assert ids == {"real"}


def test_filter_drops_jitter_explosion():
    wild = {t: np.array([[50.0 * t, 0, 0]]) for t in range(4)}
    calm = {t: np.array([[0.4 * t, 0, 0]]) for t in range(4)}
    clip = make_clip({"wild": wild, "calm": calm})
    ids = {b.body_id for frame in filter_bodies(clip).frames for b in frame}
    assert ids == {"calm"}


def test_filter_caps_survivors_by_motion_rank():
    def mover(speed):
        return {t: np.array([[speed * t, 0, 0]]) for t in range(4)}

    clip = make_clip({"a": mover(0.4), "b": mover(0.5), "c": mover(0.6)})
    kept = filter_bodies(clip, 0.1, 2.0, max_bodies=2)
    ids = {b.body_id for frame in kept.frames for b in frame}
    assert ids == {"b", "c"}


def test_filter_drops_frames_left_empty():
    mover = {t: np.array([[0.4 * t, 0, 0]]) for t in range(3)}
    ghost_only_late = still_track(5, 1)
    clip = make_clip({"m": mover, "g": ghost_only_late})
    kept = filter_bodies(clip)
    assert len(kept) == 3  # frames 3 and 4 held only the ghost


def test_filter_with_nothing_left_raises():
    clip = make_clip({"g": still_track(3, 2)})
    with pytest.raises(EmptyClipError):
        filter_bodies(clip)
    with pytest.raises(DataError):
        filter_bodies(clip, 2.0, 0.1)


# ---------------------------------------------------------------------------
# Subsampling and assembly


def test_subsample_indices_are_evenly_spread():
    frames = [[Body("x", np.full((1, 3), float(t)))] for t in range(10)]
    clip = RawClip(frames)
    thin = subsample_frames(clip, 4)
    picked = [int(f[0].joints[0, 0]) for f in thin.frames]
    assert picked == [0, 2, 5, 7]


def test_subsample_leaves_short_clips_untouched():
    clip = make_clip({"x": still_track(3, 1)})
    assert subsample_frames(clip, 5) is clip
    with pytest.raises(DataError):
        subsample_frames(clip, 0)


def test_center_and_pad_shifts_by_first_frame_spine():
    joints0 = np.array([[1.0, 1.0, 1.0], [2.0, 3.0, 4.0]])
    joints1 = joints0 + 0.5
    clip = make_clip({"b": {0: joints0, 1: joints1}})
    seq = center_and_pad(clip, fixed_length=4, spine_joint=1, max_bodies=1)
    assert seq.data.shape == (3, 4, 2, 1)
    # the spine joint lands exactly at the origin in frame 0
    np.testing.assert_array_equal(seq.data[:, 0, 1, 0], 0.0)
    np.testing.assert_array_equal(seq.data[:, 0, 0, 0], joints0[0] - joints0[1])
    np.testing.assert_array_equal(seq.data[:, 1, 1, 0], 0.5)
    # trailing frames stay exactly zero
    np.testing.assert_array_equal(seq.data[:, 2:], 0.0)


def test_center_reference_is_primary_first_visible_frame():
    still = still_track(3, 2, value=9.0)
    mover = {
        1: np.array([[0.0, 0.0, 0.0], [4.0, 4.0, 4.0]]),
        2: np.array([[2.0, 0.0, 0.0], [6.0, 4.0, 4.0]]),
    }
    clip = make_clip({"still": still, "mover": mover})
    seq = center_and_pad(clip, fixed_length=3, spine_joint=1, max_bodies=2)
    # the mover out-scores the still body, so its frame-1 spine anchors everyone
    np.testing.assert_array_equal(seq.data[:, 1, 1, 0], 0.0)
    np.testing.assert_array_equal(seq.data[:, 0, 0, 1], 9.0 - 4.0)
    # frame 0 has no mover: slot 0 stays zero there
    np.testing.assert_array_equal(seq.data[:, 0, :, 0], 0.0)


def test_center_and_pad_slots_by_motion_and_ignores_overflow_bodies():
    def mover(speed):
        return {t: np.full((1, 3), speed * t) for t in range(2)}

    clip = make_clip({"slow": mover(0.1), "fast": mover(1.0), "mid": mover(0.5)})
    seq = center_and_pad(clip, fixed_length=2, spine_joint=0, max_bodies=2)
    # slot 0 = fast (reference body, so exactly zero at frame 0)
    np.testing.assert_array_equal(seq.data[:, 0, 0, 0], 0.0)
    np.testing.assert_array_equal(seq.data[:, 1, 0, 0], 1.0)
    np.testing.assert_array_equal(seq.data[:, 1, 0, 1], 0.5)  # mid, not slow


@pytest.mark.parametrize("max_bodies", [-1, 0])
def test_body_count_below_one_is_config_error(max_bodies):
    mover = {t: np.array([[0.4 * t, 0, 0]]) for t in range(2)}
    clip = make_clip({"a": mover, "b": still_track(2, 1)})
    with pytest.raises(ConfigError, match=f"at least 1, got {max_bodies}"):
        filter_bodies(clip, 0.0, 10.0, max_bodies=max_bodies)
    with pytest.raises(ConfigError, match=f"at least 1, got {max_bodies}"):
        center_and_pad(clip, fixed_length=2, spine_joint=0, max_bodies=max_bodies)


def test_center_and_pad_validation():
    clip = make_clip({"b": still_track(5, 2)})
    with pytest.raises(DataError, match="subsample"):
        center_and_pad(clip, fixed_length=3, spine_joint=0)
    with pytest.raises(DataError, match="spine"):
        center_and_pad(clip, fixed_length=8, spine_joint=7)
    with pytest.raises(EmptyClipError):
        center_and_pad(RawClip([]), fixed_length=3)


def test_pipeline_is_translation_invariant_bit_exactly():
    # coordinates and offset live on a dyadic grid, so the subtraction in the
    # centering step is exact and the invariance holds bit for bit
    rng = np.random.default_rng(12)
    grid = rng.integers(-(2 ** 10), 2 ** 10, size=(6, 3, 3)) / 2.0 ** 8
    tracks = {"m": {t: grid[t] + np.array([0.3 * t, 0, 0]) for t in range(6)}}
    # snap the motion component to the grid too
    tracks = {
        "m": {t: np.round(v * 2.0 ** 8) / 2.0 ** 8 for t, v in tracks["m"].items()}
    }
    offset = np.array([3.25, -17.5, 0.125])

    def run(shift):
        clip = make_clip({
            "m": {t: v + shift for t, v in tracks["m"].items()},
            "ghost": still_track(6, 3),
        })
        clip = filter_bodies(clip, 0.001, 1e6, max_bodies=1)
        clip = subsample_frames(clip, 4)
        return center_and_pad(clip, fixed_length=5, spine_joint=1, max_bodies=1)

    base = run(np.zeros(3))
    shifted = run(offset)
    assert np.array_equal(base.data, shifted.data)
