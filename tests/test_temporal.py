"""Relevance heads, score normalization, and the temporal graph convolution."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    feature_calculated_oracle,
    feature_learned_oracle,
    softmax_rows_oracle,
    temporal_graph_conv_oracle,
)
from tegraph.errors import ConfigError, ShapeError
from tegraph.temporal import (
    MultiHeadTemporalConv,
    RelevanceHead,
    _calculated_heads,
    build_heads,
    feature_learned,
    temporal_graph_conv,
)
from tegraph.tensor import Tensor, softmax_rows


def calc_head(channels=4, frames=5, joints=3, seed=0, name="h"):
    return RelevanceHead("feature-calculated", channels, frames, joints, name, seed)


def learned_head(channels=4, frames=5, joints=3, seed=0, name="h"):
    return RelevanceHead("feature-learned", channels, frames, joints, name, seed)


def calc_adjacencies(heads, f):
    """The row-stochastic adjacencies feature-calculated `heads` build on f."""
    adjacencies, _ = _calculated_heads(f.shape, [h.w_a.value for h in heads],
                                       [h.w_b.value for h in heads])
    return adjacencies(f)


def calc_adjacency(head, f):
    return calc_adjacencies([head], f)[0]


# ---------------------------------------------------------------------------
# Raw scores


def test_feature_calculated_matches_scalar_oracle():
    rng = np.random.default_rng(0)
    for trial in range(25):
        channels = int(rng.choice([4, 8]))
        frames = int(rng.integers(1, 7))
        joints = int(rng.integers(1, 5))
        head = calc_head(channels, frames, joints, seed=trial)
        f = rng.normal(size=(channels, frames, joints))
        got = calc_adjacency(head, f)
        expected = softmax_rows_oracle(feature_calculated_oracle(head.w_a.value.data,
                                                                 head.w_b.value.data, f))
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-10)


def test_feature_learned_matches_scalar_oracle():
    rng = np.random.default_rng(1)
    for trial in range(25):
        channels = int(rng.integers(1, 5))
        frames = int(rng.integers(1, 7))
        joints = int(rng.integers(1, 5))
        head = learned_head(channels, frames, joints, seed=trial)
        f = rng.normal(size=(channels, frames, joints))
        got = feature_learned(head, Tensor(f)).data
        expected = feature_learned_oracle(head.c_conv.value.data,
                                          head.j_conv.value.data,
                                          head.t_conv.value.data, f)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-10)


def test_zero_features_give_uniform_calculated_adjacency():
    # zero scores in every row: the row softmax spreads each frame evenly
    head = calc_head()
    got = calc_adjacency(head, np.zeros((4, 5, 3)))
    np.testing.assert_array_equal(got, 0.2)


def test_calculated_scores_are_conjugate_permutation_equivariant():
    # so is their row softmax, the adjacency
    rng = np.random.default_rng(2)
    head = calc_head(frames=6)
    f = rng.normal(size=(4, 6, 3))
    perm = rng.permutation(6)
    r = calc_adjacency(head, f)
    r_perm = calc_adjacency(head, f[:, perm, :])
    np.testing.assert_allclose(r_perm, r[np.ix_(perm, perm)], rtol=0, atol=1e-12)


def test_learned_scores_are_anchored_to_absolute_positions():
    # permuting time must NOT conjugate the scores: the T x T map is fixed
    rng = np.random.default_rng(3)
    head = learned_head(frames=6)
    f = rng.normal(size=(4, 6, 3))
    perm = np.roll(np.arange(6), 1)
    r = feature_learned(head, Tensor(f)).data
    r_perm = feature_learned(head, Tensor(f[:, perm, :])).data
    assert np.abs(r_perm - r[np.ix_(perm, perm)]).max() > 1e-6


def test_head_validation():
    with pytest.raises(ConfigError, match="kind"):
        RelevanceHead("nope", 4, 5, 3, "h")
    with pytest.raises(ConfigError, match="divisible"):
        calc_head(channels=6)
    mhc = MultiHeadTemporalConv(1, "feature-learned", 4, 5, 3, "m")
    with pytest.raises(ShapeError, match="head built for 4"):
        build_heads(mhc, Tensor(np.zeros((5, 5, 3))))  # wrong channel count
    calculated = MultiHeadTemporalConv(1, "feature-calculated", 4, 5, 3, "m")
    with pytest.raises(ConfigError, match="only inside blocks.spatial_tgraph_stage"):
        build_heads(calculated, Tensor(np.zeros((4, 5, 3))))
    bound = learned_head(frames=5, joints=3)
    with pytest.raises(ShapeError, match="bound"):
        feature_learned(bound, Tensor(np.zeros((4, 6, 3))))


# ---------------------------------------------------------------------------
# Normalization


def test_normalize_hand_example():
    raw = Tensor(np.array([[np.log(2.0), 0.0, 0.0], [0.0, 0.0, 0.0],
                           [5.0, 5.0, 5.0]]))
    got = softmax_rows(raw).data
    np.testing.assert_allclose(got[0], [0.5, 0.25, 0.25], rtol=0, atol=1e-15)
    np.testing.assert_allclose(got[1], [1 / 3] * 3, rtol=0, atol=1e-15)
    np.testing.assert_allclose(got[2], [1 / 3] * 3, rtol=0, atol=1e-15)


def test_normalize_matches_loop_oracle():
    rng = np.random.default_rng(5)
    m = rng.normal(scale=4.0, size=(6, 6))
    np.testing.assert_allclose(softmax_rows(Tensor(m)).data, softmax_rows_oracle(m),
                               rtol=1e-13, atol=0)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2 ** 32 - 1),
       st.floats(-30, 30, allow_nan=False))
def test_normalize_row_shift_invariance(frames, seed, shift):
    rng = np.random.default_rng(seed)
    m = rng.normal(scale=3.0, size=(frames, frames))
    base = softmax_rows(Tensor(m)).data
    # a per-row constant, such as a row bias, cannot move the adjacency
    shifted = softmax_rows(Tensor(m + shift * rng.uniform(-1, 1, size=(frames, 1)))).data
    np.testing.assert_allclose(shifted, base, rtol=0, atol=1e-12)
    np.testing.assert_allclose(base.sum(axis=1), 1.0, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# Multi-head graph convolution


def make_mhc(heads=2, kind="feature-calculated", channels=4, frames=5, joints=3,
             seed=0):
    return MultiHeadTemporalConv(heads, kind, channels, frames, joints, "t.tgc", seed)


def built_adjacencies(mhc, f):
    """mhc's adjacencies on the feature map f, as Tensors."""
    if mhc.heads[0].kind == "feature-learned":
        return build_heads(mhc, Tensor(f))
    return [Tensor(a) for a in calc_adjacencies(mhc.heads, f)]


def test_output_maps_start_at_zero_so_the_stage_is_silent():
    for kind in ("feature-calculated", "feature-learned"):
        mhc = make_mhc(kind=kind)
        f = np.random.default_rng(6).normal(size=(4, 5, 3))
        out = temporal_graph_conv(mhc, Tensor(f), built_adjacencies(mhc, f))
        np.testing.assert_array_equal(out.data, 0.0)


def test_built_adjacencies_are_row_stochastic():
    for kind in ("feature-calculated", "feature-learned"):
        mhc = make_mhc(kind=kind, heads=3)
        adjacencies = built_adjacencies(mhc, np.random.default_rng(7).normal(size=(4, 5, 3)))
        assert len(adjacencies) == 3
        for adj in adjacencies:
            assert adj.shape == (5, 5)
            assert np.all(adj.data > 0)
            np.testing.assert_allclose(adj.data.sum(axis=1), 1.0, rtol=0, atol=1e-12)


def test_graph_conv_matches_double_sum_oracle():
    rng = np.random.default_rng(8)
    for trial in range(25):
        channels = int(rng.integers(1, 5))
        frames = int(rng.integers(1, 7))
        joints = int(rng.integers(1, 5))
        heads = int(rng.integers(1, 4))
        mhc = MultiHeadTemporalConv(heads, "feature-learned", channels, frames,
                                    joints, "t.tgc", seed=trial)
        maps = [rng.normal(size=(channels, channels)) for _ in range(heads)]
        for w, dense in zip(mhc.output_maps, maps):
            w.assign(dense)
        adjacencies = [rng.uniform(0.1, 1.0, size=(frames, frames)) for _ in range(heads)]
        adjacencies = [a / a.sum(axis=1, keepdims=True) for a in adjacencies]
        f = rng.normal(size=(channels, frames, joints))
        got = temporal_graph_conv(mhc, Tensor(f), [Tensor(a) for a in adjacencies]).data
        expected = temporal_graph_conv_oracle(adjacencies, maps, f)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-10)


def test_identity_adjacency_reduces_to_channel_maps():
    rng = np.random.default_rng(9)
    mhc = make_mhc(heads=1)
    w = rng.normal(size=(4, 4))
    mhc.output_maps[0].assign(w)
    f = rng.normal(size=(4, 5, 3))
    got = temporal_graph_conv(mhc, Tensor(f), [Tensor(np.eye(5))]).data
    np.testing.assert_allclose(got, np.einsum("oc,ctj->otj", w, f), rtol=0, atol=1e-12)


def test_uniform_adjacency_averages_over_time():
    mhc = make_mhc(heads=1)
    mhc.output_maps[0].assign(np.eye(4))
    rng = np.random.default_rng(10)
    f = rng.normal(size=(4, 5, 3))
    uniform = np.full((5, 5), 0.2)
    got = temporal_graph_conv(mhc, Tensor(f), [Tensor(uniform)]).data
    np.testing.assert_allclose(got, np.broadcast_to(f.mean(axis=1, keepdims=True),
                                                    f.shape), rtol=0, atol=1e-12)


def test_row_stochastic_mixing_stays_in_the_temporal_convex_hull():
    rng = np.random.default_rng(11)
    mhc = make_mhc(heads=1)
    mhc.output_maps[0].assign(np.eye(4))
    f = rng.normal(size=(4, 5, 3))
    adj = rng.uniform(0.0, 1.0, size=(5, 5)) + 1e-9
    adj /= adj.sum(axis=1, keepdims=True)
    got = temporal_graph_conv(mhc, Tensor(f), [Tensor(adj)]).data
    lo = f.min(axis=1, keepdims=True) - 1e-12
    hi = f.max(axis=1, keepdims=True) + 1e-12
    assert np.all(got >= lo) and np.all(got <= hi)


def test_time_constant_features_are_preserved_by_mixing():
    mhc = make_mhc(heads=1)
    mhc.output_maps[0].assign(np.eye(4))
    frame = np.random.default_rng(12).normal(size=(4, 1, 3))
    f = np.repeat(frame, 5, axis=1)
    got = temporal_graph_conv(mhc, Tensor(f), built_adjacencies(mhc, f)).data
    np.testing.assert_allclose(got, f, rtol=0, atol=1e-12)


def test_multi_head_validation():
    with pytest.raises(ConfigError, match="head"):
        make_mhc(heads=0)
    mhc = make_mhc(heads=2, kind="feature-learned")
    f = Tensor(np.zeros((4, 5, 3)))
    with pytest.raises(ShapeError, match="adjacencies"):
        temporal_graph_conv(mhc, f, build_heads(mhc, f)[:1])
    with pytest.raises(ShapeError, match="channels"):
        temporal_graph_conv(mhc, Tensor(np.zeros((5, 5, 3))), build_heads(mhc, f))
    with pytest.raises(ShapeError, match="match T"):
        temporal_graph_conv(mhc, f, [Tensor(np.eye(4)), Tensor(np.eye(4))])


def test_head_parameters_are_registered():
    calc = make_mhc(heads=2, kind="feature-calculated")
    assert len(calc.parameters()) == 2 * 2 + 2  # wa/wb per head + output maps
    learned = make_mhc(heads=2, kind="feature-learned")
    assert len(learned.parameters()) == 2 * 3 + 2  # c/j/t convs per head + output maps
    head = learned.heads[0]
    assert head.parameters() == [head.c_conv, head.j_conv, head.t_conv]
