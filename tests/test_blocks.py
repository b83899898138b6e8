"""Spatial and temporal convolution blocks against brute-force loops."""
import numpy as np
import pytest

from oracles import sg_oracle, tc_oracle
from tegraph.blocks import (
    ChannelProjection,
    SGBlock,
    TCBlock,
    _spatial_graph,
    sg_forward,
    tc_forward,
    tc_output_length,
)
from tegraph.errors import ConfigError, ShapeError
from tegraph.graph import chain_graph, normalized_partitions
from tegraph.tensor import Tensor, temporal_conv


def make_sg(c_in, c_out, joints, seed=0, center=0):
    parts = normalized_partitions(chain_graph(joints, center))
    return SGBlock(c_in, c_out, parts, "t.sg", seed=seed)


def raw_sg(block, f):
    """The graph conv the spatial stage runs before its bn and ReLU."""
    conv, _ = _spatial_graph(Tensor(f), [w.value for w in block.weights], block.partitions,
                             [m.value for m in block.masks])
    return conv()


def raw_tc(block, f):
    """The temporal conv tc_forward records before its bn and ReLU."""
    return temporal_conv(Tensor(f), block.kernel.value, block.stride, block.pad).data


def test_sg_matches_scalar_loops_on_random_instances():
    rng = np.random.default_rng(0)
    for trial in range(25):
        c_in, c_out = rng.integers(1, 5, size=2)
        joints = int(rng.integers(1, 5))
        frames = int(rng.integers(1, 7))
        block = make_sg(int(c_in), int(c_out), joints, seed=trial,
                        center=int(rng.integers(0, joints)))
        for mask in block.masks:
            mask.assign(rng.normal(size=mask.shape))
        f = rng.normal(size=(c_in, frames, joints))
        expected = sg_oracle([w.value.data for w in block.weights],
                             [m.value.data for m in block.masks],
                             block.partitions, f)
        np.testing.assert_allclose(raw_sg(block, f), expected, rtol=0, atol=1e-10)


def test_sg_identity_configuration():
    block = make_sg(1, 1, 1)
    block.weights[0].assign(np.array([[1.0]]))
    f = np.random.default_rng(1).normal(size=(1, 4, 1))
    np.testing.assert_array_equal(raw_sg(block, f), f)


def test_sg_zero_masks_kill_the_output():
    block = make_sg(2, 3, 4)
    for mask in block.masks:
        mask.assign(np.zeros(mask.shape))
    f = np.random.default_rng(2).normal(size=(2, 5, 4))
    np.testing.assert_array_equal(raw_sg(block, f), 0.0)


def test_sg_is_linear_in_the_features():
    block = make_sg(2, 2, 3)
    rng = np.random.default_rng(3)
    f1 = rng.normal(size=(2, 4, 3))
    f2 = rng.normal(size=(2, 4, 3))
    lhs = raw_sg(block, 2.0 * f1 - 3.0 * f2)
    rhs = 2.0 * raw_sg(block, f1) - 3.0 * raw_sg(block, f2)
    np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12)


def test_sg_mask_scales_its_subset_term():
    block = make_sg(1, 1, 3)
    rng = np.random.default_rng(4)
    f = rng.normal(size=(1, 2, 3))
    base = raw_sg(block, f)
    # doubling subset 1's mask adds exactly one extra copy of its term
    block.weights[0].assign(np.zeros((1, 1)))
    block.weights[2].assign(np.zeros((1, 1)))
    only_one = raw_sg(block, f)
    block.masks[1].assign(2.0 * np.ones((3, 3)))
    np.testing.assert_allclose(raw_sg(block, f), 2.0 * only_one, rtol=0, atol=1e-12)


def test_sg_bn_relu_path_is_nonnegative_and_matches_composition():
    block = make_sg(2, 3, 4)
    f = Tensor(np.random.default_rng(5).normal(size=(2, 6, 4)))
    full = sg_forward(block, f)
    assert np.all(full.data >= 0)
    recomposed = np.maximum(block.bn(Tensor(raw_sg(block, f.data))).data, 0.0)
    np.testing.assert_array_equal(full.data, recomposed)


def test_sg_shape_validation():
    block = make_sg(2, 3, 4)
    with pytest.raises(ShapeError):
        sg_forward(block, Tensor(np.zeros((3, 5, 4))))  # wrong channels
    with pytest.raises(ShapeError):
        sg_forward(block, Tensor(np.zeros((2, 5, 5))))  # wrong joints
    with pytest.raises(ShapeError):
        SGBlock(1, 1, np.zeros((3, 4, 5)), "bad")


def test_joint_permutation_equivariance_of_sg():
    rng = np.random.default_rng(6)
    joints = 5
    perm = rng.permutation(joints)
    p = np.zeros((joints, joints))
    for old, new in enumerate(perm):
        p[new, old] = 1.0
    g = chain_graph(joints, center=2)
    parts = normalized_partitions(g)
    parts_perm = np.stack([p @ parts[k] @ p.T for k in range(3)])
    # identical identifier and seed so both blocks draw identical weights
    a = SGBlock(2, 3, parts, "x.sg", seed=9)
    b = SGBlock(2, 3, parts_perm, "x.sg", seed=9)
    for mask_a, mask_b in zip(a.masks, b.masks):
        dense = rng.normal(size=mask_a.shape)
        mask_a.assign(dense)
        mask_b.assign(p @ dense @ p.T)
    f = rng.normal(size=(2, 4, joints))
    out_a = raw_sg(a, f)
    out_b = raw_sg(b, f @ p.T)
    np.testing.assert_allclose(out_b, out_a @ p.T, rtol=0, atol=1e-9)


# ---------------------------------------------------------------------------
# Temporal convolution


def test_tc_output_length_is_ceil():
    assert tc_output_length(300, 2) == 150
    assert tc_output_length(75, 2) == 38
    assert tc_output_length(1, 2) == 1
    assert tc_output_length(7, 1) == 7


def test_tc_matches_scalar_loops_on_random_instances():
    rng = np.random.default_rng(7)
    for trial in range(25):
        channels = int(rng.integers(1, 5))
        frames = int(rng.integers(1, 8))
        joints = int(rng.integers(1, 4))
        kernel_t = int(rng.choice([1, 3, 9]))
        stride = int(rng.choice([1, 2]))
        block = TCBlock(channels, kernel_t, stride, "t.tc", seed=trial)
        f = rng.normal(size=(channels, frames, joints))
        got = raw_tc(block, f)
        expected = tc_oracle(block.kernel.value.data, f, stride)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-10)


def test_tc_kernel_one_is_a_channel_map():
    block = TCBlock(2, 1, 1, "t.tc", seed=1)
    rng = np.random.default_rng(8)
    f = rng.normal(size=(2, 5, 3))
    got = raw_tc(block, f)
    w = block.kernel.value.data[:, :, 0]
    np.testing.assert_allclose(got, np.einsum("oc,ctj->otj", w, f), rtol=0, atol=1e-12)


def test_tc_interior_of_constant_input_sums_kernel():
    block = TCBlock(1, 3, 1, "t.tc", seed=2)
    f = np.full((1, 6, 2), 2.0)
    got = raw_tc(block, f)
    total = block.kernel.value.data.sum()
    np.testing.assert_allclose(got[0, 1:-1], 2.0 * total, rtol=0, atol=1e-12)


def test_tc_stride_two_output_positions():
    block = TCBlock(1, 1, 2, "t.tc", seed=3)
    block.kernel.assign(np.ones((1, 1, 1)))
    f = np.arange(7.0)[None, :, None]
    got = raw_tc(block, f)
    np.testing.assert_array_equal(got[0, :, 0], [0.0, 2.0, 4.0, 6.0])


def test_tc_validation():
    with pytest.raises(ConfigError, match="odd"):
        TCBlock(2, 4, 1, "t.tc")
    with pytest.raises(ConfigError, match="stride"):
        TCBlock(2, 3, 0, "t.tc")
    block = TCBlock(2, 3, 1, "t.tc")
    with pytest.raises(ShapeError):
        tc_forward(block, Tensor(np.zeros((3, 4, 2))))


def test_channel_projection_matches_strided_1x1():
    rng = np.random.default_rng(9)
    proj = ChannelProjection(3, 5, 2, "t.res", seed=4)
    f = rng.normal(size=(3, 7, 2))
    got = proj(Tensor(f)).data
    w = proj.weight.value.data[:, :, 0]
    np.testing.assert_allclose(got, np.einsum("oc,ctj->otj", w, f[:, ::2]),
                               rtol=0, atol=1e-12)
    assert got.shape == (5, tc_output_length(7, 2), 2)
