"""Backbone blocks: spatial graph convolution and temporal convolution.

Feature maps are (C, T, J).  The spatial block mixes joints through the
three fixed normalized partition matrices, each gated elementwise by a
learnable mask, with a per-subset 1x1 channel map:

    out = sum_k  W_k @ f @ (P_k * M_k)^T

The gates P_k * M_k are formed inside `_spatial_graph`, the arithmetic of
the graph conv, whose backward hands mask k its gradient dA_k * P_k.  It
is no record of its own: `_spatial_stage` runs it, forward and backward,
inside the three spatial-stage records, and hands the input and mask
gradients to their cells as they are (see "Handover" in tensor.py).

The temporal block is a K_t x 1 convolution along T with channel mixing,
symmetric zero padding, output length ceil(T / stride).  Both blocks carry
their own batchnorm and ReLU: the whole spatial stage conv -> bn -> relu is
the one `spatial_graph_bn_relu` record, while `tc_forward` records the
temporal conv, the batchnorm and the ReLU one op each.  A residual unit's
projection skip path is a one-tap `temporal_conv`.  Where the temporal
block reads the spatial output s directly (a tc-mode layer),
`spatial_temporal_stage` records both blocks as one record.  Where a
layer's feature-calculated heads and their temporal graph mix read s (a
tgraph or both layer), `spatial_tgraph_stage` records the spatial stage,
the heads, the mix and the skip add s + mix(s) as one record, running
`temporal._calculated_heads` on the layer's per-head projection lists
`w_a`, `w_b` and `temporal._graph_mix` on its `output_maps`.  Each record's
docstring says what its rule keeps; none keeps s.  Every fused bn -> ReLU
backward is `batchnorm._relu_backward`.  Oracle tests reach the raw linear
maps through `_spatial_graph`, `temporal._calculated_heads` and
`temporal_conv`, the code the stages run.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from . import init, precision
from .batchnorm import BatchNorm, _affine, _center, _normalize, _relu_backward
from .errors import ConfigError, ShapeError
from .temporal import MultiHeadTemporalConv, _calculated_heads, _graph_mix
from .tensor import (
    Parameter,
    Tensor,
    _accumulate,
    _check_finite,
    _check_stack,
    _record,
    _temporal,
    relu,
    temporal_conv,
)


class SGBlock:
    """Partitioned spatial graph convolution with edge-importance masks."""

    def __init__(self, in_channels: int, out_channels: int, partitions: np.ndarray,
                 identifier: str, seed: int = 0):
        if partitions.ndim != 3 or partitions.shape[1] != partitions.shape[2]:
            raise ShapeError(f"partitions must be (K, J, J), got {partitions.shape}")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.partitions = np.asarray(partitions, dtype=np.float64)
        self.identifier = identifier
        num_subsets = partitions.shape[0]
        joints = partitions.shape[1]
        self.weights = [
            Parameter(
                init.uniform_fan_in(seed, f"{identifier}.w{k}",
                                    (out_channels, in_channels), in_channels),
                f"{identifier}.w{k}",
            )
            for k in range(num_subsets)
        ]
        self.masks = [
            Parameter(init.ones((joints, joints)), f"{identifier}.mask{k}")
            for k in range(num_subsets)
        ]
        self.bn = BatchNorm(out_channels, f"{identifier}.bn")

    def parameters(self) -> list[Parameter]:
        return self.weights + self.masks + self.bn.parameters()

    def batchnorms(self) -> list[BatchNorm]:
        return [self.bn]


def _spatial_graph(x: Tensor, weights: Sequence[Tensor], partitions: Sequence[np.ndarray],
                   masks: Sequence[Tensor]):
    """Check a spatial graph conv of `x` and return its arithmetic as closures.

    weights[k] is (C_out, C_in); partitions[k] (cast to the current
    precision) and masks[k] are (J, J) and destination-major: output joint
    i takes sum_j A_k[i, j] x[..., j] for the gate A_k = P_k * M_k.
    `conv()` is the (C_out, T, J) output sum_k (W_k @ x) @ A_k^T over
    k = 0..K-1, the channel map as (C_out T, J) times a contiguous copy of
    A_k^T, bit for bit the unfused mul/reshape/matmul/permute/add chain;
    `backward(g)` sends the output gradient `g` on to mask k (dA_k * P_k),
    weight k and x, k = K-1..0, rebuilding each channel map as it reaches
    it.  The closures hold x, the weights, the partitions and the gates,
    never a Tensor.
    """
    if x.data.ndim != 3:
        raise ShapeError(f"spatial graph conv expects a 3-D input, got {x.shape}")
    if not weights or not len(weights) == len(partitions) == len(masks):
        raise ShapeError(f"spatial graph conv: {len(weights)} weights for "
                         f"{len(partitions)} partitions and {len(masks)} masks")
    c_in, frames, joints = x.shape
    c_out = weights[0].shape[0]
    _check_stack("spatial graph conv", weights, (c_out, c_in), "weight")
    _check_stack("spatial graph conv", masks, (joints, joints), "mask")
    p_data = [np.asarray(p, dtype=precision.dtype()) for p in partitions]
    _check_stack("spatial graph conv", p_data, (joints, joints), "partition")
    flat = x.data.reshape(c_in, frames * joints)
    w_data = [w.data for w in weights]
    a_data = [p * m.data for p, m in zip(p_data, masks)]
    x_cell = x.cell
    w_cells = [w.cell for w in weights]
    m_cells = [m.cell for m in masks]

    def channel_map(k: int) -> np.ndarray:
        return (w_data[k] @ flat).reshape(c_out * frames, joints)

    def mixer(k: int) -> np.ndarray:
        return np.ascontiguousarray(a_data[k].T)

    def conv() -> np.ndarray:
        acc = channel_map(0) @ mixer(0)
        for k in range(1, len(w_data)):
            acc += channel_map(k) @ mixer(k)
        return acc.reshape(c_out, frames, joints)

    def backward(g: np.ndarray) -> None:
        g = g.reshape(c_out * frames, joints)
        for k in reversed(range(len(w_data))):
            _accumulate(m_cells[k], (channel_map(k).T @ g).T * p_data[k], fresh=True)
            d_map = (g @ mixer(k).T).reshape(c_out, frames * joints)
            _accumulate(w_cells[k], d_map @ flat.T)
            _accumulate(x_cell, (w_data[k].T @ d_map).reshape(c_in, frames, joints),
                        fresh=True)

    return conv, backward


def _spatial_stage(sg: SGBlock, f: Tensor):
    """relu(bn(graph conv)) of f through `sg`: the output array and its backward.

    The forward runs the gates, the channel-map conv, the finite check and
    `_normalize` with sg.bn.  `backward(g_of)` keeps f, the gates and the
    per-channel mean, sigma and scale, never the conv output, xhat, a channel
    map or a mask.  It rebuilds the conv output one channel map at a time and
    centers it into xhat, takes the gradient at the stage output from
    `g_of(xhat)`, and replays the bn-ReLU backward and the graph-conv
    backward, which rebuilds each map again as it reaches it, so no more
    than one is alive.
    """
    if f.data.ndim != 3 or f.shape[0] != sg.in_channels:
        raise ShapeError(f"{sg.identifier}: expected ({sg.in_channels}, T, J), got {f.shape}")
    joints = sg.partitions.shape[1]
    if f.shape[2] != joints:
        raise ShapeError(f"{sg.identifier}: feature has {f.shape[2]} joints, graph has {joints}")
    conv, graph_backward = _spatial_graph(
        f, [w.value for w in sg.weights], sg.partitions, [mask.value for mask in sg.masks])
    conv_out = conv()
    _check_finite(conv_out, "spatial graph conv")
    bn = sg.bn
    gamma, beta, training = bn.gamma.value, bn.beta.value, bn.training
    out, _, mean, sigma, scale = _normalize(conv_out, gamma, beta, bn.running_mean,
                                            bn.running_var, training, in_place=True)
    gamma_cell, beta_cell, gamma, beta = gamma.cell, beta.cell, gamma.data, beta.data

    def backward(g_of) -> None:
        xhat = _center(conv(), mean, sigma)
        dx = _relu_backward(g_of(xhat), xhat, gamma, beta, scale, training, gamma_cell,
                            beta_cell)
        del xhat  # freed before the graph-conv backward allocates
        graph_backward(dx)

    return np.maximum(out, 0.0, out=out), backward


def spatial_graph_bn_relu(sg: SGBlock, f: Tensor) -> Tensor:
    """relu(batchnorm(graph conv of f)) through `sg` as one record:
    `_spatial_stage`, whose backward the rule replays."""
    out_data, backward = _spatial_stage(sg, f)

    def rule(g):
        backward(lambda xhat: g)

    return _record(Tensor(out_data), rule)


def sg_forward(block: SGBlock, f: Tensor) -> Tensor:
    return spatial_graph_bn_relu(block, f)


class TCBlock:
    """K_t x 1 temporal convolution with channel mixing and stride."""

    def __init__(self, channels: int, kernel_t: int, stride: int, identifier: str,
                 seed: int = 0):
        if kernel_t % 2 != 1:
            raise ConfigError(f"{identifier}: temporal kernel size {kernel_t} must be odd")
        if stride < 1:
            raise ConfigError(f"{identifier}: stride must be positive")
        self.channels = channels
        self.kernel_t = kernel_t
        self.stride = stride
        self.pad = (kernel_t - 1) // 2
        self.identifier = identifier
        self.kernel = Parameter(
            init.uniform_fan_in(seed, f"{identifier}.kernel",
                                (channels, channels, kernel_t), channels * kernel_t),
            f"{identifier}.kernel",
        )
        self.bn = BatchNorm(channels, f"{identifier}.bn")

    def parameters(self) -> list[Parameter]:
        return [self.kernel] + self.bn.parameters()

    def batchnorms(self) -> list[BatchNorm]:
        return [self.bn]


def tc_output_length(frames: int, stride: int) -> int:
    return -(-frames // stride)


def tc_forward(block: TCBlock, f: Tensor) -> Tensor:
    if f.data.ndim != 3 or f.shape[0] != block.channels:
        raise ShapeError(
            f"{block.identifier}: expected ({block.channels}, T, J), got {f.shape}"
        )
    return relu(block.bn(temporal_conv(f, block.kernel.value, block.stride, block.pad)))


class ChannelProjection:
    """Strided 1x1 channel map without bn; the non-identity residual path.

    It is a one-tap `temporal_conv` with a (C_out, C_in, 1) kernel and no
    padding: frame p of the output maps input frame p * stride.
    """

    def __init__(self, in_channels: int, out_channels: int, stride: int,
                 identifier: str, seed: int = 0):
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.stride = stride
        self.identifier = identifier
        self.weight = Parameter(
            init.uniform_fan_in(seed, f"{identifier}.weight",
                                (out_channels, in_channels, 1), in_channels),
            f"{identifier}.weight",
        )

    def __call__(self, f: Tensor) -> Tensor:
        return temporal_conv(f, self.weight.value, self.stride, 0)

    def parameters(self) -> list[Parameter]:
        return [self.weight]


def spatial_temporal_stage(sg: SGBlock, tc: TCBlock, f: Tensor) -> Tensor:
    """tc_forward(tc, sg_forward(sg, f)) as one record, bit for bit.

    The rule keeps what `_spatial_stage` keeps plus the temporal kernel and
    the temporal batchnorm's per-channel mean, sigma and scale, never the
    spatial output s, the temporal conv output or its xhat.  It replays the
    spatial stage's backward, whose output gradient it computes from the
    rebuilt spatial xhat: s = relu(gamma * xhat + beta) goes straight into
    the zero-padded buffer the kernel-gradient taps read, the temporal conv
    runs on that buffer once more and its output is centered into the
    temporal xhat, and the temporal bn-ReLU and conv backward follow.
    """
    if tc.channels != sg.out_channels:
        raise ShapeError(f"{tc.identifier}: takes {tc.channels} channels, "
                         f"{sg.identifier} makes {sg.out_channels}")
    s_data, spatial_backward = _spatial_stage(sg, f)
    blank, tconv, kernel_grad, input_grad = _temporal(s_data.shape, tc.kernel.value,
                                                      tc.stride, tc.pad)
    padded, interior = blank()
    interior[...] = s_data
    del s_data, interior
    t_data = tconv(padded)
    del padded
    _check_finite(t_data, "temporal_conv")
    bn = tc.bn
    tc_gamma, tc_beta, training = bn.gamma.value, bn.beta.value, bn.training
    out_data, _, mean, sigma, scale = _normalize(t_data, tc_gamma, tc_beta, bn.running_mean,
                                                 bn.running_var, training, in_place=True)
    tc_gamma_cell, tc_beta_cell = tc_gamma.cell, tc_beta.cell
    tc_gamma, tc_beta = tc_gamma.data, tc_beta.data
    gamma, beta = sg.bn.gamma.value.data, sg.bn.beta.value.data

    def rule(g):
        def ds_of(xhat: np.ndarray) -> np.ndarray:
            padded, s = blank()
            np.maximum(_affine(xhat, gamma, beta, out=s), 0.0, out=s)
            dt = _relu_backward(g, _center(tconv(padded), mean, sigma), tc_gamma, tc_beta,
                                scale, training, tc_gamma_cell, tc_beta_cell)
            kernel_grad(dt, padded)
            del padded, s  # freed before input_grad makes its own padded buffer
            return input_grad(dt)

        spatial_backward(ds_of)

    return _record(Tensor(np.maximum(out_data, 0.0, out=out_data)), rule)


def spatial_tgraph_stage(sg: SGBlock, mhc: MultiHeadTemporalConv,
                         f: Tensor) -> tuple[Tensor, list[np.ndarray]]:
    """s + mix(s) for s = sg_forward(sg, f) and mhc's feature-calculated heads
    as one record, bit for bit, and the heads' adjacencies.

    The rule keeps what `_spatial_stage` keeps plus the adjacencies, never s,
    a head operand or a mix.  It replays the spatial stage's backward, whose
    output gradient it computes from the rebuilt spatial xhat: s = relu(gamma
    * xhat + beta) again, then the output gradient g plus the mix's input
    gradient plus the heads' input gradients, n = N-1..0, the order in which
    the records of the chain summed them.  The adjacencies are arrays the
    rule reads, so a caller copies them before writing to them.
    """
    if mhc.channels != sg.out_channels:
        raise ShapeError(f"{mhc.identifier}: takes {mhc.channels} channels, "
                         f"{sg.identifier} makes {sg.out_channels}")
    s, spatial_backward = _spatial_stage(sg, f)
    heads, heads_backward = _calculated_heads(s.shape, [w.value for w in mhc.w_a],
                                              [w.value for w in mhc.w_b])
    mix, mix_backward = _graph_mix(s.shape, [w.value for w in mhc.output_maps])
    adjacencies = heads(s)
    out = mix(s, adjacencies)
    _check_finite(out, "temporal_graph_conv")
    out += s
    _check_finite(out, "add")
    del s
    gamma, beta = sg.bn.gamma.value.data, sg.bn.beta.value.data

    def rule(g):
        def ds_of(xhat: np.ndarray) -> np.ndarray:
            s = _affine(xhat, gamma, beta)
            np.maximum(s, 0.0, out=s)
            d_adjacencies, d_mix = mix_backward(g, s, adjacencies)
            ds = g + d_mix  # contiguous: d_mix is a transposed view
            del d_mix
            heads_backward(s, adjacencies, d_adjacencies, ds)
            return ds

        spatial_backward(ds_of)

    return _record(Tensor(out), rule), adjacencies
