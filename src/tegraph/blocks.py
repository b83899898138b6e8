"""Backbone blocks: spatial graph convolution and temporal convolution.

Feature maps are (C, T, J).  The spatial block mixes joints through the
three fixed normalized partition matrices, each gated elementwise by a
learnable mask, with a per-subset 1x1 channel map:

    out = sum_k  W_k @ f @ (P_k * M_k)^T

The gates P_k * M_k are formed inside the one `spatial_graph_conv` record,
whose rule hands mask k its gradient dA_k * P_k.

The temporal block is a K_t x 1 convolution along T with channel mixing,
symmetric zero padding, output length ceil(T / stride).  Both blocks carry
their own batchnorm and ReLU: the whole spatial stage conv -> bn -> relu is
the one `spatial_graph_bn_relu` record, and the temporal block's bn -> relu
is one `batchnorm_relu` record.  Where the temporal block reads the spatial
output s directly (a tc-mode layer), `spatial_temporal_stage` records both
blocks as one record that keeps neither s nor the temporal conv output.
Oracle tests bypass bn and ReLU via apply_bn_relu to reach the raw linear
maps.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from . import init
from .batchnorm import BatchNorm, _affine, _center, _gradients, _normalize
from .errors import ConfigError, ShapeError
from .tensor import (
    Parameter,
    Tensor,
    _accumulate,
    _check_finite,
    _spatial_graph,
    _temporal,
    active_tape,
    matmul,
    reshape,
    slice_axis,
    spatial_graph_conv,
    temporal_conv,
)


def _channel_map(weight: Tensor, f: Tensor) -> Tensor:
    """(C_out, C_in) x (C_in, T, J) -> (C_out, T, J), a 1x1 convolution."""
    c_in, t, j = f.shape
    flat = reshape(f, (c_in, t * j))
    return reshape(matmul(weight, flat), (weight.shape[0], t, j))


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


def spatial_graph_bn_relu(x: Tensor, weights: Sequence[Tensor],
                          partitions: Sequence[np.ndarray], masks: Sequence[Tensor],
                          gamma: Tensor, beta: Tensor, running_mean: np.ndarray,
                          running_var: np.ndarray, training: bool, eps: float = 1e-5,
                          momentum: float = 0.1) -> Tensor:
    """relu(batchnorm(spatial_graph_conv(x, ...), ...)) as one record, bit for bit.

    The rule keeps x, the gates and the per-channel mean, sigma and scale,
    never the conv output, xhat, a channel map or a mask.  It rebuilds the
    conv output one channel map at a time, and from that xhat and the ReLU
    mask gamma * xhat + beta > 0; the graph-conv backward rebuilds each map
    again as it reaches it, so no more than one is alive.
    """
    channel_map, conv, backward = _spatial_graph(x, weights, partitions, masks)
    conv_out = conv(channel_map)
    _check_finite(conv_out, "spatial_graph_conv")
    out_data, _, mean, sigma, scale = _normalize(conv_out, gamma, beta, running_mean,
                                                 running_var, training, eps, momentum)
    out = Tensor(np.maximum(out_data, 0.0, out=out_data))
    tape = active_tape()
    if tape is not None:
        gamma_cell, beta_cell, out_cell = gamma.cell, beta.cell, out.cell
        gamma_data, beta_data = gamma.data, beta.data

        def rule():
            if out_cell.grad is None:
                return
            xhat = _center(conv(channel_map), mean, sigma)
            dy = out_cell.grad * (_affine(xhat, gamma_data, beta_data) > 0)
            d_beta, d_gamma, dx = _gradients(dy, xhat, scale, training)
            del xhat, dy  # freed before the graph-conv backward allocates
            _accumulate(beta_cell, d_beta, fresh=True)
            _accumulate(gamma_cell, d_gamma, fresh=True)
            backward(dx, channel_map)

        tape.record(rule)
    return out


def _check_input(block: SGBlock, f: Tensor) -> None:
    if f.data.ndim != 3 or f.shape[0] != block.in_channels:
        raise ShapeError(
            f"{block.identifier}: expected ({block.in_channels}, T, J), got {f.shape}"
        )
    joints = block.partitions.shape[1]
    if f.shape[2] != joints:
        raise ShapeError(
            f"{block.identifier}: feature has {f.shape[2]} joints, graph has {joints}"
        )


def sg_forward(block: SGBlock, f: Tensor, apply_bn_relu: bool = True) -> Tensor:
    _check_input(block, f)
    weights = [w.value for w in block.weights]
    masks = [mask.value for mask in block.masks]
    if not apply_bn_relu:
        return spatial_graph_conv(f, weights, block.partitions, masks)
    bn = block.bn
    return spatial_graph_bn_relu(f, weights, block.partitions, masks, bn.gamma.value,
                                 bn.beta.value, bn.running_mean, bn.running_var, bn.training,
                                 bn.eps, bn.momentum)


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
        self.bn = BatchNorm(channels, f"{identifier}.bn", relu=True)

    def parameters(self) -> list[Parameter]:
        return [self.kernel] + self.bn.parameters()

    def batchnorms(self) -> list[BatchNorm]:
        return [self.bn]


def tc_output_length(frames: int, stride: int) -> int:
    return -(-frames // stride)


def tc_forward(block: TCBlock, f: Tensor, apply_bn_relu: bool = True) -> Tensor:
    if f.data.ndim != 3 or f.shape[0] != block.channels:
        raise ShapeError(
            f"{block.identifier}: expected ({block.channels}, T, J), got {f.shape}"
        )
    out = temporal_conv(f, block.kernel.value, block.stride, block.pad)
    if apply_bn_relu:
        out = block.bn(out)
    return out


class ChannelProjection:
    """Strided 1x1 channel map without bn; the non-identity residual path."""

    def __init__(self, in_channels: int, out_channels: int, stride: int,
                 identifier: str, seed: int = 0):
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.stride = stride
        self.identifier = identifier
        self.weight = Parameter(
            init.uniform_fan_in(seed, f"{identifier}.weight",
                                (out_channels, in_channels), in_channels),
            f"{identifier}.weight",
        )

    def __call__(self, f: Tensor) -> Tensor:
        if self.stride > 1:
            frames = f.shape[1]
            f = slice_axis(f, 1, 0, (tc_output_length(frames, self.stride) - 1)
                           * self.stride + 1, self.stride)
        return _channel_map(self.weight.value, f)

    def parameters(self) -> list[Parameter]:
        return [self.weight]


def spatial_temporal_stage(sg: SGBlock, tc: TCBlock, f: Tensor) -> Tensor:
    """tc_forward(tc, sg_forward(sg, f)) as one record, bit for bit.

    The rule keeps f, the gates, the temporal kernel and both batchnorms'
    per-channel mean, sigma and scale, never the spatial output s, the
    temporal conv output or either xhat.  It rebuilds the conv output and
    the spatial xhat as `spatial_graph_bn_relu` does, writes s = relu(gamma
    * xhat + beta) straight into the zero-padded buffer the kernel-gradient
    taps read, runs the temporal conv on that buffer once more and centers
    its output into the temporal xhat.  Then it replays the temporal
    bn-ReLU backward, the temporal conv backward and the spatial stage
    backward.  The spatial ReLU mask is s > 0.
    """
    _check_input(sg, f)
    if tc.channels != sg.out_channels:
        raise ShapeError(f"{tc.identifier}: takes {tc.channels} channels, "
                         f"{sg.identifier} makes {sg.out_channels}")
    weights = [w.value for w in sg.weights]
    channel_map, conv, graph_backward = _spatial_graph(
        f, weights, sg.partitions, [mask.value for mask in sg.masks])
    conv_out = conv(channel_map)
    _check_finite(conv_out, "spatial_graph_conv")
    bn = sg.bn
    gamma, beta = bn.gamma.value.data, bn.beta.value.data
    s_data, _, mean, sigma, scale = _normalize(conv_out, bn.gamma.value, bn.beta.value,
                                               bn.running_mean, bn.running_var, bn.training,
                                               bn.eps, bn.momentum)
    del conv_out
    blank, tconv, tc_backward = _temporal(s_data.shape, tc.kernel.value, tc.stride, tc.pad)
    padded, interior = blank()
    np.maximum(s_data, 0.0, out=interior)
    del s_data, interior
    t_data = tconv(padded)
    del padded
    _check_finite(t_data, "temporal_conv")
    tc_bn = tc.bn
    tc_gamma, tc_beta = tc_bn.gamma.value.data, tc_bn.beta.value.data
    out_data, _, tc_mean, tc_sigma, tc_scale = _normalize(
        t_data, tc_bn.gamma.value, tc_bn.beta.value, tc_bn.running_mean, tc_bn.running_var,
        tc_bn.training, tc_bn.eps, tc_bn.momentum)
    del t_data
    out = Tensor(np.maximum(out_data, 0.0, out=out_data))
    tape = active_tape()
    if tape is not None:
        out_cell = out.cell
        gamma_cell, beta_cell = bn.gamma.value.cell, bn.beta.value.cell
        tc_gamma_cell, tc_beta_cell = tc_bn.gamma.value.cell, tc_bn.beta.value.cell
        training, tc_training = bn.training, tc_bn.training

        def rule():
            if out_cell.grad is None:
                return
            xhat = _center(conv(channel_map), mean, sigma)
            padded, s = blank()
            np.maximum(_affine(xhat, gamma, beta, out=s), 0.0, out=s)
            tc_xhat = _center(tconv(padded), tc_mean, tc_sigma)
            dy = out_cell.grad * (_affine(tc_xhat, tc_gamma, tc_beta) > 0)
            d_beta, d_gamma, dt = _gradients(dy, tc_xhat, tc_scale, tc_training)
            del tc_xhat, dy
            _accumulate(tc_beta_cell, d_beta, fresh=True)
            _accumulate(tc_gamma_cell, d_gamma, fresh=True)
            ds = tc_backward(dt, padded)
            del dt
            dy = ds * (s > 0)
            del ds, padded, s  # freed before the graph-conv backward allocates
            d_beta, d_gamma, dx = _gradients(dy, xhat, scale, training)
            del xhat, dy
            _accumulate(beta_cell, d_beta, fresh=True)
            _accumulate(gamma_cell, d_gamma, fresh=True)
            graph_backward(dx, channel_map)

        tape.record(rule)
    return out
