"""Backbone blocks: spatial graph convolution and temporal convolution.

Feature maps are (C, T, J).  The spatial block mixes joints through the
three fixed normalized partition matrices, each gated elementwise by a
learnable mask, with a per-subset 1x1 channel map:

    out = sum_k  W_k @ f @ (P_k * M_k)^T

The gates P_k * M_k are formed inside the one `spatial_graph_conv` record,
whose rule hands mask k its gradient dA_k * P_k.

The temporal block is a K_t x 1 convolution along T with channel mixing,
symmetric zero padding, output length ceil(T / stride).  Both blocks carry
their own batchnorm and ReLU; oracle tests bypass those via apply_bn_relu
to reach the raw linear maps.
"""
from __future__ import annotations

import numpy as np

from . import init
from .batchnorm import BatchNorm
from .errors import ConfigError, ShapeError
from .tensor import (
    Parameter,
    Tensor,
    matmul,
    relu,
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


def sg_forward(block: SGBlock, f: Tensor, apply_bn_relu: bool = True) -> Tensor:
    if f.data.ndim != 3 or f.shape[0] != block.in_channels:
        raise ShapeError(
            f"{block.identifier}: expected ({block.in_channels}, T, J), got {f.shape}"
        )
    joints = block.partitions.shape[1]
    if f.shape[2] != joints:
        raise ShapeError(
            f"{block.identifier}: feature has {f.shape[2]} joints, graph has {joints}"
        )
    out = spatial_graph_conv(f, [w.value for w in block.weights], block.partitions,
                             [mask.value for mask in block.masks])
    if apply_bn_relu:
        out = relu(block.bn(out))
    return out


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


def tc_forward(block: TCBlock, f: Tensor, apply_bn_relu: bool = True) -> Tensor:
    if f.data.ndim != 3 or f.shape[0] != block.channels:
        raise ShapeError(
            f"{block.identifier}: expected ({block.channels}, T, J), got {f.shape}"
        )
    out = temporal_conv(f, block.kernel.value, block.stride, block.pad)
    if apply_bn_relu:
        out = relu(block.bn(out))
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
