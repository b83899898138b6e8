"""Temporal relation graphs: relevance heads, normalization, graph conv.

A head turns a feature map (C, T, J) into a raw T x T score matrix; row
softmax turns scores into a row-stochastic temporal adjacency; the graph
convolution mixes the feature map along time with each head's adjacency,
applies a per-head 1x1 output map, and sums heads in fixed order.

Two head kinds:

* feature-calculated - scores are inner products of two linear projections
  of the per-frame features (channels reduced 4x), so r_ij measures the
  correlation of frames i and j.  Permuting time permutes scores
  conjugately; the head has no notion of absolute position.

* feature-learned - the feature map is squeezed to one value per frame
  (channel contraction then joint contraction, both bias-free), and a
  learned T x T map emits score[i, j] = W[i, j] * v[j] + b[i].  The map is
  anchored to absolute frame positions, which is what lets it express
  relations like "frame 30 attends to the burst near frame 8"; the price is
  that a head is bound to the temporal length it was built for.

The per-head output maps W_t start at zero, making a freshly inserted
temporal-graph stage an exact no-op inside its surrounding residual.
"""
from __future__ import annotations

import numpy as np

from . import init
from .errors import ConfigError, ShapeError
from .tensor import (
    Parameter,
    Tensor,
    add,
    constant,
    matmul,
    mul,
    permute,
    reshape,
    softmax_rows,
    temporal_graph_mix,
)

HEAD_KINDS = ("feature-calculated", "feature-learned")
CHANNEL_REDUCTION = 4


class RelevanceHead:
    def __init__(self, kind: str, channels: int, frames: int, joints: int,
                 identifier: str, seed: int = 0):
        if kind not in HEAD_KINDS:
            raise ConfigError(f"unknown relevance kind {kind!r}; choose from {HEAD_KINDS}")
        self.kind = kind
        self.channels = channels
        self.frames = frames
        self.joints = joints
        self.identifier = identifier
        if kind == "feature-calculated":
            if channels % CHANNEL_REDUCTION != 0:
                raise ConfigError(
                    f"{identifier}: {channels} channels not divisible by "
                    f"{CHANNEL_REDUCTION}; the projection width would not be integral"
                )
            reduced = channels // CHANNEL_REDUCTION
            self.w_a = Parameter(
                init.uniform_fan_in(seed, f"{identifier}.wa", (reduced, channels), channels),
                f"{identifier}.wa",
            )
            self.w_b = Parameter(
                init.uniform_fan_in(seed, f"{identifier}.wb", (reduced, channels), channels),
                f"{identifier}.wb",
            )
        else:
            self.c_conv = Parameter(
                init.uniform_fan_in(seed, f"{identifier}.cconv", (1, channels), channels),
                f"{identifier}.cconv",
            )
            self.j_conv = Parameter(
                init.uniform_fan_in(seed, f"{identifier}.jconv", (joints, 1), joints),
                f"{identifier}.jconv",
            )
            self.t_conv = Parameter(
                init.uniform_fan_in(seed, f"{identifier}.tconv", (frames, frames), frames),
                f"{identifier}.tconv",
            )
            self.t_bias = Parameter(init.zeros((frames, 1)), f"{identifier}.tbias")

    def parameters(self) -> list[Parameter]:
        if self.kind == "feature-calculated":
            return [self.w_a, self.w_b]
        return [self.c_conv, self.j_conv, self.t_conv, self.t_bias]


def _check_feature(head: RelevanceHead, f: Tensor) -> tuple[int, int, int]:
    if f.data.ndim != 3:
        raise ShapeError(f"{head.identifier}: expected (C, T, J), got {f.shape}")
    c, t, j = f.shape
    if c != head.channels:
        raise ShapeError(f"{head.identifier}: got {c} channels, head built for {head.channels}")
    if head.kind == "feature-learned" and (t != head.frames or j != head.joints):
        raise ShapeError(
            f"{head.identifier}: got T={t}, J={j}; this head is bound to "
            f"T={head.frames}, J={head.joints}"
        )
    return c, t, j


def feature_learned(head: RelevanceHead, f: Tensor) -> Tensor:
    """Squeeze to one value per frame, then emit a learned position-anchored map."""
    c, t, j = _check_feature(head, f)
    squeezed = reshape(matmul(head.c_conv.value, reshape(f, (c, t * j))), (t, j))
    v = matmul(squeezed, head.j_conv.value)              # (T, 1)
    v_rows = matmul(constant(np.ones((t, 1))), permute(v, (1, 0)))   # v[j] broadcast per row
    bias = matmul(head.t_bias.value, constant(np.ones((1, t))))      # b[i] broadcast per column
    return add(mul(head.t_conv.value, v_rows), bias)


def normalize(raw: Tensor) -> Tensor:
    """Row softmax: each frame's outgoing relevance sums to one."""
    if raw.data.ndim != 2 or raw.shape[0] != raw.shape[1]:
        raise ShapeError(f"raw scores must be square, got {raw.shape}")
    return softmax_rows(raw)


class MultiHeadTemporalConv:
    """N independent relevance heads plus zero-initialized output maps."""

    def __init__(self, num_heads: int, kind: str, channels: int, frames: int,
                 joints: int, identifier: str, seed: int = 0):
        if num_heads < 1:
            raise ConfigError(f"{identifier}: need at least one head, got {num_heads}")
        self.identifier = identifier
        self.channels = channels
        self.heads = [
            RelevanceHead(kind, channels, frames, joints, f"{identifier}.head{n}", seed)
            for n in range(num_heads)
        ]
        self.output_maps = [
            Parameter(init.zeros((channels, channels)), f"{identifier}.wt{n}")
            for n in range(num_heads)
        ]

    def parameters(self) -> list[Parameter]:
        out = []
        for head in self.heads:
            out.extend(head.parameters())
        out.extend(self.output_maps)
        return out


def build_heads(mhc: MultiHeadTemporalConv, f: Tensor) -> list[Tensor]:
    """One row-stochastic temporal adjacency per feature-learned head, in head
    order: the row softmax of each head's `feature_learned` scores.

    Feature-calculated heads, the row softmax of (W_a s)^T (W_b s) contracted
    over channel and joint, are no ops of their own: they run inside their
    layer's one `blocks.spatial_tgraph_stage` record.
    """
    if mhc.heads[0].kind != "feature-learned":
        raise ConfigError(f"{mhc.identifier}: feature-calculated heads run only inside "
                          f"blocks.spatial_tgraph_stage")
    return [normalize(feature_learned(head, f)) for head in mhc.heads]


def temporal_graph_conv(mhc: MultiHeadTemporalConv, f_s: Tensor,
                        adjacencies: list[Tensor]) -> Tensor:
    if len(adjacencies) != len(mhc.heads):
        raise ShapeError(
            f"{mhc.identifier}: {len(adjacencies)} adjacencies for {len(mhc.heads)} heads"
        )
    c, t, _ = f_s.shape
    if c != mhc.channels:
        raise ShapeError(f"{mhc.identifier}: got {c} channels, built for {mhc.channels}")
    for adjacency in adjacencies:
        if adjacency.shape != (t, t):
            raise ShapeError(
                f"{mhc.identifier}: adjacency {adjacency.shape} does not match T={t}"
            )
    return temporal_graph_mix(f_s, adjacencies, [w_t.value for w_t in mhc.output_maps])
