"""Layer assembly, the full network, and score fusion.

A layer is the residual unit

    f_out = relu( residual(f_in) + TemporalStage( SG(f_in) ) )

where TemporalStage depends on the layer's temporal mode:

    tc:      tc_forward(s)
    tgraph:  s + temporal_graph_conv(s)          (stride must stay 1)
    both:    tc_forward(s + temporal_graph_conv(s))

The temporal graph stage sits inside its own additive skip, so with its
zero-initialized output maps a freshly built tgraph/both layer computes
exactly what the corresponding tc (or plain) layer computes; combined with
name-keyed parameter init this makes inserting the stage a bit-exact no-op
at initialization.  A tc layer records SG and its tc as the one
`spatial_temporal_stage` record, which never keeps s.

The network runs each body slot through shared weights: input batchnorm
over (coordinate, joint) channel pairs, the layer stack, global average
pooling over frames and joints, mean over bodies, then a fully connected
map to class logits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import init
from .batchnorm import BatchNorm
from .blocks import (
    ChannelProjection,
    SGBlock,
    TCBlock,
    sg_forward,
    spatial_temporal_stage,
    tc_forward,
    tc_output_length,
)
from .errors import ConfigError, DataError, ShapeError
from .graph import SkeletonGraph, chain_graph, normalized_partitions, ntu_graph
from .tensor import (
    Parameter,
    Tensor,
    add,
    log_softmax_rows,
    matmul,
    permute,
    relu,
    reshape,
    scale,
    slice_axis,
    sum_all,
    sum_axis,
)
from .temporal import HEAD_KINDS, MultiHeadTemporalConv, build_heads, temporal_graph_conv

TEMPORAL_MODES = ("tc", "tgraph", "both")

# Backbone plan: nine residual layers on top of the input batchnorm, with
# channel widening and temporal halving at layers 5 and 8.
BACKBONE_CHANNELS = (64, 64, 64, 64, 128, 128, 128, 256, 256)
BACKBONE_STRIDES = (1, 1, 1, 1, 2, 1, 1, 2, 1)


@dataclass
class LayerSpec:
    in_channels: int
    out_channels: int
    stride: int = 1
    mode: str = "tc"
    kernel_t: int = 9

    def __post_init__(self):
        if self.mode not in TEMPORAL_MODES:
            raise ConfigError(f"unknown temporal mode {self.mode!r}; choose from {TEMPORAL_MODES}")
        if self.stride not in (1, 2):
            raise ConfigError(f"temporal stride must be 1 or 2, got {self.stride}")
        if self.mode == "tgraph" and self.stride != 1:
            raise ConfigError(
                "temporal-graph mode requires stride 1: a T x T mixing cannot change length"
            )
        if self.in_channels < 1 or self.out_channels < 1:
            raise ConfigError("channel counts must be positive")
        if self.kernel_t < 1:
            raise ConfigError(f"temporal kernel size must be at least 1, got {self.kernel_t}")


@dataclass
class ModelConfig:
    layers: list[LayerSpec]
    num_classes: int
    num_joints: int
    fixed_length: int
    max_bodies: int = 1
    heads: int = 4
    relevance: str = "feature-calculated"
    graph: str = "chain"
    graph_center: int = 0
    seed: int = 0

    def __post_init__(self):
        if not self.layers:
            raise ConfigError("need at least one layer")
        if self.num_classes < 2:
            raise ConfigError("need at least two classes")
        if self.heads < 1:
            raise ConfigError("need at least one head")
        for name in ("num_joints", "fixed_length", "max_bodies"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.relevance not in HEAD_KINDS:
            raise ConfigError(f"unknown relevance kind {self.relevance!r}")
        if self.graph == "chain" and not 0 <= self.graph_center < self.num_joints:
            raise ConfigError(f"graph_center {self.graph_center} outside the chain graph's "
                              f"joints 0..{self.num_joints - 1}")
        if self.layers[0].in_channels != 3:
            raise ConfigError("first layer must consume the 3 coordinate channels")
        for prev, cur in zip(self.layers, self.layers[1:]):
            if cur.in_channels != prev.out_channels:
                raise ConfigError(
                    f"layer channel chain broken: {prev.out_channels} -> {cur.in_channels}"
                )

    def to_dict(self) -> dict:
        return {
            "layers": [
                [s.in_channels, s.out_channels, s.stride, s.mode, s.kernel_t]
                for s in self.layers
            ],
            "num_classes": self.num_classes,
            "num_joints": self.num_joints,
            "fixed_length": self.fixed_length,
            "max_bodies": self.max_bodies,
            "heads": self.heads,
            "relevance": self.relevance,
            "graph": self.graph,
            "graph_center": self.graph_center,
            "seed": self.seed,
        }

    @staticmethod
    def from_dict(d: dict) -> "ModelConfig":
        layers = [
            LayerSpec(int(a), int(b), int(s), str(m), int(k))
            for a, b, s, m, k in d["layers"]
        ]
        return ModelConfig(
            layers=layers,
            num_classes=int(d["num_classes"]),
            num_joints=int(d["num_joints"]),
            fixed_length=int(d["fixed_length"]),
            max_bodies=int(d["max_bodies"]),
            heads=int(d["heads"]),
            relevance=str(d["relevance"]),
            graph=str(d["graph"]),
            graph_center=int(d["graph_center"]),
            seed=int(d["seed"]),
        )


def backbone_config(num_classes: int, num_joints: int = 25, fixed_length: int = 300,
                    max_bodies: int = 2, insertion_layer: int = 9,
                    insertion_mode: str = "both", heads: int = 4,
                    relevance: str = "feature-calculated", graph: str = "ntu",
                    replace_all: bool = False, seed: int = 0) -> ModelConfig:
    """The nine-layer default with the temporal graph at one chosen layer.

    `replace_all` swaps every stride-1 layer's temporal conv for the graph
    mixing instead; the two stride-2 layers keep their tc blocks because a
    T x T mixing cannot shorten the sequence.
    """
    if not 1 <= insertion_layer <= len(BACKBONE_CHANNELS):
        raise ConfigError(f"insertion layer {insertion_layer} outside 1..{len(BACKBONE_CHANNELS)}")
    layers = []
    in_c = 3
    for i, (out_c, stride) in enumerate(zip(BACKBONE_CHANNELS, BACKBONE_STRIDES), start=1):
        if replace_all:
            mode = "tgraph" if stride == 1 else "tc"
        else:
            mode = insertion_mode if i == insertion_layer else "tc"
        layers.append(LayerSpec(in_c, out_c, stride, mode))
        in_c = out_c
    return ModelConfig(layers=layers, num_classes=num_classes, num_joints=num_joints,
                       fixed_length=fixed_length, max_bodies=max_bodies, heads=heads,
                       relevance=relevance, graph=graph,
                       graph_center=20 if graph == "ntu" else 0, seed=seed)


def build_graph(config: ModelConfig) -> SkeletonGraph:
    if config.graph == "ntu":
        g = ntu_graph()
        if config.num_joints != g.num_joints:
            raise ConfigError(
                f"ntu graph has {g.num_joints} joints, config says {config.num_joints}"
            )
        return g
    if config.graph == "chain":
        return chain_graph(config.num_joints, config.graph_center)
    raise ConfigError(f"unknown graph kind {config.graph!r}")


class TGCNLayer:
    def __init__(self, spec: LayerSpec, partitions: np.ndarray, in_frames: int,
                 heads: int, relevance: str, joints: int, identifier: str, seed: int):
        self.spec = spec
        self.identifier = identifier
        self.in_frames = in_frames
        self.out_frames = tc_output_length(in_frames, spec.stride)
        self.sg = SGBlock(spec.in_channels, spec.out_channels, partitions,
                          f"{identifier}.sg", seed)
        self.tc = None
        self.tgc = None
        if spec.mode in ("tc", "both"):
            self.tc = TCBlock(spec.out_channels, spec.kernel_t, spec.stride,
                              f"{identifier}.tc", seed)
        if spec.mode in ("tgraph", "both"):
            self.tgc = MultiHeadTemporalConv(heads, relevance, spec.out_channels,
                                             in_frames, joints, f"{identifier}.tgc", seed)
        if spec.in_channels == spec.out_channels and spec.stride == 1:
            self.residual = None
        else:
            self.residual = ChannelProjection(spec.in_channels, spec.out_channels,
                                              spec.stride, f"{identifier}.res", seed)

    def __call__(self, f: Tensor, collector: list | None = None) -> Tensor:
        if self.tgc is None:
            t = spatial_temporal_stage(self.sg, self.tc, f)
        else:
            s = sg_forward(self.sg, f)
            adjacencies = build_heads(self.tgc, s)
            if collector is not None:
                for n, adj in enumerate(adjacencies):
                    collector.append((f"{self.identifier}.head{n}", adj.data.copy()))
            s = add(s, temporal_graph_conv(self.tgc, s, adjacencies))
            t = tc_forward(self.tc, s) if self.tc is not None else s
        res = f if self.residual is None else self.residual(f)
        return relu(add(t, res))

    def parameters(self) -> list[Parameter]:
        out = self.sg.parameters()
        if self.tgc is not None:
            out += self.tgc.parameters()
        if self.tc is not None:
            out += self.tc.parameters()
        if self.residual is not None:
            out += self.residual.parameters()
        return out

    def batchnorms(self) -> list[BatchNorm]:
        out = self.sg.batchnorms()
        if self.tc is not None:
            out += self.tc.batchnorms()
        return out


class Network:
    def __init__(self, config: ModelConfig, graph: SkeletonGraph | None = None):
        self.config = config
        try:
            self.graph = graph if graph is not None else build_graph(config)
            if self.graph.num_joints != config.num_joints:
                raise ConfigError(
                    f"graph has {self.graph.num_joints} joints, config says {config.num_joints}"
                )
            partitions = normalized_partitions(self.graph)
            joints = config.num_joints
            self.data_bn = BatchNorm(3 * joints, "input.bn")
            self.layers: list[TGCNLayer] = []
            frames = config.fixed_length
            for i, spec in enumerate(config.layers, start=1):
                layer = TGCNLayer(spec, partitions, frames, config.heads, config.relevance,
                                  joints, f"layer{i}", config.seed)
                self.layers.append(layer)
                frames = layer.out_frames
            self.final_frames = frames
            self.final_channels = config.layers[-1].out_channels
            self.fc_weight = Parameter(
                init.uniform_fan_in(config.seed, "fc.weight",
                                    (self.final_channels, config.num_classes),
                                    self.final_channels),
                "fc.weight",
            )
            self.fc_bias = Parameter(init.zeros((1, config.num_classes)), "fc.bias")
        except MemoryError as exc:
            raise ConfigError(f"the model does not fit in memory: {exc}")
        self.training = True

    # -- plumbing -----------------------------------------------------------

    def parameters(self) -> list[Parameter]:
        out = self.data_bn.parameters()
        for layer in self.layers:
            out += layer.parameters()
        out += [self.fc_weight, self.fc_bias]
        return out

    def batchnorms(self) -> list[BatchNorm]:
        out = [self.data_bn]
        for layer in self.layers:
            out += layer.batchnorms()
        return out

    def set_training(self, training: bool) -> None:
        self.training = training
        for bn in self.batchnorms():
            bn.training = training

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def shape_table(self) -> list[tuple[str, tuple[int, int, int]]]:
        """(layer name, output (C, T, J)) for documentation and tests."""
        rows = []
        for layer in self.layers:
            rows.append((layer.identifier,
                         (layer.spec.out_channels, layer.out_frames,
                          self.config.num_joints)))
        return rows

    # -- forward ------------------------------------------------------------

    def _normalize_input(self, body: np.ndarray) -> Tensor:
        """Input bn over the (coordinate, joint) pairs of one untaped (C, T, J) body."""
        c, t, j = body.shape
        normed = self.data_bn(Tensor(np.ascontiguousarray(body.transpose(0, 2, 1))
                                     .reshape(c * j, t)))
        return permute(reshape(normed, (c, j, t)), (0, 2, 1))

    def forward_sample(self, x, collector: list | None = None) -> Tensor:
        """Logits for one preprocessed sample shaped (3, T, J, M); returns (1, K)."""
        if not isinstance(x, Tensor):
            x = Tensor(x)
        expected = (3, self.config.fixed_length, self.config.num_joints,
                    self.config.max_bodies)
        if x.shape != expected:
            raise ShapeError(f"sample shape {x.shape} does not match model {expected}")
        pooled_bodies = None
        for m in range(self.config.max_bodies):
            f = self._normalize_input(x.data[..., m])
            for layer in self.layers:
                f = layer(f, collector)
            c = f.shape[0]
            flat = reshape(f, (c, self.final_frames * self.config.num_joints))
            pooled = scale(sum_axis(flat, 1),
                           1.0 / (self.final_frames * self.config.num_joints))
            pooled_bodies = pooled if pooled_bodies is None else add(pooled_bodies, pooled)
        mean = scale(pooled_bodies, 1.0 / self.config.max_bodies)
        row = reshape(mean, (1, self.final_channels))
        return add(matmul(row, self.fc_weight.value), self.fc_bias.value)

    def loss(self, logits: Tensor, label: int) -> Tensor:
        if not 0 <= label < self.config.num_classes:
            raise ConfigError(f"label {label} outside {self.config.num_classes} classes")
        picked = sum_all(slice_axis(log_softmax_rows(logits), 1, label, label + 1))
        return scale(picked, -1.0)


def fusion_weights(weights, streams: int) -> list[float]:
    """`streams` finite, nonnegative fusion weights as floats; all ones for None."""
    if weights is None:
        return [1.0] * streams
    try:
        weights = [float(w) for w in weights]
    except (TypeError, ValueError):
        raise ConfigError(f"fusion weights must be numbers, got {weights!r}")
    if len(weights) != streams:
        raise ConfigError(f"{streams} streams but {len(weights)} weights")
    if not all(math.isfinite(w) and w >= 0 for w in weights):
        raise ConfigError(f"fusion weights must be finite and nonnegative, got {weights}")
    return weights


def fuse_streams(scores: list[np.ndarray], weights: list[float] | None = None) -> np.ndarray:
    """Weighted sum of per-stream class distributions, renormalized to sum 1."""
    if not scores:
        raise ConfigError("no streams to fuse")
    weights = fusion_weights(weights, len(scores))
    shape = np.asarray(scores[0]).shape
    fused = np.zeros(shape, dtype=np.float64)
    for w, s in zip(weights, scores):
        s = np.asarray(s, dtype=np.float64)
        if s.shape != shape:
            raise ShapeError(f"stream shapes differ: {s.shape} vs {shape}")
        fused += w * s
    total = fused.sum()
    if not np.isfinite(total):
        raise ConfigError("fusion weights too large: their weighted sum overflows")
    if total <= 0:
        raise ConfigError("fusion weights sum to zero; nothing to normalize")
    return fused / total


def fused_accuracy(per_stream_scores: list[list[np.ndarray]], labels: list[int],
                   weights: list[float] | None = None) -> float:
    """Top-1 accuracy of the fused scores; per_stream_scores[k][i] is stream k on sample i."""
    if not labels:
        raise DataError("no samples to score")
    correct = sum(
        int(np.argmax(fuse_streams([scores[i] for scores in per_stream_scores], weights))) == label
        for i, label in enumerate(labels)
    )
    return correct / len(labels)
