"""Temporal relation graphs: relevance heads and the temporal graph conv.

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
  learned T x T map emits score[i, j] = W[i, j] * v[j].  The map is
  anchored to absolute frame positions, which is what lets it express
  relations like "frame 30 attends to the burst near frame 8"; the price is
  that a head is bound to the temporal length it was built for.  A per-row
  bias b[i] would add nothing: the row softmax cancels any per-row constant.

The per-head output maps W_t start at zero, making a freshly inserted
temporal-graph stage an exact no-op inside its surrounding residual.

The graph arithmetic lives here as closure helpers: `_calculated_heads`
(every feature-calculated head of a layer, softmax included) and
`_graph_mix` (the multi-head frame mixing).  Feature-learned heads are op
chains (`build_heads`), and `temporal_graph_conv` records their layer's
mix as one op.  Feature-calculated heads and their mix run inside the
layer's one `blocks.spatial_tgraph_stage` record instead.  The heads hand
their projection gradients to the cells as they are (see "Handover" in
tensor.py); `temporal_graph_conv` copies its adjacency gradients and its
input gradient, a transposed view.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from . import init
from .errors import ConfigError, ShapeError
from .tensor import (
    Parameter,
    Tensor,
    _accumulate,
    _check_finite,
    _check_stack,
    _record,
    _softmax,
    _softmax_grad,
    matmul,
    mul,
    permute,
    reshape,
    softmax_rows,
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

    def parameters(self) -> list[Parameter]:
        if self.kind == "feature-calculated":
            return [self.w_a, self.w_b]
        return [self.c_conv, self.j_conv, self.t_conv]


def feature_learned(head: RelevanceHead, f: Tensor) -> Tensor:
    """Squeeze to one value per frame, then emit a learned position-anchored map."""
    if f.data.ndim != 3:
        raise ShapeError(f"{head.identifier}: expected (C, T, J), got {f.shape}")
    c, t, j = f.shape
    if c != head.channels:
        raise ShapeError(f"{head.identifier}: got {c} channels, head built for {head.channels}")
    if t != head.frames or j != head.joints:
        raise ShapeError(
            f"{head.identifier}: got T={t}, J={j}; this head is bound to "
            f"T={head.frames}, J={head.joints}"
        )
    squeezed = reshape(matmul(head.c_conv.value, reshape(f, (c, t * j))), (t, j))
    v = matmul(squeezed, head.j_conv.value)              # (T, 1)
    v_rows = matmul(Tensor(np.ones((t, 1))), permute(v, (1, 0)))   # v[j] broadcast per row
    return mul(head.t_conv.value, v_rows)


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
    return [softmax_rows(feature_learned(head, f)) for head in mhc.heads]


def _calculated_heads(shape: tuple, w_a: Sequence[Tensor], w_b: Sequence[Tensor]):
    """Check feature-calculated relevance heads on an input shaped `shape` and
    return their arithmetic as closures.

    w_a[n] and w_b[n] are (R, C).  `adjacencies(x)` lists head n's (T, T)
    row softmax of a_rows @ b_cols, where a_rows is W_a x laid out time-major
    as (T, R J) and b_cols is W_b x as (R J, T), bit for bit each head's
    unfused reshape/matmul/permute/softmax_rows chain, n = 0..N-1.  For the
    adjacencies `adj` and their gradients `d_adj`, `backward(x, adj, d_adj,
    dx)` rebuilds a_rows and b_cols, hands w_b[n] and w_a[n] their gradients
    and adds head n's input gradient to `dx`, n = N-1..0.  The closures hold
    the projections, never a Tensor.
    """
    if not w_a or len(w_a) != len(w_b):
        raise ShapeError(f"relevance heads: {len(w_a)} a-projections for "
                         f"{len(w_b)} b-projections")
    c, frames, joints = shape
    reduced = w_a[0].shape[0]
    _check_stack("relevance heads", w_a, (reduced, c), "a-projection")
    _check_stack("relevance heads", w_b, (reduced, c), "b-projection")
    wa_data, wb_data = [w.data for w in w_a], [w.data for w in w_b]
    a_cells, b_cells = [w.cell for w in w_a], [w.cell for w in w_b]

    def operands(flat: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
        a = (wa_data[n] @ flat).reshape(reduced, frames, joints)
        b = (wb_data[n] @ flat).reshape(reduced, frames, joints)
        return (np.ascontiguousarray(a.transpose(1, 0, 2)).reshape(frames, reduced * joints),
                np.ascontiguousarray(b.transpose(0, 2, 1)).reshape(reduced * joints, frames))

    def adjacencies(x: np.ndarray) -> list[np.ndarray]:
        out = []
        for n in range(len(wa_data)):
            a_rows, b_cols = operands(x.reshape(c, -1), n)
            scores = a_rows @ b_cols
            _check_finite(scores, "relevance heads")  # then the softmax is finite too
            out.append(_softmax(scores))
        return out

    def backward(x: np.ndarray, adj: list, d_adj: list, dx: np.ndarray) -> None:
        flat = x.reshape(c, -1)
        for n in reversed(range(len(wa_data))):
            d_scores = _softmax_grad(adj[n], d_adj[n])
            a_rows, b_cols = operands(flat, n)
            d_a = np.ascontiguousarray((d_scores @ b_cols.T).reshape(
                frames, reduced, joints).transpose(1, 0, 2)).reshape(reduced, -1)
            d_b = np.ascontiguousarray((a_rows.T @ d_scores).reshape(
                reduced, joints, frames).transpose(0, 2, 1)).reshape(reduced, -1)
            _accumulate(b_cells[n], d_b @ flat.T, fresh=True)
            d_flat = wb_data[n].T @ d_b
            _accumulate(a_cells[n], d_a @ flat.T, fresh=True)
            d_flat += wa_data[n].T @ d_a
            dx += d_flat.reshape(c, frames, joints)

    return adjacencies, backward


def _graph_mix(shape: tuple, weights: Sequence[Tensor]):
    """Check a temporal graph mix of an input shaped `shape` and return its
    arithmetic as closures.

    weights[n] is (C, C).  `mix(x, a)` is the (C, T, J) sum_n W_n @ (x mixed
    along T by the (T, T) array a[n]), bit for bit the unfused
    permute/reshape/matmul/add chain: head n multiplies a[n] by the
    time-major (T, C J) copy of x, takes a channel-major copy of the result
    and maps it by W_n, summed in order n = 0..N-1.  For the output gradient
    `g`, `backward(g, x, a)` hands W_n its gradient, recomputing head n's
    mix, and returns the list of a[n]'s gradients and the input gradient,
    the heads' time-major terms summed over n = N-1..0 and seen channel-major.
    """
    c, frames, joints = shape
    w_data, w_cells = [w.data for w in weights], [w.cell for w in weights]

    def time_major(x: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(x.transpose(1, 0, 2)).reshape(frames, c * joints)

    def mixed(a: np.ndarray, tm: np.ndarray) -> np.ndarray:
        by_time = (a @ tm).reshape(frames, c, joints)
        return np.ascontiguousarray(by_time.transpose(1, 0, 2)).reshape(c, frames * joints)

    def mix(x: np.ndarray, a: Sequence[np.ndarray]) -> np.ndarray:
        tm = time_major(x)
        acc = w_data[0] @ mixed(a[0], tm)
        for n in range(1, len(w_data)):
            acc += w_data[n] @ mixed(a[n], tm)
        return acc.reshape(c, frames, joints)

    def backward(g: np.ndarray, x: np.ndarray, a: Sequence[np.ndarray]):
        g = g.reshape(c, frames * joints)
        tm = time_major(x)
        d_a, d_tm = [None] * len(w_data), None
        for n in reversed(range(len(w_data))):
            _accumulate(w_cells[n], g @ mixed(a[n], tm).T)
            d_mixed = (w_data[n].T @ g).reshape(c, frames, joints).transpose(
                1, 0, 2).reshape(frames, c * joints)
            d_a[n] = d_mixed @ tm.T
            term = a[n].T @ d_mixed
            if d_tm is None:
                d_tm = term
            else:
                d_tm += term
            del d_mixed, term  # freed before the next head allocates
        return d_a, d_tm.reshape(frames, c, joints).transpose(1, 0, 2)

    return mix, backward


def temporal_graph_conv(mhc: MultiHeadTemporalConv, f_s: Tensor,
                        adjacencies: Sequence[Tensor]) -> Tensor:
    """(C, T, J) -> (C, T, J): sum_n W_n @ (f_s mixed along T by A_n), one record.

    adjacencies[n] is (T, T), row i holding frame i's weights over all
    frames, and W_n is mhc's output map n.  The arithmetic is `_graph_mix`'s;
    the backward rule recomputes each head's mix from f_s instead of keeping it.
    """
    if f_s.data.ndim != 3:
        raise ShapeError(f"{mhc.identifier}: expected (C, T, J), got {f_s.shape}")
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
    mix, backward = _graph_mix(f_s.shape, [w_t.value for w_t in mhc.output_maps])
    x_data, a_data = f_s.data, [a.data for a in adjacencies]
    out = Tensor(mix(x_data, a_data))
    _check_finite(out.data, "temporal_graph_conv")
    x_cell, a_cells = f_s.cell, [a.cell for a in adjacencies]

    def rule(g):
        d_a, d_x = backward(g, x_data, a_data)
        for n in reversed(range(len(a_cells))):
            _accumulate(a_cells[n], d_a[n])
        _accumulate(x_cell, d_x)

    return _record(out, rule)
