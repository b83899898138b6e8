"""Scalar brute-force references for the vectorized network blocks, the
unfused op chains that the fused ops replace, and test-only helpers.

The scalar references are plain Python loops over float64 numpy scalars
that use no autodiff, so agreement with the library is evidence, not
circularity.  The `chain_*` functions are the op chains that each fused op
must reproduce bit for bit, outputs and gradients alike.
"""
import numpy as np

from tegraph.batchnorm import batchnorm
from tegraph.errors import GraphError
from tegraph.graph import SkeletonGraph
from tegraph.tensor import (
    Tensor,
    add,
    matmul,
    mul,
    permute,
    relu,
    reshape,
    slice_axis,
    softmax_rows,
)


def format_skeleton(clip) -> str:
    """Inverse of parse_skeleton_file for the coordinate fields.

    Tracking-state and confidence columns are written as zeros; floats use
    repr so a parse of the output reproduces the clip bit for bit.
    """
    out = [str(len(clip.frames))]
    for frame in clip.frames:
        out.append(str(len(frame)))
        for body in frame:
            out.append(" ".join([body.body_id] + ["0"] * 9))
            out.append(str(body.joints.shape[0]))
            for joint in body.joints:
                coords = " ".join(repr(float(v)) for v in joint)
                out.append(coords + " " + " ".join(["0"] * 9))
    return "\n".join(out) + "\n"


def permute_joints(graph: SkeletonGraph, perm) -> SkeletonGraph:
    """Relabel joints by `perm` (new index = perm[old index])."""
    perm = list(perm)
    if sorted(perm) != list(range(graph.num_joints)):
        raise GraphError("permutation must relabel every joint exactly once")
    edges = tuple((perm[a], perm[b]) for a, b in graph.edges)
    return SkeletonGraph(graph.num_joints, edges, perm[graph.center])


def sg_oracle(weights, masks, partitions, f):
    """out[c, t, i] = sum_k sum_ci sum_j W_k[c, ci] f[ci, t, j] (P_k * M_k)[i, j]."""
    num_subsets = len(weights)
    c_out = weights[0].shape[0]
    c_in, frames, joints = f.shape
    out = np.zeros((c_out, frames, joints))
    for k in range(num_subsets):
        gated = partitions[k] * masks[k]
        for c in range(c_out):
            for t in range(frames):
                for i in range(joints):
                    acc = 0.0
                    for ci in range(c_in):
                        for j in range(joints):
                            acc += weights[k][c, ci] * f[ci, t, j] * gated[i, j]
                    out[c, t, i] += acc
    return out


def tc_oracle(kernel, f, stride):
    """Temporal convolution with symmetric zero padding, one tap at a time."""
    c_out, c_in, kernel_t = kernel.shape
    _, frames, joints = f.shape
    pad = (kernel_t - 1) // 2
    padded = np.zeros((c_in, frames + 2 * pad, joints))
    padded[:, pad:pad + frames] = f
    out_frames = -(-frames // stride)
    out = np.zeros((c_out, out_frames, joints))
    for c in range(c_out):
        for p in range(out_frames):
            for j in range(joints):
                acc = 0.0
                for ci in range(c_in):
                    for k in range(kernel_t):
                        acc += kernel[c, ci, k] * padded[ci, p * stride + k, j]
                out[c, p, j] = acc
    return out


def feature_calculated_oracle(w_a, w_b, f):
    """r[i, j] = sum_{cr, v} (W_a f)[cr, i, v] (W_b f)[cr, j, v]."""
    c, frames, joints = f.shape
    reduced = w_a.shape[0]
    a = np.zeros((reduced, frames, joints))
    b = np.zeros((reduced, frames, joints))
    for cr in range(reduced):
        for t in range(frames):
            for v in range(joints):
                for ci in range(c):
                    a[cr, t, v] += w_a[cr, ci] * f[ci, t, v]
                    b[cr, t, v] += w_b[cr, ci] * f[ci, t, v]
    r = np.zeros((frames, frames))
    for i in range(frames):
        for j in range(frames):
            for cr in range(reduced):
                for v in range(joints):
                    r[i, j] += a[cr, i, v] * b[cr, j, v]
    return r


def feature_learned_oracle(c_conv, j_conv, t_conv, f):
    """Channel squeeze, joint squeeze, then r[i, j] = W[i, j] v[j]."""
    c, frames, joints = f.shape
    v = np.zeros(frames)
    for t in range(frames):
        for j in range(joints):
            g = 0.0
            for ci in range(c):
                g += c_conv[0, ci] * f[ci, t, j]
            v[t] += g * j_conv[j, 0]
    r = np.zeros((frames, frames))
    for i in range(frames):
        for j in range(frames):
            r[i, j] = t_conv[i, j] * v[j]
    return r


def temporal_graph_conv_oracle(adjacencies, output_maps, f):
    """out[c, t, j] = sum_n sum_ci W_n[c, ci] sum_u A_n[t, u] f[ci, u, j]."""
    c, frames, joints = f.shape
    out = np.zeros((c, frames, joints))
    for adj, w in zip(adjacencies, output_maps):
        for co in range(c):
            for t in range(frames):
                for j in range(joints):
                    acc = 0.0
                    for ci in range(c):
                        for u in range(frames):
                            acc += w[co, ci] * adj[t, u] * f[ci, u, j]
                    out[co, t, j] += acc
    return out


def softmax_rows_oracle(m):
    out = np.zeros_like(m, dtype=np.float64)
    for i in range(m.shape[0]):
        shifted = [v - max(m[i]) for v in m[i]]
        exps = [np.exp(v) for v in shifted]
        total = sum(exps)
        out[i] = [e / total for e in exps]
    return out


def chain_spatial_graph_conv(x, weights, partitions, masks):
    """The gate/channel-map/joint-mix chain sg_forward used to record per subset."""
    c_in, t, j = x.shape
    out = None
    for weight, partition, mask in zip(weights, partitions, masks):
        adjacency = mul(Tensor(partition), mask)
        c_out = weight.shape[0]
        mapped = reshape(matmul(weight, reshape(x, (c_in, t * j))), (c_out, t, j))
        mixed = matmul(reshape(mapped, (c_out * t, j)), permute(adjacency, (1, 0)))
        term = reshape(mixed, (c_out, t, j))
        out = term if out is None else add(out, term)
    return out


def chain_temporal_graph_mix(x, adjacencies, weights):
    """The time-major mix/head-output chain temporal_graph_conv used to record."""
    c, t, j = x.shape
    time_major = reshape(permute(x, (1, 0, 2)), (t, c * j))
    out = None
    for adjacency, weight in zip(adjacencies, weights):
        mixed = reshape(matmul(adjacency, time_major), (t, c, j))
        flat = reshape(permute(mixed, (1, 0, 2)), (c, t * j))
        mapped = reshape(matmul(weight, flat), (c, t, j))
        out = mapped if out is None else add(out, mapped)
    return out


def chain_calculated_heads(f, w_a, w_b):
    """Each feature-calculated head's projection/score chain and row softmax,
    in head order, as build_heads used to record them."""
    c, t, j = f.shape
    out = []
    for wa, wb in zip(w_a, w_b):
        reduced = wa.shape[0]
        flat = reshape(f, (c, t * j))
        a = reshape(matmul(wa, flat), (reduced, t, j))
        b = reshape(matmul(wb, flat), (reduced, t, j))
        a_rows = reshape(permute(a, (1, 0, 2)), (t, reduced * j))
        b_cols = reshape(permute(b, (0, 2, 1)), (reduced * j, t))
        out.append(softmax_rows(matmul(a_rows, b_cols)))
    return out


def chain_batchnorm_relu(x, gamma, beta, running_mean, running_var, training):
    """The batchnorm and relu records tc_forward makes after its temporal conv,
    and the tail of the chain spatial_graph_bn_relu replaces."""
    return relu(batchnorm(x, gamma, beta, running_mean, running_var, training))


def chain_spatial_graph_bn_relu(sg, x):
    """The graph conv, batchnorm and relu chain sg_forward used to record."""
    bn = sg.bn
    out = chain_spatial_graph_conv(x, [w.value for w in sg.weights], sg.partitions,
                                   [mask.value for mask in sg.masks])
    return chain_batchnorm_relu(out, bn.gamma.value, bn.beta.value, bn.running_mean,
                                bn.running_var, bn.training)


def chain_spatial_tgraph_stage(sg, mhc, x):
    """The spatial, feature-calculated head, mix and skip-add chain a tgraph
    layer used to record, and its adjacencies."""
    s = chain_spatial_graph_bn_relu(sg, x)
    adjacencies = chain_calculated_heads(s, [w.value for w in mhc.w_a],
                                         [w.value for w in mhc.w_b])
    mixed = chain_temporal_graph_mix(s, adjacencies, [w.value for w in mhc.output_maps])
    return add(s, mixed), adjacencies


def chain_channel_projection(f, w2d, stride):
    """The slice/reshape/matmul chain ChannelProjection used to record for a
    (C_out, C_in) weight: every stride-th frame, then a 1x1 channel map."""
    if stride > 1:
        frames = f.shape[1]
        f = slice_axis(f, 1, 0, (-(-frames // stride) - 1) * stride + 1, stride)
    c_in, t, j = f.shape
    return reshape(matmul(w2d, reshape(f, (c_in, t * j))), (w2d.shape[0], t, j))


def sgd_step_out_of_place(theta, g, v, lr, weight_decay, momentum):
    """The SGD step as fresh arrays, (theta', v'), for a momentum buffer `v`
    (None before the first step): the formula training.sgd_step runs in place."""
    if v is None:
        v = np.zeros_like(theta)
    v = momentum * v + g + weight_decay * theta
    return theta - lr * v, v
