"""Scalar brute-force references for the vectorized network blocks, and
test-only helpers.

Everything here is plain Python loops over float64 numpy scalars; nothing
imports the autodiff machinery, so agreement with the library is evidence,
not circularity.
"""
import numpy as np

from tegraph.errors import GraphError
from tegraph.graph import SkeletonGraph


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


def feature_learned_oracle(c_conv, j_conv, t_conv, t_bias, f):
    """Channel squeeze, joint squeeze, then r[i, j] = W[i, j] v[j] + b[i]."""
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
            r[i, j] = t_conv[i, j] * v[j] + t_bias[i, 0]
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
