"""Skeleton connectivity: adjacency, distance partitioning, normalization.

A skeleton is an undirected graph over joint indices with a designated
center joint.  Spatial convolution splits the one-hop neighborhood of each
joint into three subsets by hop distance to the center:

    subset 0: neighbors at the same distance as the joint, plus the joint
              itself (on a tree this is exactly the identity),
    subset 1: neighbors strictly closer to the center,
    subset 2: neighbors strictly farther from the center.

Matrices are destination-major: entry [i, j] connects destination i to
source j, so `out[:, i] = sum_j A[i, j] * f[:, j]`.

Normalization is per-subset random walk (divide each row by its own sum,
leaving all-zero rows untouched).  A symmetric split was rejected: the
three subsets are individually asymmetric, and on something as small as a
three-joint chain a symmetric scaling either breaks the identity subset or
pushes row sums past one.  Row-stochastic rows keep every subset an average
over contributing sources, which is also what the row-sum checks in the
test suite pin down.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import GraphError

# Joint pairs for the 25-joint capture rig, zero-based.  Order within a pair
# is irrelevant here; bone orientation is derived from hop distances.
NTU_EDGES: tuple[tuple[int, int], ...] = (
    (0, 1), (1, 20), (2, 20), (3, 2), (4, 20), (5, 4), (6, 5), (7, 6),
    (8, 20), (9, 8), (10, 9), (11, 10), (12, 0), (13, 12), (14, 13),
    (15, 14), (16, 0), (17, 16), (18, 17), (19, 18), (21, 22), (22, 7),
    (23, 24), (24, 11),
)
NTU_NUM_JOINTS = 25
NTU_CENTER = 20        # base of the neck; the hub the partition radiates from
NTU_SPINE = 1          # mid-spine joint used for translation centering


@dataclass(frozen=True)
class SkeletonGraph:
    num_joints: int
    edges: tuple[tuple[int, int], ...]
    center: int

    def __post_init__(self):
        seen = set()
        for a, b in self.edges:
            if not (0 <= a < self.num_joints and 0 <= b < self.num_joints):
                raise GraphError(f"edge ({a}, {b}) out of range for {self.num_joints} joints")
            if a == b:
                raise GraphError(f"self loop at joint {a}")
            key = (min(a, b), max(a, b))
            if key in seen:
                raise GraphError(f"duplicate edge ({a}, {b})")
            seen.add(key)
        if not 0 <= self.center < self.num_joints:
            raise GraphError(f"center joint {self.center} out of range")


def ntu_graph() -> SkeletonGraph:
    return SkeletonGraph(NTU_NUM_JOINTS, NTU_EDGES, NTU_CENTER)


def chain_graph(num_joints: int, center: int = 0) -> SkeletonGraph:
    """Path graph 0-1-...-n-1; handy for small exact-by-hand fixtures."""
    edges = tuple((i, i + 1) for i in range(num_joints - 1))
    return SkeletonGraph(num_joints, edges, center)


def adjacency(graph: SkeletonGraph) -> np.ndarray:
    """Symmetric 0/1 adjacency with a zero diagonal, float64."""
    a = np.zeros((graph.num_joints, graph.num_joints), dtype=np.float64)
    for i, j in graph.edges:
        a[i, j] = 1.0
        a[j, i] = 1.0
    return a


def hop_distances(graph: SkeletonGraph) -> np.ndarray:
    """BFS hop count from every joint to the center; all joints must reach it."""
    dist = np.full(graph.num_joints, -1, dtype=np.int64)
    neighbors: list[list[int]] = [[] for _ in range(graph.num_joints)]
    for i, j in graph.edges:
        neighbors[i].append(j)
        neighbors[j].append(i)
    dist[graph.center] = 0
    queue = deque([graph.center])
    while queue:
        u = queue.popleft()
        for v in neighbors[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    if np.any(dist < 0):
        missing = [int(k) for k in np.flatnonzero(dist < 0)]
        raise GraphError(f"joints {missing} are unreachable from center {graph.center}")
    return dist


def partitions(graph: SkeletonGraph) -> np.ndarray:
    """Unnormalized subset matrices, shape (3, J, J).

    Subset 0 carries the self loop and any equal-distance neighbors; on a
    tree adjacent joints always differ by one hop, so it reduces to the
    identity there.
    """
    dist = hop_distances(graph)
    j = graph.num_joints
    parts = np.zeros((3, j, j), dtype=np.float64)
    parts[0] = np.eye(j)
    for a, b in graph.edges:
        for dest, src in ((a, b), (b, a)):
            if dist[src] == dist[dest]:
                parts[0, dest, src] = 1.0
            elif dist[src] < dist[dest]:
                parts[1, dest, src] = 1.0
            else:
                parts[2, dest, src] = 1.0
    return parts


def normalize_partitions(parts: np.ndarray) -> np.ndarray:
    """Row-normalize each subset; rows with no sources stay all zero."""
    normalized = np.array(parts, dtype=np.float64)
    for k in range(normalized.shape[0]):
        row_sums = normalized[k].sum(axis=1)
        nonzero = row_sums > 0
        normalized[k][nonzero] /= row_sums[nonzero, None]
    return normalized


def normalized_partitions(graph: SkeletonGraph) -> np.ndarray:
    return normalize_partitions(partitions(graph))


def bone_pairs(graph: SkeletonGraph) -> list[tuple[int, int]]:
    """(source, target) per non-center joint, source one hop closer to center.

    On a tree every joint except the center has exactly one closer neighbor;
    ambiguity (several closer neighbors, possible with cycles) is an error
    because the bone vector would be ill-defined.
    """
    dist = hop_distances(graph)
    closer: dict[int, list[int]] = {i: [] for i in range(graph.num_joints)}
    for a, b in graph.edges:
        if dist[a] < dist[b]:
            closer[b].append(a)
        elif dist[b] < dist[a]:
            closer[a].append(b)
    pairs = []
    for target in range(graph.num_joints):
        if target == graph.center:
            continue
        sources = closer[target]
        if len(sources) != 1:
            raise GraphError(
                f"joint {target} has {len(sources)} closer neighbors; "
                "bone orientation needs exactly one"
            )
        pairs.append((sources[0], target))
    return pairs
