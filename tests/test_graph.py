"""Skeleton graph structure: partitions, normalization, bones, relabeling."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import permute_joints
from tegraph.errors import GraphError
from tegraph.graph import (
    NTU_CENTER,
    NTU_NUM_JOINTS,
    SkeletonGraph,
    adjacency,
    bone_pairs,
    chain_graph,
    hop_distances,
    normalize_partitions,
    normalized_partitions,
    ntu_graph,
    partitions,
)


def random_tree(num_joints, seed, center=0):
    """Uniform-ish random tree: node i > 0 attaches to an earlier node."""
    rng = np.random.default_rng(seed)
    edges = tuple((int(rng.integers(0, i)), i) for i in range(1, num_joints))
    return SkeletonGraph(num_joints, edges, center)


def test_three_chain_partition_by_hand():
    g = chain_graph(3, center=0)
    parts = partitions(g)
    np.testing.assert_array_equal(parts[0], np.eye(3))
    closer = np.zeros((3, 3))
    closer[1, 0] = 1.0  # joint 1's neighbor 0 is nearer the center
    closer[2, 1] = 1.0
    np.testing.assert_array_equal(parts[1], closer)
    np.testing.assert_array_equal(parts[2], closer.T)


def test_single_joint_graph():
    g = SkeletonGraph(1, (), 0)
    parts = partitions(g)
    np.testing.assert_array_equal(parts[0], [[1.0]])
    np.testing.assert_array_equal(parts[1], [[0.0]])
    np.testing.assert_array_equal(parts[2], [[0.0]])
    assert bone_pairs(g) == []


def test_partition_sum_recovers_self_looped_adjacency():
    for g in [chain_graph(2), chain_graph(7, center=3), ntu_graph()]:
        total = partitions(g).sum(axis=0)
        np.testing.assert_array_equal(total, adjacency(g) + np.eye(g.num_joints))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 12), st.integers(0, 2 ** 32 - 1))
def test_partition_sum_identity_on_random_trees(num_joints, seed):
    g = random_tree(num_joints, seed, center=seed % num_joints)
    total = partitions(g).sum(axis=0)
    np.testing.assert_array_equal(total, adjacency(g) + np.eye(num_joints))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 12), st.integers(0, 2 ** 32 - 1))
def test_normalized_rows_sum_to_one_or_zero(num_joints, seed):
    g = random_tree(num_joints, seed)
    raw = partitions(g)
    normed = normalize_partitions(raw)
    assert np.all(normed >= 0)
    for k in range(3):
        raw_sums = raw[k].sum(axis=1)
        normed_sums = normed[k].sum(axis=1)
        # rows with sources become exactly stochastic; empty rows stay empty
        np.testing.assert_array_equal(normed_sums[raw_sums == 0], 0.0)
        np.testing.assert_allclose(normed_sums[raw_sums > 0], 1.0, rtol=0, atol=1e-12)


def test_normalization_keeps_subset_zero_identity_on_trees():
    g = chain_graph(5, center=2)
    np.testing.assert_array_equal(normalized_partitions(g)[0], np.eye(5))


def test_equal_distance_neighbors_join_subset_zero():
    triangle = SkeletonGraph(3, ((0, 1), (1, 2), (0, 2)), 0)
    parts = partitions(triangle)
    expected = np.eye(3)
    expected[1, 2] = expected[2, 1] = 1.0  # both sit one hop from the center
    np.testing.assert_array_equal(parts[0], expected)


def test_capture_rig_graph_is_consistent():
    g = ntu_graph()
    assert g.num_joints == NTU_NUM_JOINTS
    assert len(g.edges) == NTU_NUM_JOINTS - 1  # a tree
    dist = hop_distances(g)
    assert dist[NTU_CENTER] == 0
    assert dist[1] == 1 and dist[0] == 2 and dist[3] == 2
    pairs = bone_pairs(g)
    assert len(pairs) == NTU_NUM_JOINTS - 1
    targets = {t for _, t in pairs}
    assert NTU_CENTER not in targets and len(targets) == NTU_NUM_JOINTS - 1
    for source, target in pairs:
        assert dist[source] == dist[target] - 1


def test_chain_bone_pairs_point_away_from_center():
    assert bone_pairs(chain_graph(3, center=0)) == [(0, 1), (1, 2)]
    assert bone_pairs(chain_graph(3, center=2)) == [(1, 0), (2, 1)]


def test_bone_orientation_rejects_ambiguity():
    square = SkeletonGraph(4, ((0, 1), (1, 2), (2, 3), (3, 0)), 0)
    with pytest.raises(GraphError, match="closer neighbors"):
        bone_pairs(square)


def test_unreachable_joint_is_an_error():
    split = SkeletonGraph(4, ((0, 1), (2, 3)), 0)
    with pytest.raises(GraphError, match="unreachable"):
        hop_distances(split)


def test_graph_validation():
    with pytest.raises(GraphError):
        SkeletonGraph(3, ((0, 3),), 0)  # out of range
    with pytest.raises(GraphError):
        SkeletonGraph(3, ((1, 1),), 0)  # self loop
    with pytest.raises(GraphError):
        SkeletonGraph(3, ((0, 1), (1, 0)), 0)  # duplicate, reversed
    with pytest.raises(GraphError):
        SkeletonGraph(3, ((0, 1),), 5)  # bad center


def test_permute_joints_conjugates_adjacency():
    g = chain_graph(5, center=1)
    perm = [4, 2, 0, 3, 1]
    relabeled = permute_joints(g, perm)
    assert relabeled.center == perm[g.center]
    p = np.zeros((5, 5))
    for old, new in enumerate(perm):
        p[new, old] = 1.0
    np.testing.assert_array_equal(adjacency(relabeled), p @ adjacency(g) @ p.T)
    # hop distances travel with the relabeling
    np.testing.assert_array_equal(hop_distances(relabeled)[perm], hop_distances(g))
    with pytest.raises(GraphError):
        permute_joints(g, [0, 0, 1, 2, 3])
