"""Layer assembly, whole-network behavior, and score fusion."""
import numpy as np
import pytest

from oracles import permute_joints
from tegraph import precision
from tegraph.errors import ConfigError, DataError, ShapeError
from tegraph.graph import chain_graph
from tegraph.model import (
    BACKBONE_CHANNELS,
    LayerSpec,
    ModelConfig,
    Network,
    backbone_config,
    build_graph,
    fuse_streams,
    fused_accuracy,
)
from tegraph.tensor import Tape, Tensor


def small_config(modes, heads=2, relevance="feature-calculated", channels=4,
                 num_classes=3, seed=0, max_bodies=1):
    layers = []
    in_c = 3
    for mode in modes:
        layers.append(LayerSpec(in_c, channels, 1, mode, 3))
        in_c = channels
    return ModelConfig(layers=layers, num_classes=num_classes, num_joints=4,
                       fixed_length=6, max_bodies=max_bodies, heads=heads,
                       relevance=relevance, graph="chain", seed=seed)


def sample(seed=0, frames=6, joints=4, bodies=1):
    return np.random.default_rng(seed).normal(size=(3, frames, joints, bodies))


# ---------------------------------------------------------------------------
# Layer specs and configs


def test_layer_spec_validation():
    with pytest.raises(ConfigError):
        LayerSpec(3, 4, stride=3)
    with pytest.raises(ConfigError):
        LayerSpec(3, 4, mode="conv")
    with pytest.raises(ConfigError, match="stride 1"):
        LayerSpec(3, 4, stride=2, mode="tgraph")
    with pytest.raises(ConfigError):
        LayerSpec(0, 4)


def test_model_config_validation():
    with pytest.raises(ConfigError, match="coordinate"):
        ModelConfig([LayerSpec(4, 4)], 2, 4, 6)
    with pytest.raises(ConfigError, match="chain broken"):
        ModelConfig([LayerSpec(3, 4), LayerSpec(8, 8)], 2, 4, 6)
    with pytest.raises(ConfigError, match="two classes"):
        ModelConfig([LayerSpec(3, 4)], 1, 4, 6)
    with pytest.raises(ConfigError, match="relevance"):
        ModelConfig([LayerSpec(3, 4)], 2, 4, 6, relevance="learned")
    for center in (-1, 4):
        with pytest.raises(ConfigError, match=f"graph_center {center} outside"):
            ModelConfig([LayerSpec(3, 4)], 2, 4, 6, graph_center=center)
    assert ModelConfig([LayerSpec(3, 4)], 2, 4, 6, graph="ntu", graph_center=20).graph == "ntu"


def test_model_config_dict_round_trip():
    config = small_config(["tc", "both"], relevance="feature-learned")
    again = ModelConfig.from_dict(config.to_dict())
    assert again == config
    assert again.to_dict() == config.to_dict()


def test_backbone_structure():
    config = backbone_config(num_classes=60)
    assert [s.out_channels for s in config.layers] == list(BACKBONE_CHANNELS)
    assert [s.stride for s in config.layers] == [1, 1, 1, 1, 2, 1, 1, 2, 1]
    assert [s.mode for s in config.layers] == ["tc"] * 8 + ["both"]
    assert config.layers[0].in_channels == 3


def test_backbone_insertion_and_replace_all():
    config = backbone_config(num_classes=5, insertion_layer=4, insertion_mode="tgraph")
    assert [s.mode for s in config.layers] == ["tc"] * 3 + ["tgraph"] + ["tc"] * 5
    swapped = backbone_config(num_classes=5, replace_all=True)
    # stride-2 layers must keep their plain convolution
    assert [s.mode for s in swapped.layers] == [
        "tgraph", "tgraph", "tgraph", "tgraph", "tc", "tgraph", "tgraph", "tc", "tgraph"
    ]
    with pytest.raises(ConfigError, match="insertion layer"):
        backbone_config(num_classes=5, insertion_layer=10)


def test_build_graph_variants():
    chain = build_graph(small_config(["tc"]))
    assert chain.num_joints == 4
    with pytest.raises(ConfigError, match="ntu"):
        build_graph(ModelConfig([LayerSpec(3, 4)], 2, 4, 6, graph="ntu"))
    with pytest.raises(ConfigError, match="graph kind"):
        build_graph(ModelConfig([LayerSpec(3, 4)], 2, 4, 6, graph="mesh"))


def test_backbone_shape_table_at_capture_scale():
    config = backbone_config(num_classes=60, num_joints=25, fixed_length=300)
    net = Network(config)
    rows = net.shape_table()
    frames = [shape[1] for _, shape in rows]
    assert frames == [300, 300, 300, 300, 150, 150, 150, 75, 75]
    channels = [shape[0] for _, shape in rows]
    assert channels == list(BACKBONE_CHANNELS)
    assert all(shape[2] == 25 for _, shape in rows)
    assert net.final_frames == 75 and net.final_channels == 256


# ---------------------------------------------------------------------------
# Forward behavior


def test_forward_logit_shape_and_validation():
    net = Network(small_config(["tc", "tc"]))
    logits = net.forward_sample(sample())
    assert logits.shape == (1, 3)
    with pytest.raises(ShapeError, match="sample shape"):
        net.forward_sample(np.zeros((3, 5, 4, 1)))


def test_inserting_silent_temporal_graph_keeps_logits_bit_identical():
    x = sample(1)
    plain = Network(small_config(["tc", "tc"]))
    upgraded = Network(small_config(["tc", "both"]))
    plain.set_training(False)
    upgraded.set_training(False)
    a = plain.forward_sample(x).data
    b = upgraded.forward_sample(x).data
    assert np.array_equal(a, b)


def test_head_count_is_invisible_at_init():
    # name-keyed parameter init: extra heads add parameters without
    # perturbing anyone else's draws, and zero output maps keep them silent
    x = sample(2)
    outs = []
    for heads in (1, 4):
        net = Network(small_config(["tc", "both"], heads=heads))
        net.set_training(False)
        outs.append(net.forward_sample(x).data)
    assert np.array_equal(outs[0], outs[1])


def test_relevance_kind_is_invisible_at_init():
    x = sample(3)
    outs = []
    for relevance in ("feature-calculated", "feature-learned"):
        net = Network(small_config(["tc", "tgraph"], relevance=relevance))
        net.set_training(False)
        outs.append(net.forward_sample(x).data)
    assert np.array_equal(outs[0], outs[1])


def test_body_slots_are_exchangeable():
    net = Network(small_config(["tc", "tc"], max_bodies=2))
    net.set_training(False)
    x = sample(4, bodies=2)
    a = net.forward_sample(x).data
    b = net.forward_sample(x[..., ::-1].copy()).data
    np.testing.assert_array_equal(a, b)


def test_all_zero_input_maps_to_zero_logits_in_eval():
    net = Network(small_config(["tc", "tc"]))
    net.set_training(False)
    logits = net.forward_sample(np.zeros((3, 6, 4, 1))).data
    np.testing.assert_array_equal(logits, 0.0)


def test_joint_permutation_leaves_logits_invariant():
    config = small_config(["tc", "both"])
    perm = np.array([2, 0, 3, 1])
    p = np.zeros((4, 4))
    for old, new in enumerate(perm):
        p[new, old] = 1.0
    base_graph = chain_graph(4, 0)
    net_a = Network(config, graph=base_graph)
    net_b = Network(config, graph=permute_joints(base_graph, perm))
    net_a.set_training(False)
    net_b.set_training(False)
    x = sample(5)
    x_perm = np.einsum("ctjm,ij->ctim", x, p)
    a = net_a.forward_sample(x).data
    b = net_b.forward_sample(x_perm).data
    np.testing.assert_allclose(b, a, rtol=0, atol=1e-6)


def test_joint_permutation_with_learned_heads_needs_permuted_anchors():
    config = small_config(["tc", "tgraph"], relevance="feature-learned")
    perm = np.array([1, 3, 0, 2])
    p = np.zeros((4, 4))
    for old, new in enumerate(perm):
        p[new, old] = 1.0
    base_graph = chain_graph(4, 0)
    net_a = Network(config, graph=base_graph)
    net_b = Network(config, graph=permute_joints(base_graph, perm))
    # give the silent stage visible output and relabel the per-joint weights
    rng = np.random.default_rng(6)
    for la, lb in zip(net_a.layers, net_b.layers):
        if la.tgc is None:
            continue
        for wa, wb in zip(la.tgc.output_maps, lb.tgc.output_maps):
            dense = 0.3 * rng.normal(size=wa.shape)
            wa.assign(dense)
            wb.assign(dense)
        for ja, jb in zip(la.tgc.j_conv, lb.tgc.j_conv):
            jb.assign(p @ ja.value.data)
    net_a.set_training(False)
    net_b.set_training(False)
    x = sample(7)
    a = net_a.forward_sample(x).data
    b = net_b.forward_sample(np.einsum("ctjm,ij->ctim", x, p)).data
    np.testing.assert_allclose(b, a, rtol=0, atol=1e-6)


def test_collector_reports_adjacency_per_head():
    net = Network(small_config(["tc", "tgraph"], heads=3))
    collector = []
    net.forward_sample(sample(8), collector=collector)
    names = [name for name, _ in collector]
    assert names == ["layer2.head0", "layer2.head1", "layer2.head2"]
    for _, adj in collector:
        assert adj.shape == (6, 6)
        np.testing.assert_allclose(adj.sum(axis=1), 1.0, rtol=0, atol=1e-9)


SG_PARAMETERS = ["sg.w0", "sg.w1", "sg.w2", "sg.mask0", "sg.mask1", "sg.mask2",
                    "sg.bn.gamma", "sg.bn.beta"]
TC_PARAMETERS = ["tc.kernel", "tc.bn.gamma", "tc.bn.beta"]


@pytest.mark.parametrize("relevance,head_parameters", [
    ("feature-calculated", ["wa", "wb"]),
    ("feature-learned", ["cconv", "jconv", "tconv"]),
])
def test_parameter_identifiers_keep_their_order(relevance, head_parameters):
    """The order of Network.parameters() is the order of a checkpoint's
    entries, so it fixes the checkpoint's bytes."""
    net = Network(small_config(["tc", "both"], heads=2, relevance=relevance))
    heads = [f"layer2.tgc.head{n}.{name}" for n in range(2) for name in head_parameters]
    assert [p.identifier for p in net.parameters()] == [
        "input.bn.gamma", "input.bn.beta",
        *(f"layer1.{name}" for name in SG_PARAMETERS + TC_PARAMETERS), "layer1.res.weight",
        *(f"layer2.{name}" for name in SG_PARAMETERS), *heads,
        "layer2.tgc.wt0", "layer2.tgc.wt1", *(f"layer2.{name}" for name in TC_PARAMETERS),
        "fc.weight", "fc.bias",
    ]


def test_loss_is_negative_log_probability():
    net = Network(small_config(["tc"]))
    logits = Tensor(np.array([[2.0, -1.0, 0.5]]))
    for label in range(3):
        expected = -(logits.data[0, label]
                     - np.log(np.exp(logits.data[0]).sum()))
        assert net.loss(logits, label).item() == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ConfigError):
        net.loss(logits, 3)


def test_training_forward_backward_touches_every_parameter():
    net = Network(small_config(["tc", "both"], relevance="feature-calculated"))
    x = sample(9)
    with Tape() as tape:
        loss = net.loss(net.forward_sample(x), 1)
        tape.backward(loss)
    # every parameter must receive a finite gradient buffer
    for p in net.parameters():
        assert p.grad.shape == p.shape
        assert np.all(np.isfinite(p.grad))
    # and at least the classifier weights must feel the loss
    assert np.abs(net.fc_weight.grad).max() > 0


def test_forward_runs_in_train_precision():
    with precision.scoped_mode("train"):
        net = Network(small_config(["tc", "tc"]))
        logits = net.forward_sample(sample(10).astype(np.float32))
        assert logits.data.dtype == np.float32


def test_stride_two_layer_halves_frames():
    layers = [LayerSpec(3, 4, 1, "tc", 3), LayerSpec(4, 8, 2, "tc", 3)]
    config = ModelConfig(layers, 2, 4, 6, graph="chain")
    net = Network(config)
    assert net.shape_table() == [("layer1", (4, 6, 4)), ("layer2", (8, 3, 4))]
    assert net.forward_sample(sample(11)).shape == (1, 2)


# ---------------------------------------------------------------------------
# Fusion


def test_fusion_hand_example():
    fused = fuse_streams([np.array([0.6, 0.4]), np.array([0.2, 0.8])])
    np.testing.assert_allclose(fused, [0.4, 0.6], rtol=0, atol=1e-15)


def test_fusion_of_identical_streams_is_the_stream():
    s = np.array([0.1, 0.7, 0.2])
    fused = fuse_streams([s, s, s, s])
    np.testing.assert_allclose(fused, s, rtol=0, atol=1e-12)


def test_fusion_weight_scale_invariance():
    a = np.array([0.3, 0.7])
    b = np.array([0.9, 0.1])
    lhs = fuse_streams([a, b], [1.0, 3.0])
    rhs = fuse_streams([a, b], [2.0, 6.0])
    np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-15)
    np.testing.assert_allclose(lhs.sum(), 1.0, rtol=0, atol=1e-15)


def test_fusion_validation():
    with pytest.raises(ConfigError):
        fuse_streams([])
    with pytest.raises(ConfigError):
        fuse_streams([np.ones(2)], [1.0, 2.0])
    with pytest.raises(ConfigError):
        fuse_streams([np.ones(2)], [-1.0])
    with pytest.raises(ConfigError, match="finite"):
        fuse_streams([np.ones(2), np.ones(2)], [float("nan"), 1.0])
    with pytest.raises(ConfigError, match="overflows"), np.errstate(over="ignore"):
        fuse_streams([np.ones(2), np.ones(2)], [1e308, 1e308])
    with pytest.raises(ShapeError):
        fuse_streams([np.ones(2), np.ones(3)])
    with pytest.raises(ConfigError, match="zero"):
        fuse_streams([np.ones(2)], [0.0])


def test_fused_accuracy_counts_fused_argmax_hits():
    a = [np.array([0.6, 0.4]), np.array([0.6, 0.4]), np.array([0.1, 0.9])]
    b = [np.array([0.2, 0.8]), np.array([0.9, 0.1]), np.array([0.3, 0.7])]
    # fused: [0.4, 0.6] -> 1, [0.75, 0.25] -> 0, [0.2, 0.8] -> 1
    assert fused_accuracy([a, b], [1, 1, 1]) == pytest.approx(2 / 3)
    # b alone decides with weights 0, 1: argmaxes 1, 0, 1
    assert fused_accuracy([a, b], [1, 0, 0], [0.0, 1.0]) == pytest.approx(2 / 3)
    with pytest.raises(ConfigError, match="finite"):
        fused_accuracy([a, b], [1, 1, 1], [1.0, float("nan")])
    with pytest.raises(DataError):
        fused_accuracy([[], []], [])
