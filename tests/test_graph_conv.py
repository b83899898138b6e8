"""The graph convolutions reproduce the unfused op chains bit for bit.

The spatial graph conv is the arithmetic `blocks._spatial_graph` hands the
three spatial-stage records; those stages and the relevance heads are
tested in test_fused_stages.py.
"""
from pathlib import Path

import numpy as np
import pytest

from oracles import chain_spatial_graph_conv, chain_temporal_graph_mix
from tegraph import gradcheck, precision
from tegraph.blocks import SGBlock, _spatial_graph, sg_forward
from tegraph.cli import main
from tegraph.errors import ShapeError
from tegraph.graph import chain_graph, normalized_partitions
from tegraph.model import LayerSpec, ModelConfig, Network, backbone_config
from tegraph.temporal import MultiHeadTemporalConv, temporal_graph_conv
from tegraph.tensor import OP_NAMES, Tape, Tensor


def run(op, x_data, first, second, seed_grad, x_grad):
    """Output and every gradient of one taped call; x already holds a gradient,
    so the order of the op's contributions to it is compared as well."""
    x = Tensor(x_data)
    x.grad = x_grad.copy()
    first = [Tensor(a) for a in first]
    second = [Tensor(a) for a in second]
    with Tape() as tape:
        out = op(x, first, second)
        tape.backward(out, seed=seed_grad)
    return [out.data, x.grad] + [t.grad for t in first + second]


def run_spatial_graph(x_data, weights, partitions, masks, seed_grad, x_grad):
    """`run` for the graph conv's own closures: conv() and backward(g)."""
    x = Tensor(x_data)
    x.grad = x_grad.copy()
    weights = [Tensor(a) for a in weights]
    masks = [Tensor(a) for a in masks]
    conv, backward = _spatial_graph(x, weights, partitions, masks)
    out = conv()
    backward(seed_grad)
    return [out, x.grad] + [t.grad for t in weights + masks]


def assert_all_equal(fused, chain):
    assert len(fused) == len(chain)
    for n, (got, expected) in enumerate(zip(fused, chain)):
        assert got.dtype == expected.dtype and got.shape == expected.shape, n
        assert np.array_equal(got, expected), f"array {n} differs from the chain"


SG_CASES = [
    # (subsets, c_in, c_out, frames, joints)
    *[(k, 4, 4, 6, 5) for k in (1, 2, 3)],
    (3, 3, 5, 7, 4),   # channel count changes
    (2, 6, 2, 4, 3),
    (3, 4, 3, 1, 5),   # T = 1
    (1, 2, 2, 3, 1),   # one joint
    (3, 8, 16, 32, 25),  # here the mixer's memory layout changes float64 GEMM bits
]


@pytest.mark.parametrize("mode", ["verify", "train"])
@pytest.mark.parametrize("subsets,c_in,c_out,frames,joints", SG_CASES)
def test_spatial_graph_conv_is_bit_identical_to_the_chain(mode, subsets, c_in, c_out,
                                                          frames, joints):
    rng = np.random.default_rng(subsets * 1000 + c_in * 100 + c_out * 10 + frames)
    with precision.scoped_mode(mode):
        dtype = precision.dtype()

        def draw(*shape):
            return rng.normal(size=shape).astype(dtype)

        x = draw(c_in, frames, joints)
        weights = [draw(c_out, c_in) for _ in range(subsets)]
        partitions = rng.normal(size=(subsets, joints, joints))  # float64, cast by the conv
        masks = [draw(joints, joints) for _ in range(subsets)]
        g, x_grad = draw(c_out, frames, joints), draw(c_in, frames, joints)
        fused = run_spatial_graph(x, weights, partitions, masks, g, x_grad)
        chain = run(lambda f, w, m: chain_spatial_graph_conv(f, w, partitions, m),
                    x, weights, masks, g, x_grad)
    assert fused[0].dtype == dtype
    assert_all_equal(fused, chain)


TGC_CASES = [
    # (heads, channels, frames, joints)
    *[(n, 4, 9, 3) for n in (1, 2, 3, 4)],
    (2, 3, 1, 4),   # T = 1
    (4, 8, 16, 5),
    (3, 1, 6, 2),   # one channel
    (2, 16, 32, 25),
]


@pytest.mark.parametrize("mode", ["verify", "train"])
@pytest.mark.parametrize("heads,channels,frames,joints", TGC_CASES)
def test_temporal_graph_conv_is_bit_identical_to_the_chain(mode, heads, channels, frames,
                                                           joints):
    rng = np.random.default_rng(heads * 1000 + channels * 100 + frames)
    with precision.scoped_mode(mode):
        dtype = precision.dtype()
        mhc = MultiHeadTemporalConv(heads, "feature-learned", channels, frames, joints, "t")

        def conv(x, adjacencies, weights):  # the output maps are the drawn weights
            for w_t, weight in zip(mhc.output_maps, weights):
                w_t.value = weight
            return temporal_graph_conv(mhc, x, adjacencies)

        def draw(*shape):
            return rng.normal(size=shape).astype(dtype)

        x = draw(channels, frames, joints)
        adjacencies = [draw(frames, frames) for _ in range(heads)]
        weights = [draw(channels, channels) for _ in range(heads)]  # nonzero output maps
        g, x_grad = draw(channels, frames, joints), draw(channels, frames, joints)
        fused = run(conv, x, adjacencies, weights, g, x_grad)
        chain = run(chain_temporal_graph_mix, x, adjacencies, weights, g, x_grad)
    assert fused[0].dtype == dtype
    assert_all_equal(fused, chain)


@pytest.mark.parametrize("name", ["temporal_graph_conv"])
def test_fused_ops_are_registered_and_gradient_checked(name):
    assert name in OP_NAMES and name in gradcheck.OP_CHECKS
    [(checked, result)] = list(gradcheck.check_all_ops(seed=5, only=name))
    assert checked == name and result.ok, str(result)


def op_names(tape):
    return [rule.__qualname__.split(".")[0] for rule in tape._records]


def test_sg_stage_records_one_graph_conv():
    parts = normalized_partitions(chain_graph(4, 0))
    block = SGBlock(3, 5, parts, "t.sg", seed=1)
    x = Tensor(np.random.default_rng(1).normal(size=(3, 6, 4)))
    with Tape() as tape:
        out = sg_forward(block, x)
    assert op_names(tape) == ["spatial_graph_bn_relu"]
    tape.backward(out, seed=np.random.default_rng(2).normal(size=out.shape))
    assert all(w.grad.any() for w in block.weights)
    assert all(m.grad.any() for m in block.masks)


def test_tgc_stage_records_one_graph_conv():
    mhc = MultiHeadTemporalConv(3, "feature-calculated", 4, 5, 2, "t.tgc", seed=2)
    rng = np.random.default_rng(4)
    for w_t in mhc.output_maps:
        w_t.assign(rng.normal(size=w_t.shape))
    adjacencies = [Tensor(rng.uniform(size=(5, 5))) for _ in mhc.output_maps]
    with Tape() as tape:
        out = temporal_graph_conv(mhc, Tensor(rng.normal(size=(4, 5, 2))), adjacencies)
    assert op_names(tape) == ["temporal_graph_conv"]
    tape.backward(out)
    assert all(w_t.grad.any() for w_t in mhc.output_maps)
    assert all(a.grad.any() for a in adjacencies)


def test_every_layer_records_one_op_per_graph_stage():
    config = backbone_config(3, fixed_length=8, max_bodies=1, replace_all=True)
    network = Network(config)
    network.set_training(True)
    sample = np.random.default_rng(0).normal(size=(3, 8, 25, 1))
    with Tape() as tape:
        network.loss(network.forward_sample(sample), 1)
    names = op_names(tape)
    tgraph_layers = sum(spec.mode != "tc" for spec in config.layers)
    assert names.count("spatial_tgraph_stage") == tgraph_layers == 7
    assert names.count("spatial_temporal_stage") == len(config.layers) - tgraph_layers == 2
    assert not {"spatial_graph_bn_relu", "temporal_graph_conv"} & set(names)


# Tape records of one training sample at T=8.  Every op records once per
# call, so the count depends on the model's structure, not on T.
LONGRANGE_LAYERS = [LayerSpec(3, 12, 1, "tc", 3), LayerSpec(12, 12, 1, "tgraph", 3)]
RECORD_CASES = {
    "backbone": (backbone_config(2, fixed_length=8, max_bodies=1), 47),
    "tgraph-dense": (backbone_config(2, fixed_length=8, max_bodies=1, replace_all=True), 44),
    "backbone-M2": (backbone_config(2, fixed_length=8, max_bodies=2), 87),
    "longrange": (ModelConfig(layers=LONGRANGE_LAYERS, num_classes=2, num_joints=5,
                              fixed_length=8, heads=2, relevance="feature-learned"), 39),
}


def record_training_sample(config):
    """The op name of every record one training sample at T=8 makes."""
    network = Network(config)
    shape = (3, 8, config.num_joints, config.max_bodies)
    sample = np.random.default_rng(0).normal(size=shape)
    with Tape() as tape:
        network.loss(network.forward_sample(sample), 0)
    return op_names(tape)


@pytest.mark.parametrize("name", sorted(RECORD_CASES))
def test_records_per_training_sample(name):
    config, expected = RECORD_CASES[name]
    names = record_training_sample(config)
    assert len(names) == expected
    tc_layers = sum(spec.mode == "tc" for spec in config.layers)
    tgraph_layers = (len(config.layers) - tc_layers) * config.max_bodies
    calculated = config.relevance == "feature-calculated"
    assert names.count("spatial_temporal_stage") == tc_layers * config.max_bodies
    assert names.count("spatial_tgraph_stage") == tgraph_layers * calculated
    assert names.count("spatial_graph_bn_relu") == tgraph_layers * (not calculated)


def test_readme_states_the_record_counts():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    count = {name: expected for name, (_, expected) in RECORD_CASES.items()}
    sentence = (f"records {count['backbone']} ops for the backbone, {count['tgraph-dense']} "
                f"with `replace_all`, {count['backbone-M2']} with two bodies, and "
                f"{count['longrange']} for the criterion-5 long-range model")
    assert sentence in " ".join(readme.split())


def test_every_op_but_two_is_recorded_by_a_benchmarked_model():
    """The ops none of the benchmark's models records serve tests only."""
    recorded = set()
    for config, _ in RECORD_CASES.values():
        recorded.update(record_training_sample(config))
    assert recorded <= set(OP_NAMES)
    # These two wait for the per-layer record list in BENCHMARK.json to change.
    assert set(OP_NAMES) - recorded == {"sub", "pad_axis"}


def test_the_spatial_graph_conv_is_no_op_of_its_own():
    """Only the three spatial-stage records run the graph conv; gradcheck has
    no separate entry for it.  The temporal graph mix is no op apart from
    temporal_graph_conv either."""
    assert len(OP_NAMES) == len(gradcheck.OP_CHECKS) == 20
    assert not {"spatial_graph_conv", "temporal_graph_mix"} & set(OP_NAMES)
    assert {"spatial_graph_bn_relu", "spatial_temporal_stage",
            "spatial_tgraph_stage"} <= set(OP_NAMES)
    assert main(["gradcheck", "--op", "spatial_graph_conv"]) == 2


def test_validation():
    x = Tensor(np.zeros((2, 4, 3)))
    w, p, m = Tensor(np.zeros((5, 2))), np.zeros((3, 3)), Tensor(np.zeros((3, 3)))
    with pytest.raises(ShapeError, match="3-D"):
        _spatial_graph(Tensor(np.zeros((2, 4))), [w], [p], [m])
    with pytest.raises(ShapeError, match="2 weights for 2 partitions and 1 masks"):
        _spatial_graph(x, [w, w], [p, p], [m])
    with pytest.raises(ShapeError, match="1 weights for 2 partitions"):
        _spatial_graph(x, [w], [p, p], [m])
    with pytest.raises(ShapeError, match="weight 1"):
        _spatial_graph(x, [w, Tensor(np.zeros((5, 3)))], [p, p], [m, m])
    with pytest.raises(ShapeError, match="mask 0"):
        _spatial_graph(x, [w], [p], [Tensor(np.zeros((4, 4)))])
    with pytest.raises(ShapeError, match="partition 1"):
        _spatial_graph(x, [w, w], [p, np.zeros((4, 4))], [m, m])
    mhc, a_t = MultiHeadTemporalConv(2, "feature-learned", 2, 4, 3, "t"), Tensor(np.eye(4))
    with pytest.raises(ShapeError, match=r"t: expected \(C, T, J\), got \(2, 4\)"):
        temporal_graph_conv(mhc, Tensor(np.zeros((2, 4))), [a_t, a_t])
    with pytest.raises(ShapeError, match="t: 0 adjacencies for 2 heads"):
        temporal_graph_conv(mhc, x, [])
    with pytest.raises(ShapeError, match=r"t: adjacency \(3, 3\) does not match T=4"):
        temporal_graph_conv(mhc, x, [a_t, Tensor(np.zeros((3, 3)))])
