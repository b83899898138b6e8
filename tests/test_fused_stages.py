"""The fused spatial, spatial-temporal and spatial-tgraph stages and the
relevance heads' arithmetic reproduce the op chains they replace bit for
bit, outputs and every gradient, a temporal block records exactly its
conv -> batchnorm -> ReLU chain, and a residual projection's one-tap
temporal conv is its old slice/matmul chain."""
import numpy as np
import pytest

from oracles import (
    chain_batchnorm_relu,
    chain_calculated_heads,
    chain_channel_projection,
    chain_spatial_graph_bn_relu,
    chain_spatial_tgraph_stage,
)
from tegraph import gradcheck, precision
from tegraph.blocks import (
    ChannelProjection,
    SGBlock,
    TCBlock,
    sg_forward,
    spatial_graph_bn_relu,
    spatial_temporal_stage,
    spatial_tgraph_stage,
    tc_forward,
    tc_output_length,
)
from tegraph.errors import ShapeError
from tegraph.graph import chain_graph, normalized_partitions, ntu_graph
from tegraph.model import Network, backbone_config
from tegraph.temporal import MultiHeadTemporalConv, _calculated_heads
from tegraph.tensor import (
    OP_NAMES,
    Parameter,
    Tape,
    Tensor,
    add,
    mul,
    sum_all,
    temporal_conv,
)

FUSED = ["spatial_graph_bn_relu", "spatial_temporal_stage", "spatial_tgraph_stage"]


def assert_all_equal(fused, chain):
    assert len(fused) == len(chain)
    for n, (got, expected) in enumerate(zip(fused, chain)):
        assert got.dtype == expected.dtype and got.shape == expected.shape, n
        assert np.array_equal(got, expected), f"array {n} differs from the chain"


def drawer(seed):
    rng = np.random.default_rng(seed)
    dtype = precision.dtype()
    return lambda *shape: rng.normal(size=shape).astype(dtype)


def run_heads(chained, f_data, wa_data, wb_data, seeds, f_grad):
    """Adjacencies and every gradient of the heads for adjacency gradients
    `seeds`, through `_calculated_heads` or the taped chain; f already holds a
    gradient, so the order of the heads' contributions to it is compared."""
    w_a, w_b = [Tensor(w) for w in wa_data], [Tensor(w) for w in wb_data]
    if chained:
        f = Tensor(f_data)
        f.grad = f_grad.copy()
        with Tape() as tape:
            adjacencies = chain_calculated_heads(f, w_a, w_b)
            loss = sum_all(mul(adjacencies[0], Tensor(seeds[0])))
            for adjacency, seed in zip(adjacencies[1:], seeds[1:]):
                loss = add(loss, sum_all(mul(adjacency, Tensor(seed))))
            tape.backward(loss)
        adjacencies, f_grad = [a.data for a in adjacencies], f.grad
    else:
        heads, backward = _calculated_heads(f_data.shape, w_a, w_b)
        adjacencies, f_grad = heads(f_data), f_grad.copy()
        backward(f_data, adjacencies, seeds, f_grad)
    return adjacencies + [f_grad] + [w.grad for w in w_a + w_b]


HEAD_CASES = [
    # (heads, channels, reduced, frames, joints)
    (1, 4, 1, 5, 3),
    (3, 8, 2, 9, 4),
    (2, 4, 1, 1, 5),     # T = 1
    (4, 64, 16, 300, 25),  # a capture-scale layer
]


@pytest.mark.parametrize("mode", ["verify", "train"])
@pytest.mark.parametrize("heads,channels,reduced,frames,joints", HEAD_CASES)
def test_calculated_heads_is_bit_identical_to_the_chain(mode, heads, channels, reduced,
                                                        frames, joints):
    with precision.scoped_mode(mode):
        draw = drawer(heads * 1000 + channels + frames)
        f, f_grad = draw(channels, frames, joints), draw(channels, frames, joints)
        wa = [draw(reduced, channels) for _ in range(heads)]
        wb = [draw(reduced, channels) for _ in range(heads)]
        seeds = [draw(frames, frames) for _ in range(heads)]
        fused = run_heads(False, f, wa, wb, seeds, f_grad)
        chain = run_heads(True, f, wa, wb, seeds, f_grad)
        assert fused[0].dtype == precision.dtype()
    assert_all_equal(fused, chain)


def assert_rectified(out):
    """At capture scale the ReLU both passes and blocks, so its mask is exercised."""
    assert out.size < 1000 or ((out == 0).any() and (out > 0).any())


def run_sg_stage(op, x_data, gamma_data, beta_data, seed, x_grad, training, weights,
                 partitions, masks):
    """Output, every gradient and the running buffers after one taped call of
    op(sg, x), whose SGBlock takes the weights, masks, gamma, beta and buffers."""
    x = Tensor(x_data)
    x.grad = x_grad.copy()
    gamma, beta = Tensor(gamma_data), Tensor(beta_data)
    channels = gamma_data.shape[0]
    running_mean = np.linspace(-0.5, 0.5, channels).astype(gamma_data.dtype)
    running_var = np.linspace(0.5, 2.0, channels).astype(gamma_data.dtype)
    tensors = [x, gamma, beta] + [Tensor(a) for a in weights + masks]
    sg = SGBlock(x_data.shape[0], channels, partitions, "t.sg")
    for param, t in zip(sg.parameters(), tensors[3:] + [gamma, beta]):
        param.value = t
    sg.bn.running_mean, sg.bn.running_var = running_mean, running_var
    sg.bn.training = training
    with Tape() as tape:
        out = op(sg, x)
        tape.backward(out, seed=seed)
    return [out.data, running_mean, running_var] + [t.grad for t in tensors]


SG_CASES = [
    # (subsets, c_in, c_out, frames, joints)
    (1, 4, 4, 6, 5),
    (3, 3, 5, 7, 4),
    (2, 6, 2, 1, 3),   # T = 1
    (3, 64, 64, 300, 25),  # a capture-scale layer
]


@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("mode", ["verify", "train"])
@pytest.mark.parametrize("subsets,c_in,c_out,frames,joints", SG_CASES)
def test_spatial_graph_bn_relu_is_bit_identical_to_the_chain(training, mode, subsets, c_in,
                                                             c_out, frames, joints):
    with precision.scoped_mode(mode):
        draw = drawer(subsets * 100 + c_in + frames)
        x, x_grad = draw(c_in, frames, joints), draw(c_in, frames, joints)
        weights = [draw(c_out, c_in) for _ in range(subsets)]
        partitions = np.random.default_rng(c_out).normal(size=(subsets, joints, joints))
        masks = [draw(joints, joints) for _ in range(subsets)]
        gamma, beta, seed = draw(c_out), draw(c_out), draw(c_out, frames, joints)
        linear = (weights, partitions, masks)
        fused = run_sg_stage(spatial_graph_bn_relu, x, gamma, beta, seed, x_grad, training,
                             *linear)
        chain = run_sg_stage(chain_spatial_graph_bn_relu, x, gamma, beta, seed, x_grad,
                             training, *linear)
        assert fused[0].dtype == precision.dtype()
    assert_rectified(fused[0])
    assert_all_equal(fused, chain)


def run_tc_block(chained, channels, frames, joints, kernel_t, stride, training):
    """Output, every gradient and the running buffers of one taped temporal
    block, through tc_forward or through temporal_conv -> chain_batchnorm_relu
    on the block's own kernel, scale, shift and buffers; x already holds a
    gradient, so its accumulation is compared as well."""
    draw = drawer(channels + frames + kernel_t + stride)
    tc = TCBlock(channels, kernel_t, stride, "l.tc", seed=5)
    for p in tc.parameters():
        p.assign(p.value.data + 0.2 * draw(*p.shape))
    tc.bn.running_mean += 0.1 * draw(channels)
    tc.bn.running_var += np.abs(draw(channels))
    tc.bn.training = training
    x = Tensor(draw(channels, frames, joints))
    x.grad = draw(channels, frames, joints)
    seed = draw(channels, tc_output_length(frames, stride), joints)
    with Tape() as tape:
        if chained:
            bn = tc.bn
            out = chain_batchnorm_relu(temporal_conv(x, tc.kernel.value, tc.stride, tc.pad),
                                       bn.gamma.value, bn.beta.value, bn.running_mean,
                                       bn.running_var, bn.training)
        else:
            out = tc_forward(tc, x)
        tape.backward(out, seed=seed)
    return ([out.data, x.grad] + [p.grad for p in tc.parameters()]
            + [buf for _, buf in tc.bn.buffers()])


TC_BLOCK_CASES = [
    # (channels, frames, joints, kernel_t, stride)
    (3, 4, 5, 3, 1),
    (5, 1, 2, 3, 2),   # T = 1 < stride
    (64, 300, 25, 9, 1),  # a capture-scale layer
]


@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("mode", ["verify", "train"])
@pytest.mark.parametrize("channels,frames,joints,kernel_t,stride", TC_BLOCK_CASES)
def test_tc_forward_is_bit_identical_to_the_chain(training, mode, channels, frames, joints,
                                                  kernel_t, stride):
    """A both layer's temporal block records exactly the chain the retired
    fused batchnorm-ReLU was proven equal to."""
    case = (channels, frames, joints, kernel_t, stride, training)
    with precision.scoped_mode(mode):
        block = run_tc_block(False, *case)
        chain = run_tc_block(True, *case)
        assert block[0].dtype == precision.dtype()
    assert_rectified(block[0])
    assert_all_equal(block, chain)


def run_projection(chained, c_in, c_out, frames, joints, stride):
    """Output and every gradient of one taped residual projection, through
    ChannelProjection or through the chain on its kernel as a (C_out, C_in)
    matrix; x already holds a gradient, so its accumulation is compared too."""
    draw = drawer(c_in + c_out + frames + stride)
    proj = ChannelProjection(c_in, c_out, stride, "l.res", seed=5)
    proj.weight.assign(proj.weight.value.data + 0.2 * draw(c_out, c_in, 1))
    weight = proj.weight
    if chained:
        weight = Parameter(weight.value.data.reshape(c_out, c_in), "l.res.weight")
    x = Tensor(draw(c_in, frames, joints))
    x.grad = draw(c_in, frames, joints)
    seed = draw(c_out, tc_output_length(frames, stride), joints)
    with Tape() as tape:
        out = chain_channel_projection(x, weight.value, stride) if chained else proj(x)
        tape.backward(out, seed=seed)
    return [out.data, x.grad, weight.grad.reshape(c_out, c_in)]


PROJECTION_CASES = [
    # (c_in, c_out, frames, joints, stride)
    (3, 5, 6, 2, 1),
    (3, 5, 7, 2, 2),   # odd T
    (4, 6, 8, 3, 2),   # even T
    (4, 6, 1, 3, 2),   # T = 1 < stride
    (64, 128, 300, 25, 2),  # a capture-scale layer
]


@pytest.mark.parametrize("mode", ["verify", "train"])
@pytest.mark.parametrize("c_in,c_out,frames,joints,stride", PROJECTION_CASES)
def test_channel_projection_is_bit_identical_to_the_chain(mode, c_in, c_out, frames, joints,
                                                          stride):
    case = (c_in, c_out, frames, joints, stride)
    with precision.scoped_mode(mode):
        projected = run_projection(False, *case)
        chain = run_projection(True, *case)
        assert projected[0].dtype == precision.dtype()
    assert_all_equal(projected, chain)


def test_strided_channel_projection_gradients_match_central_differences():
    rng = np.random.default_rng(11)
    proj = ChannelProjection(3, 4, 2, "t.res", seed=2)
    x = Tensor(rng.normal(size=(3, 7, 2)))
    w = Tensor(rng.normal(size=(4, 4, 2)))
    result = gradcheck.grad_check(lambda: sum_all(mul(proj(x), w)),
                                  [("x", x), ("weight", proj.weight.value)], tol=1e-5)
    assert result.ok, str(result)


def run_tc_layer(fused, c_in, c_out, frames, joints, kernel_t, stride, training):
    """Output, every gradient and the running buffers of a tc layer's spatial
    and temporal blocks, fused into one record or chained as sg_forward ->
    tc_forward; x already holds a gradient, so the order of the spatial
    stage's contributions to it is compared as well."""
    draw = drawer(c_in + c_out + frames + stride)
    graph = ntu_graph() if joints == 25 else chain_graph(joints, 0)
    sg = SGBlock(c_in, c_out, normalized_partitions(graph), "l.sg", seed=3)
    tc = TCBlock(c_out, kernel_t, stride, "l.tc", seed=3)
    params = sg.parameters() + tc.parameters()
    for p in params:
        p.assign(p.value.data + 0.2 * draw(*p.shape))
    for bn in (sg.bn, tc.bn):
        bn.running_mean += 0.1 * draw(c_out)
        bn.running_var += np.abs(draw(c_out))
        bn.training = training
    x = Tensor(draw(c_in, frames, joints))
    x.grad = draw(c_in, frames, joints)
    seed = draw(c_out, tc_output_length(frames, stride), joints)
    with Tape() as tape:
        out = spatial_temporal_stage(sg, tc, x) if fused else tc_forward(tc, sg_forward(sg, x))
        tape.backward(out, seed=seed)
    buffers = [buf for bn in (sg.bn, tc.bn) for _, buf in bn.buffers()]
    return [out.data, x.grad] + [p.grad for p in params] + buffers


TC_LAYER_CASES = [
    # (c_in, c_out, frames, joints, kernel_t, stride)
    (3, 4, 7, 4, 3, 1),
    (3, 4, 7, 4, 3, 2),
    (4, 6, 1, 3, 9, 2),   # T = 1 < stride
    (64, 64, 300, 25, 9, 1),   # capture-scale layers
    (64, 128, 300, 25, 9, 2),
    (128, 128, 150, 25, 9, 1),
]


@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("mode", ["verify", "train"])
@pytest.mark.parametrize("c_in,c_out,frames,joints,kernel_t,stride", TC_LAYER_CASES)
def test_spatial_temporal_stage_is_bit_identical_to_the_chain(training, mode, c_in, c_out,
                                                              frames, joints, kernel_t, stride):
    case = (c_in, c_out, frames, joints, kernel_t, stride, training)
    with precision.scoped_mode(mode):
        fused = run_tc_layer(True, *case)
        chain = run_tc_layer(False, *case)
        assert fused[0].dtype == precision.dtype()
    assert_rectified(fused[0])
    assert_all_equal(fused, chain)


def run_tgraph_layer(fused, c_in, c_out, frames, joints, heads, bodies, training):
    """Output, adjacencies, every gradient and the running buffers of a
    tgraph layer's spatial stage, heads, mix and skip add, fused into one
    record per body or chained, for `bodies` inputs through shared weights on
    one tape; each x already holds a gradient, so the order of the stage's
    contributions to it is compared as well."""
    draw = drawer(c_in + c_out + frames + heads + bodies)
    graph = ntu_graph() if joints == 25 else chain_graph(joints, 0)
    sg = SGBlock(c_in, c_out, normalized_partitions(graph), "l.sg", seed=3)
    mhc = MultiHeadTemporalConv(heads, "feature-calculated", c_out, frames, joints, "l.tgc",
                                seed=3)
    params = sg.parameters() + mhc.parameters()
    for p in params:  # the output maps W_t move off zero
        p.assign(p.value.data + 0.2 * draw(*p.shape))
    sg.bn.running_mean += 0.1 * draw(c_out)
    sg.bn.running_var += np.abs(draw(c_out))
    sg.bn.training = training
    xs = [Tensor(draw(c_in, frames, joints)) for _ in range(bodies)]
    for x in xs:
        x.grad = draw(c_in, frames, joints)
    seeds = [draw(c_out, frames, joints) for _ in range(bodies)]
    stage = spatial_tgraph_stage if fused else chain_spatial_tgraph_stage
    with Tape() as tape:
        results = [stage(sg, mhc, x) for x in xs]
        loss = sum_all(mul(results[0][0], Tensor(seeds[0])))
        for (out, _), seed in zip(results[1:], seeds[1:]):
            loss = add(loss, sum_all(mul(out, Tensor(seed))))
        tape.backward(loss)
    arrays = []
    for out, adjacencies in results:
        arrays += [out.data] + [a if fused else a.data for a in adjacencies]
    return (arrays + [x.grad for x in xs] + [p.grad for p in params]
            + [buf for _, buf in sg.bn.buffers()])


TGRAPH_CASES = [
    # (c_in, c_out, frames, joints, heads, bodies)
    (3, 4, 7, 4, 1, 1),
    (3, 4, 7, 4, 4, 2),
    (4, 8, 6, 3, 4, 1),
    (8, 8, 5, 4, 1, 2),
    (4, 4, 1, 3, 4, 2),   # T = 1
    (64, 64, 300, 25, 4, 1),   # a capture-scale layer
]


@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("mode", ["verify", "train"])
@pytest.mark.parametrize("c_in,c_out,frames,joints,heads,bodies", TGRAPH_CASES)
def test_spatial_tgraph_stage_is_bit_identical_to_the_chain(training, mode, c_in, c_out,
                                                            frames, joints, heads, bodies):
    case = (c_in, c_out, frames, joints, heads, bodies, training)
    with precision.scoped_mode(mode):
        fused = run_tgraph_layer(True, *case)
        chain = run_tgraph_layer(False, *case)
        assert fused[0].dtype == precision.dtype()
    assert_all_equal(fused, chain)


def test_dump_adjacency_collects_the_chains_adjacencies():
    """The collector `dump-adjacency` reads gets, from a replace_all model in
    eval mode, each tgraph layer's adjacencies as the chain builds them from
    that layer's input."""
    network = Network(backbone_config(2, fixed_length=8, max_bodies=1, replace_all=True))
    network.set_training(False)
    sample = np.random.default_rng(9).normal(size=(3, 8, 25, 1))
    collector = []
    network.forward_sample(sample, collector=collector)
    expected = []
    f = network._normalize_input(sample[..., 0])
    for layer in network.layers:
        if layer.tgc is not None:
            _, adjacencies = chain_spatial_tgraph_stage(layer.sg, layer.tgc, f)
            expected += [(f"{layer.identifier}.head{n}", adj.data)
                         for n, adj in enumerate(adjacencies)]
        f = layer(f)
    assert [name for name, _ in collector] == [name for name, _ in expected]
    assert len(collector) == 7 * 4
    assert_all_equal([adj for _, adj in collector], [adj for _, adj in expected])


@pytest.mark.parametrize("name", FUSED)
def test_fused_stages_are_registered_and_gradient_checked(name):
    assert name in OP_NAMES and name in gradcheck.OP_CHECKS
    for seed in range(3):
        [(checked, result)] = list(gradcheck.check_all_ops(seed=seed, only=name))
        assert checked == name and result.ok, str(result)


def op_names(tape):
    return [rule.__qualname__.split(".")[0] for rule in tape._records]


def test_each_stage_is_one_record():
    rng = np.random.default_rng(1)
    sg = SGBlock(3, 8, normalized_partitions(chain_graph(4, 0)), "t.sg", seed=1)
    tc = TCBlock(8, 3, 1, "t.tc", seed=1)
    mhc = MultiHeadTemporalConv(3, "feature-calculated", 8, 6, 4, "t.tgc", seed=1)
    with Tape() as tape:
        s = sg_forward(sg, Tensor(rng.normal(size=(3, 6, 4))))
        assert op_names(tape) == ["spatial_graph_bn_relu"]
        _, adjacencies = spatial_tgraph_stage(sg, mhc, Tensor(rng.normal(size=(3, 6, 4))))
        assert op_names(tape)[1:] == ["spatial_tgraph_stage"] and len(adjacencies) == 3
        tc_forward(tc, s)
        assert op_names(tape)[2:] == ["temporal_conv", "batchnorm", "relu"]
        spatial_temporal_stage(sg, tc, Tensor(rng.normal(size=(3, 6, 4))))
        assert op_names(tape)[5:] == ["spatial_temporal_stage"]


def test_validation():
    f = Tensor(np.zeros((4, 5, 3)))
    w = Tensor(np.zeros((2, 4)))
    with pytest.raises(ShapeError, match="1 a-projections for 2"):
        _calculated_heads(f.shape, [w], [w, w])
    with pytest.raises(ShapeError, match="b-projection 1"):
        _calculated_heads(f.shape, [w, w], [w, Tensor(np.zeros((2, 3)))])
    sg = SGBlock(4, 8, normalized_partitions(chain_graph(3, 0)), "t.sg")
    with pytest.raises(ShapeError, match="t.tc: takes 6 channels, t.sg makes 8"):
        spatial_temporal_stage(sg, TCBlock(6, 3, 1, "t.tc"), f)
    with pytest.raises(ShapeError, match="t.sg: expected"):
        spatial_temporal_stage(sg, TCBlock(8, 3, 1, "t.tc"), Tensor(np.zeros((3, 5, 3))))
    mhc = MultiHeadTemporalConv(2, "feature-calculated", 4, 5, 3, "t.tgc")
    with pytest.raises(ShapeError, match="t.tgc: takes 4 channels, t.sg makes 8"):
        spatial_tgraph_stage(sg, mhc, f)
