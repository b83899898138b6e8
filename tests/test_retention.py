"""Backward rules keep only what they read.

Every rule closes over gradient cells plus exactly the arrays its formula
reads, so an intermediate feature map is freed as soon as the forward pass
drops it, while its tape is still live.
"""
import tracemalloc
import types
import weakref

import numpy as np
import pytest

from tegraph import precision
from tegraph.batchnorm import BatchNorm, batchnorm
from tegraph.blocks import (
    ChannelProjection,
    SGBlock,
    TCBlock,
    spatial_graph_bn_relu,
    spatial_temporal_stage,
    spatial_tgraph_stage,
)
from tegraph.model import Network, backbone_config
from tegraph.temporal import MultiHeadTemporalConv, temporal_graph_conv
from tegraph.tensor import (
    OP_NAMES,
    GradCell,
    Tape,
    Tensor,
    add,
    log_softmax_rows,
    matmul,
    mul,
    pad_axis,
    permute,
    relu,
    reshape,
    scale,
    slice_axis,
    softmax_rows,
    sub,
    sum_all,
    sum_axis,
    temporal_conv,
)


def _t(rng, *shape):
    return Tensor(rng.normal(size=shape))


PARTITIONS = np.random.default_rng(2).uniform(size=(2, 5, 5))
STAGE_PARAMETERS = ("w0", "w1", "m0", "m1", "gamma", "beta", "kernel", "tc_gamma", "tc_beta")


def _blocks(i):
    """A 3 -> 2 channel spatial block and a stride-2 temporal block whose
    parameters are the tensors in `i` (the temporal block's where given)."""
    sg, tc = SGBlock(3, 2, PARTITIONS, "sg"), TCBlock(2, 3, 2, "tc")
    for param, label in zip(sg.parameters() + tc.parameters(), STAGE_PARAMETERS):
        if label in i:
            param.value = i[label]
    return sg, tc


TGRAPH_PARAMETERS = ("w0", "w1", "m0", "m1", "gamma", "beta", "a0", "b0", "a1", "b1", "t0", "t1")


def _tgraph_blocks(i):
    """A 3 -> 4 channel spatial block and two feature-calculated heads at T=6
    whose parameters are the tensors in `i`."""
    sg = SGBlock(3, 4, PARTITIONS, "sg")
    mhc = MultiHeadTemporalConv(2, "feature-calculated", 4, 6, 5, "tgc")
    for param, label in zip(sg.parameters() + mhc.parameters(), TGRAPH_PARAMETERS):
        param.value = i[label]
    return sg, mhc


def _mix_heads(i):
    """Two heads on a 3-channel input whose output maps are w0 and w1."""
    mhc = MultiHeadTemporalConv(2, "feature-learned", 3, 5, 2, "tgc")
    for w_t, label in zip(mhc.output_maps, ("w0", "w1")):
        w_t.value = i[label]
    return mhc


# op -> (inputs from a generator, the call, names of the tensors whose data
# the rule reads; "out" is the op's output).
CASES = {
    "matmul": (lambda r: {"a": _t(r, 3, 4), "b": _t(r, 4, 2)},
               lambda i: matmul(i["a"], i["b"]), {"a", "b"}),
    "softmax_rows": (lambda r: {"m": _t(r, 3, 4)},
                     lambda i: softmax_rows(i["m"]), {"out"}),
    "log_softmax_rows": (lambda r: {"m": _t(r, 3, 4)},
                         lambda i: log_softmax_rows(i["m"]), {"out"}),
    "add": (lambda r: {"a": _t(r, 3, 4), "b": _t(r, 3, 4)},
            lambda i: add(i["a"], i["b"]), set()),
    "sub": (lambda r: {"a": _t(r, 3, 4), "b": _t(r, 3, 4)},
            lambda i: sub(i["a"], i["b"]), set()),
    "mul": (lambda r: {"a": _t(r, 3, 4), "b": _t(r, 3, 4)},
            lambda i: mul(i["a"], i["b"]), {"a", "b"}),
    "scale": (lambda r: {"a": _t(r, 3, 4)}, lambda i: scale(i["a"], 1.5), set()),
    "relu": (lambda r: {"a": _t(r, 3, 4)}, lambda i: relu(i["a"]), {"out"}),
    "reshape": (lambda r: {"a": _t(r, 3, 4)}, lambda i: reshape(i["a"], (4, 3)), set()),
    "permute": (lambda r: {"a": _t(r, 2, 3, 4)},
                lambda i: permute(i["a"], (2, 0, 1)), set()),
    "pad_axis": (lambda r: {"a": _t(r, 3, 4)}, lambda i: pad_axis(i["a"], 1, 2, 1), set()),
    "slice_axis": (lambda r: {"a": _t(r, 3, 9)},
                   lambda i: slice_axis(i["a"], 1, 1, 8, 3), set()),
    "sum_all": (lambda r: {"a": _t(r, 3, 4)}, lambda i: sum_all(i["a"]), set()),
    "sum_axis": (lambda r: {"a": _t(r, 3, 4, 2)}, lambda i: sum_axis(i["a"], 1), set()),
    "batchnorm": (lambda r: {"x": _t(r, 3, 4, 5), "gamma": _t(r, 3), "beta": _t(r, 3)},
                  lambda i: batchnorm(i["x"], i["gamma"], i["beta"], np.zeros(3),
                                      np.ones(3), training=True), set()),
    "temporal_conv": (lambda r: {"x": _t(r, 3, 7, 2), "kernel": _t(r, 4, 3, 3)},
                      lambda i: temporal_conv(i["x"], i["kernel"], 2, 1), {"x", "kernel"}),
    "spatial_graph_bn_relu": (
        lambda r: {"x": _t(r, 3, 4, 5), "w0": _t(r, 2, 3), "w1": _t(r, 2, 3),
                   "m0": _t(r, 5, 5), "m1": _t(r, 5, 5), "gamma": _t(r, 2), "beta": _t(r, 2)},
        lambda i: spatial_graph_bn_relu(_blocks(i)[0], i["x"]),
        {"x", "w0", "w1", "gamma", "beta"}),  # the gates P_k * M_k, not the masks
    "spatial_temporal_stage": (
        lambda r: {"x": _t(r, 3, 4, 5), "w0": _t(r, 2, 3), "w1": _t(r, 2, 3),
                   "m0": _t(r, 5, 5), "m1": _t(r, 5, 5), "gamma": _t(r, 2), "beta": _t(r, 2),
                   "kernel": _t(r, 2, 2, 3), "tc_gamma": _t(r, 2), "tc_beta": _t(r, 2)},
        lambda i: spatial_temporal_stage(*_blocks(i), i["x"]),
        {"x", "w0", "w1", "gamma", "beta", "kernel", "tc_gamma", "tc_beta"}),
    "spatial_tgraph_stage": (
        lambda r: {"x": _t(r, 3, 6, 5), "w0": _t(r, 4, 3), "w1": _t(r, 4, 3),
                   "m0": _t(r, 5, 5), "m1": _t(r, 5, 5), "gamma": _t(r, 4), "beta": _t(r, 4),
                   "a0": _t(r, 1, 4), "b0": _t(r, 1, 4), "a1": _t(r, 1, 4), "b1": _t(r, 1, 4),
                   "t0": _t(r, 4, 4), "t1": _t(r, 4, 4)},
        lambda i: spatial_tgraph_stage(*_tgraph_blocks(i), i["x"])[0],
        {"x", "w0", "w1", "gamma", "beta", "a0", "b0", "a1", "b1", "t0", "t1"}),
    "temporal_graph_conv": (
        lambda r: {"x": _t(r, 3, 5, 2), "a0": _t(r, 5, 5), "a1": _t(r, 5, 5),
                   "w0": _t(r, 3, 3), "w1": _t(r, 3, 3)},
        lambda i: temporal_graph_conv(_mix_heads(i), i["x"], [i["a0"], i["a1"]]),
        {"x", "w0", "w1", "a0", "a1"}),
}


# What the unfused chain kept and the fused rule must not, as array shapes
# in the CASES above (boolean arrays are never allowed): the spatial stage's
# channel maps, conv output, xhat and output s (2, 4, 5) or their flat
# views, s padded for the temporal conv (2, 6, 5) or its flat views, and the
# temporal conv output and its xhat (2, 2, 5) or their flat view.  The
# tgraph stage keeps the adjacencies (6, 6) but not s, its xhat or the
# mix (4, 6, 5) or their flat views, s time-major (6, 20), the heads'
# projections (1, 6, 5) or their score operands a_rows (6, 5) and
# b_cols (5, 6).
SPATIAL_SHAPES = {(2, 4, 5), (2, 20), (8, 5)}
DROPPED_SHAPES = {
    "spatial_graph_bn_relu": SPATIAL_SHAPES,
    "spatial_temporal_stage": SPATIAL_SHAPES | {(2, 6, 5), (2, 30), (12, 5), (2, 2, 5), (2, 10)},
    "spatial_tgraph_stage": {(4, 6, 5), (4, 30), (24, 5), (6, 20), (1, 6, 5), (1, 30), (6, 5),
                             (5, 6)},
}


def closure_contents(fn):
    """Every object reachable from `fn` through closures, lists and tuples."""
    seen, found, stack = set(), [], [fn]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        found.append(obj)
        if isinstance(obj, types.FunctionType):
            stack.extend(cell.cell_contents for cell in obj.__closure__ or ())
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
    return found


def test_every_op_has_a_retention_case():
    assert sorted(CASES) == sorted(OP_NAMES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_rule_closes_over_cells_and_only_the_arrays_it_reads(name):
    build, call, reads = CASES[name]
    tensors = build(np.random.default_rng(3))
    with Tape() as tape:
        tensors["out"] = call(tensors)
    (rule,) = tape._records
    assert rule.__qualname__.split(".")[0] == name
    held = closure_contents(rule)
    assert not [obj for obj in held if isinstance(obj, Tensor)]
    cells = {id(obj) for obj in held if isinstance(obj, GradCell)}
    assert {id(t.cell) for t in tensors.values()} <= cells
    arrays = [obj for obj in held if isinstance(obj, np.ndarray)]
    for label, t in tensors.items():
        if label not in reads:
            assert not any(np.shares_memory(arr, t.data) for arr in arrays), label


@pytest.mark.parametrize("name", sorted(DROPPED_SHAPES))
def test_fused_stage_keeps_no_xhat_mask_or_head_operand(name):
    build, call, _ = CASES[name]
    tensors = build(np.random.default_rng(5))
    with Tape() as tape:
        call(tensors)
    (rule,) = tape._records
    arrays = [obj for obj in closure_contents(rule) if isinstance(obj, np.ndarray)]
    assert not [arr for arr in arrays if arr.dtype == bool], "a mask is kept"
    kept = {arr.shape for arr in arrays} & DROPPED_SHAPES[name]
    assert not kept, f"arrays shaped {sorted(kept)} are kept"


def test_tgraph_stage_keeps_its_input_gates_statistics_and_adjacencies():
    """The buffers the rule reads besides the parameters: x (3, 6, 5), the
    partitions (2, 5, 5) and the two gates (5, 5), the spatial bn's mean
    (4, 1, 1), sigma and scale (4,), and the very adjacencies (6, 6) the
    stage returned."""
    build, _, _ = CASES["spatial_tgraph_stage"]
    tensors = build(np.random.default_rng(8))
    with Tape() as tape:
        _, adjacencies = spatial_tgraph_stage(*_tgraph_blocks(tensors), tensors["x"])
    (rule,) = tape._records
    parameters = {id(t.data) for label, t in tensors.items() if label != "x"}
    owners = {}
    for arr in closure_contents(rule):
        if isinstance(arr, np.ndarray):
            owner = arr if arr.base is None else arr.base
            if id(owner) not in parameters:
                owners[id(owner)] = owner
    assert id(tensors["x"].data) in owners
    assert all(id(adj) in owners for adj in adjacencies)
    assert sorted(owner.shape for owner in owners.values()) == sorted(
        [(3, 6, 5), (2, 5, 5), (5, 5), (5, 5), (4, 1, 1), (4,), (4,), (6, 6), (6, 6)])


def test_strided_projection_keeps_only_the_callers_input():
    """A stride-2 residual projection keeps x itself, never its every-other-frame
    copy (3, 4, 5) or that copy's flat view (3, 20), as a slice/matmul chain would."""
    proj = ChannelProjection(3, 4, 2, "res")
    x = _t(np.random.default_rng(6), 3, 7, 5)
    with Tape() as tape:
        proj(x)
    arrays = [obj for rule in tape._records for obj in closure_contents(rule)
              if isinstance(obj, np.ndarray)]
    kept = {arr.shape for arr in arrays} & {(3, 4, 5), (3, 20)}
    assert not kept, f"arrays shaped {sorted(kept)} are kept"
    inputs = [arr for arr in arrays if arr is not proj.weight.value.data]
    assert inputs and all(arr is x.data for arr in inputs)


def test_bn_relu_add_intermediates_are_freed_while_the_tape_is_live():
    """The batchnorm and add outputs are freed; the ReLU output stays, since
    its rule reads its mask from it (in a network the next layer keeps it)."""
    rng = np.random.default_rng(4)
    x_data = rng.normal(size=(4, 6, 3))

    def run(keep: bool):
        x = Tensor(x_data)
        bn = BatchNorm(4, "bn")
        with Tape() as tape:
            normed = bn(x)
            rectified = relu(normed)
            summed = add(rectified, x)
            loss = sum_all(summed)
        refs = [weakref.ref(t.data) for t in (normed, rectified, summed)]
        kept = (normed, rectified, summed) if keep else None
        del normed, rectified, summed
        freed = [ref() is None for ref in refs]
        tape.backward(loss)
        del kept
        return freed, [x.grad, bn.gamma.grad, bn.beta.grad]

    freed, grads = run(keep=False)
    assert freed == [True, False, True]
    _, reference = run(keep=True)
    for got, want in zip(grads, reference):
        assert np.array_equal(got, want)


# A float32 T=300 training sample peaks at 30.6 MiB of traced allocations
# (`backbone`) and 36.7 MiB (`replace_all`), both inside layer 8's
# spatial_temporal_stage rule; the bounds leave about 10% on top.  While a
# tgraph layer kept its spatial output s for separate head, mix and add
# records, the stage forwards centered a copy of their conv output and
# wrote the bn output to a third buffer, and the bn-ReLU backward formed
# dy and dx in fresh arrays, the two peaked at 34.9 and 52.1 MiB.  Against
# those figures, residual projections recorded as a slice/reshape/matmul
# chain, whose matmul kept the strided input copy, peaked 1.0 MiB higher;
# rules that kept a temporal conv's padded input beside its padded input
# gradient, and a temporal_graph_conv rule that kept each head's d_mixed and
# term until the next head made its own, 4.1 MiB higher; spatial-stage
# rules that held all K channel maps at once would peak 12.0 MiB higher,
# and tc layer records that kept the temporal batchnorm's xhat 15.4 MiB
# higher (`backbone`).  A failure names the record that set the peak.
@pytest.mark.parametrize("replace_all,bound_mb", [(False, 34), (True, 41)])
def test_capture_scale_sample_peak_memory(monkeypatch, replace_all, bound_mb):
    peaks = []  # (peak, record index, rule, before, after) per record, and the forward
    record = Tape.record

    def measured_record(tape, rule):
        index = len(tape)

        def measured():
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            rule()
            after, peak = tracemalloc.get_traced_memory()
            peaks.append((peak, index, rule.__qualname__, before, after))

        record(tape, measured)

    with precision.scoped_mode("train"):
        network = Network(backbone_config(2, max_bodies=1, replace_all=replace_all))
        network.set_training(True)
        sample = np.random.default_rng(0).normal(size=(3, 300, 25, 1))
        monkeypatch.setattr(Tape, "record", measured_record)
        tracemalloc.start()
        try:
            with Tape() as tape:
                loss = network.loss(network.forward_sample(sample), 1)
            after, peak = tracemalloc.get_traced_memory()
            peaks.append((peak, -1, "the forward pass", 0, after))
            tape.backward(loss)
        finally:
            tracemalloc.stop()
    assert all(np.isfinite(p.grad).all() for p in network.parameters())
    peak, index, rule, before, after = max(peaks)
    mib = 2**20
    assert peak / mib < bound_mb, (
        f"traced peak {peak / mib:.1f} MiB in record {index} ({rule}): "
        f"{before / mib:.1f} MiB before it, {after / mib:.1f} MiB after")


# After a float32 T=300 forward the rules hold 22.4 MiB of arrays besides the
# parameters (`backbone`) and 23.1 MiB (`replace_all`); the bounds leave
# about 10% on top.  Tgraph layers that kept their spatial output s for
# separate head, mix and add records held 25.1 and 38.2 MiB.  Against
# those figures, residual projections whose matmul kept the strided input
# copy held 1.9 MiB more, and tc layer records that kept the temporal
# batchnorm's xhat 16.1 MiB more (`backbone`).
@pytest.mark.parametrize("replace_all,bound_mb", [(False, 25), (True, 26)])
def test_capture_scale_sample_retained_memory(replace_all, bound_mb):
    with precision.scoped_mode("train"):
        network = Network(backbone_config(2, max_bodies=1, replace_all=replace_all))
        network.set_training(True)
        sample = np.random.default_rng(0).normal(size=(3, 300, 25, 1))
        with Tape() as tape:
            network.loss(network.forward_sample(sample), 1)
    parameters = {id(p.value.data) for p in network.parameters()}
    held = {}
    for rule in tape._records:
        for obj in closure_contents(rule):
            if isinstance(obj, np.ndarray):
                owner = obj if obj.base is None else obj.base
                if id(owner) not in parameters:
                    held[id(owner)] = owner.nbytes
    retained = sum(held.values()) / 2**20
    assert retained < bound_mb, f"rules hold {retained:.1f} MiB"


def assert_no_gradient_aliases(tensors):
    """No gradient buffer shares memory with another cell's gradient or any data."""
    cells = {id(t.cell): t.cell for t in tensors}.values()
    grads = [cell.grad for cell in cells if cell.grad is not None]
    datas = [t.data for t in tensors]
    for n, grad in enumerate(grads):
        for other in grads[n + 1:] + datas:
            assert not np.shares_memory(grad, other)


@pytest.mark.parametrize("name", sorted(CASES))
def test_no_gradient_aliases_another_buffer_after_an_op(name):
    build, call, _ = CASES[name]
    rng = np.random.default_rng(6)
    tensors = build(rng)
    with Tape() as tape:
        tensors["out"] = call(tensors)
        tensors["loss"] = sum_all(scale(tensors["out"], 0.5))
    tape.backward(tensors["loss"])
    assert all(t.grad is not None for t in tensors.values())
    assert_no_gradient_aliases(list(tensors.values()))


@pytest.mark.parametrize("replace_all", [False, True])
def test_no_gradient_aliases_another_buffer_in_a_network(monkeypatch, replace_all):
    created = []
    init = Tensor.__init__

    def recording_init(self, data):
        init(self, data)
        created.append(self)

    network = Network(backbone_config(3, fixed_length=8, max_bodies=2,
                                      replace_all=replace_all))
    network.set_training(True)
    sample = np.random.default_rng(7).normal(size=(3, 8, 25, 2))
    monkeypatch.setattr(Tensor, "__init__", recording_init)
    with Tape() as tape:
        loss = network.loss(network.forward_sample(sample), 1)
    monkeypatch.undo()
    tape.backward(loss)
    tensors = created + [p.value for p in network.parameters()]
    assert sum(t.grad is not None for t in created) > 80
    assert_no_gradient_aliases(tensors)
