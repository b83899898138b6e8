"""The fused temporal convolution reproduces the unfused op chain bit for bit."""
import tracemalloc

import numpy as np
import pytest

from tegraph import precision
from tegraph.blocks import TCBlock, tc_forward
from tegraph.errors import ShapeError
from tegraph.tensor import (
    Tape,
    Tensor,
    add,
    matmul,
    pad_axis,
    reshape,
    slice_axis,
    temporal_conv,
)


def chain_temporal_conv(x, kernel, stride, pad):
    """The pad/slice/reshape/matmul/add chain tc_forward used to record."""
    c_out, c_in, taps = kernel.shape
    frames, joints = x.shape[1:]
    out_frames = (frames + 2 * pad - taps) // stride + 1
    padded = pad_axis(x, 1, pad, pad)
    out = None
    for k in range(taps):
        tap = slice_axis(padded, 1, k, k + (out_frames - 1) * stride + 1, stride)
        w_k = reshape(slice_axis(kernel, 2, k, k + 1), (c_out, c_in))
        flat = reshape(tap, (c_in, out_frames * joints))
        term = reshape(matmul(w_k, flat), (c_out, out_frames, joints))
        out = term if out is None else add(out, term)
    return out


def run(op, x_data, kernel_data, stride, pad, seed_grad):
    x, kernel = Tensor(x_data), Tensor(kernel_data)
    with Tape() as tape:
        out = op(x, kernel, stride, pad)
        tape.backward(out, seed=seed_grad)
    return out.data, kernel.grad, x.grad


CASES = [
    # (c_in, c_out, frames, joints, kernel, stride)
    *[(4, 4, 11, 3, taps, stride) for taps in (1, 3, 9) for stride in (1, 2)],
    (3, 5, 8, 2, 3, 2),   # channel count changes
    (2, 2, 1, 3, 3, 1),   # T = 1
    (2, 2, 1, 3, 9, 2),   # T = 1 < stride
    (3, 3, 2, 2, 3, 3),   # 1 < T < stride
    (16, 24, 40, 5, 9, 1),  # backbone-like: stride-1 taps read in place by BLAS
]


@pytest.mark.parametrize("mode", ["verify", "train"])
@pytest.mark.parametrize("c_in,c_out,frames,joints,taps,stride", CASES)
def test_fused_op_is_bit_identical_to_the_chain(mode, c_in, c_out, frames, joints, taps,
                                                stride):
    rng = np.random.default_rng(frames * 100 + taps * 10 + stride)
    pad = (taps - 1) // 2
    out_frames = (frames + 2 * pad - taps) // stride + 1
    with precision.scoped_mode(mode):
        dtype = precision.dtype()
        x = rng.normal(size=(c_in, frames, joints)).astype(dtype)
        kernel = rng.normal(size=(c_out, c_in, taps)).astype(dtype)
        g = rng.normal(size=(c_out, out_frames, joints)).astype(dtype)
        fused = run(temporal_conv, x, kernel, stride, pad, g)
        chain = run(chain_temporal_conv, x, kernel, stride, pad, g)
    for name, got, expected in zip(("output", "kernel grad", "input grad"), fused, chain):
        assert got.dtype == dtype and got.shape == expected.shape, name
        assert np.array_equal(got, expected), f"{name} differs from the chain"


def test_unpadded_conv_reads_its_input_in_place():
    # A stride-2 residual projection of layer 5: the output is as large as
    # the input, and the strided tap copy half of it, so the forward peaks at
    # 1.5 inputs.  A zero-padded copy of the input on top took it to 2.5.
    rng = np.random.default_rng(4)
    with precision.scoped_mode("train"):
        x = Tensor(rng.normal(size=(64, 300, 25)))
        kernel = Tensor(rng.normal(size=(128, 64, 1)))
        tracemalloc.start()
        try:
            temporal_conv(x, kernel, 2, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 2 * x.data.nbytes, f"peak {peak / x.data.nbytes:.2f} inputs"


def test_tc_forward_records_one_op():
    block = TCBlock(3, 9, 2, "t.tc", seed=1)
    with Tape() as tape:
        out = tc_forward(block, Tensor(np.ones((3, 10, 2))), apply_bn_relu=False)
    assert len(tape) == 1
    tape.backward(out)
    assert block.kernel.grad.any()


def test_kernel_gradient_accumulates_into_a_parameter():
    block = TCBlock(2, 3, 1, "t.tc", seed=2)
    f = np.random.default_rng(3).normal(size=(2, 5, 2))
    grads = []
    for _ in range(2):
        with Tape() as tape:
            tape.backward(tc_forward(block, Tensor(f), apply_bn_relu=False))
        grads.append(block.kernel.grad.copy())
    np.testing.assert_array_equal(grads[1], 2.0 * grads[0])


def test_validation():
    x = Tensor(np.zeros((2, 4, 3)))
    with pytest.raises(ShapeError, match="3-D"):
        temporal_conv(Tensor(np.zeros((2, 4))), Tensor(np.zeros((2, 2, 1))), 1, 0)
    with pytest.raises(ShapeError, match="channels"):
        temporal_conv(x, Tensor(np.zeros((2, 3, 1))), 1, 0)
    with pytest.raises(ShapeError, match="stride"):
        temporal_conv(x, Tensor(np.zeros((2, 2, 1))), 0, 0)
    with pytest.raises(ShapeError, match="shorter"):
        temporal_conv(x, Tensor(np.zeros((2, 2, 7))), 1, 1)
