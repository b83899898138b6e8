"""Dense tensors with taped reverse-mode differentiation.

The design is deliberately small: a Tensor wraps a numpy array in the
process-global precision (see precision.py), operations are pure functions
that record a backward rule on the active Tape, if any, and a Tape is a
plain Wengert list replayed once and consumed in strict reverse execution
order: each rule, and every buffer only it holds, is freed as soon as it
has run, so a tape supports a single backward pass.  Every op records
through `_record(out, rule)`.  There is no broadcasting beyond scalar
`scale`; reshape/permute/pad/slice are explicit ops so every backward rule
stays auditable.  This module holds the tape, the generic ops and the
fused `temporal_conv`, whose arithmetic `_temporal` shares with
`blocks.spatial_temporal_stage`.  The graph ops live with their graphs:
the spatial stages in blocks.py, the temporal graph conv in temporal.py,
each reproducing the arithmetic of the op chain it replaced bit for bit.
OP_NAMES lists every op, `batchnorm` (batchnorm.py) included.

Retention: a tensor's gradient slot is a GradCell held apart from its data.
A backward rule closes over its inputs' cells, its replay over its
output's, and over exactly the arrays its formula reads, never over a
Tensor.  So `add`, `sub`, `scale`, `reshape`, `permute`, `pad_axis`,
`slice_axis` and the sums keep no array, `relu` and the softmaxes keep
their output, `matmul` and `mul` their operands, and `temporal_conv` its
input and kernel: its backward takes the kernel gradient first and frees
the padded input before the input gradient's padded buffer is made.  Every
other intermediate is freed as soon as the forward pass drops it, while the
tape is still live.

Handover: a cell copies its first contribution, so that a later `+=` cannot
write through a view into another buffer, except where the rule has just
computed the array and nothing else can reach it.  Those arrays are handed
to the cell as they are (`_accumulate(..., fresh=True)`): here the results
of `matmul`, `mul`, `scale`, `relu` and `softmax_rows` and the
input-gradient slice of `temporal_conv`.  `add`, `sub`, `reshape`,
`permute`, the slices and the sums pass on views of their output's
gradient or `broadcast_to` views, so they keep copying.  Work in place
touches only arrays the code has just made: nothing writes into a cell's
gradient or an array another rule can still read.

Concurrency: training runs on the calling thread; only evaluation
(`training.predict_logits`) forwards samples on worker threads, which
record no tape and only read parameters and batchnorm buffers.
Operations never mutate tensors, and the tape stack is thread-local, so a
Tape must stay confined to the thread that created it.  Cells are written
without a lock: two tapes reaching the same tensor (every Parameter) must
not replay at once, and parameter mutation (optimizer steps, gradient
zeroing) requires exclusive access.
"""
from __future__ import annotations

import threading
from typing import Callable, Sequence

import numpy as np

from . import precision
from .errors import NumericError, ShapeError

def _check_finite(arr: np.ndarray, op: str) -> None:
    if not np.isfinite(arr).all():
        raise NumericError(f"{op} produced non-finite values")


class GradCell:
    """The gradient slot of one Tensor, held apart from its data.

    Backward rules close over cells instead of tensors, so recording a rule
    keeps no array alive that the rule's formula does not read.
    """

    __slots__ = ("grad",)

    def __init__(self):
        self.grad: np.ndarray | None = None


class Tensor:
    """Immutable-by-convention dense array of the current global dtype.

    `grad` (stored in the tensor's GradCell) is filled in by Tape.backward;
    it is None until the tensor has received its first contribution
    (parameters pre-allocate zeros instead, see Parameter).
    """

    __slots__ = ("data", "cell")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=precision.dtype())
        self.cell = GradCell()

    @property
    def grad(self) -> np.ndarray | None:
        return self.cell.grad

    @grad.setter
    def grad(self, value: np.ndarray | None) -> None:
        self.cell.grad = value

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype})"


class Parameter:
    """A named trainable tensor with a persistent gradient buffer.

    The gradient buffer accumulates across backward passes (one contribution
    per pass) until `zero_grad` resets it; this is what batch-gradient
    accumulation relies on.  `zero_grad` and `training.sgd_step` write the
    gradient and the value in place.
    """

    __slots__ = ("value", "identifier")

    def __init__(self, value, identifier: str):
        self.value = value if isinstance(value, Tensor) else Tensor(value)
        self.value.grad = np.zeros_like(self.value.data)
        self.identifier = identifier

    @property
    def grad(self) -> np.ndarray:
        return self.value.grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def zero_grad(self) -> None:
        if self.value.grad is None:
            self.value.grad = np.zeros_like(self.value.data)
        else:
            self.value.grad.fill(0)

    def assign(self, data: np.ndarray) -> None:
        """Overwrite the parameter value in place (exclusive access required)."""
        if data.shape != self.value.data.shape:
            raise ShapeError(
                f"parameter {self.identifier}: cannot assign shape {data.shape} "
                f"over {self.value.data.shape}"
            )
        self.value.data = np.asarray(data, dtype=precision.dtype()).copy()

    def __repr__(self) -> str:
        return f"Parameter({self.identifier!r}, shape={self.shape})"


_tls = threading.local()


def _stack() -> list:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = _tls.stack = []
    return stack


def active_tape() -> "Tape | None":
    stack = _stack()
    return stack[-1] if stack else None


class Tape:
    """Ordered record of executed operations for one forward pass.

    Backward rules are closures over the gradient cells of the op's inputs
    and output and over the arrays the rule reads; replay happens in strict
    reverse execution order, which for a DAG guarantees an output's
    gradient is complete before its producer's rule runs.  Replay
    pops each rule before running it, so the tape is empty afterwards and a
    second backward (or a further record) raises.
    """

    __slots__ = ("_records", "_consumed")

    def __init__(self):
        self._records: list[Callable[[], None]] = []
        self._consumed = False

    def __enter__(self) -> "Tape":
        _stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        popped = _stack().pop()
        if popped is not self:
            raise RuntimeError("tape stack corrupted: tapes must nest")
        return False

    def record(self, rule: Callable[[], None]) -> None:
        if self._consumed:
            raise RuntimeError("cannot record on a tape that has been replayed")
        self._records.append(rule)

    def __len__(self) -> int:
        return len(self._records)

    def backward(self, output: Tensor, seed: np.ndarray | None = None) -> None:
        if self._consumed:
            raise RuntimeError("tape already replayed; record a new Tape for another "
                               "backward pass")
        self._consumed = True
        if seed is None:
            seed = np.ones(output.shape, dtype=output.data.dtype)
        _accumulate(output.cell, np.asarray(seed, dtype=output.data.dtype))
        records = self._records
        while records:
            records.pop()()


def _record(out: Tensor, rule: Callable[[np.ndarray], None]) -> Tensor:
    """Record `rule` as the backward of `out` on the active tape, if any; return `out`.

    The recorded replay calls `rule(g)` with out's gradient `g` and skips it
    when no gradient reached `out`.  It closes over out's cell, never `out`,
    and carries the rule's `__qualname__` (its op name, by which tests and the
    benchmark count records) and the rule itself as `__wrapped__`.
    """
    tape = active_tape()
    if tape is not None:
        cell = out.cell

        def replay():
            if cell.grad is not None:
                rule(cell.grad)

        replay.__qualname__ = rule.__qualname__
        replay.__wrapped__ = rule
        tape.record(replay)
    return out


def _accumulate(cell: GradCell, g: np.ndarray, fresh: bool = False) -> None:
    """Add `g` to the cell's gradient; a `fresh` first contribution is kept
    uncopied (see "Handover" in the module docstring)."""
    if cell.grad is None:
        cell.grad = g if fresh else np.array(g)
    else:
        cell.grad += g


# ---------------------------------------------------------------------------
# Differentiable operations.  Each computes a fresh Tensor `out`, defines
# `rule(g)` for out's gradient g and returns `_record(out, rule)`.  OP_NAMES
# is the registry the gradient-check suite iterates over.

OP_NAMES = [
    "matmul",
    "softmax_rows",
    "log_softmax_rows",
    "add",
    "sub",
    "mul",
    "scale",
    "relu",
    "reshape",
    "permute",
    "pad_axis",
    "slice_axis",
    "sum_all",
    "sum_axis",
    "batchnorm",
    "temporal_conv",
    "spatial_graph_bn_relu",
    "spatial_temporal_stage",
    "spatial_tgraph_stage",
    "temporal_graph_conv",
]


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions disagree for {a.shape} and {b.shape}")
    out = Tensor(a.data @ b.data)
    _check_finite(out.data, "matmul")
    a_cell, b_cell, a_data, b_data = a.cell, b.cell, a.data, b.data

    def rule(g):
        _accumulate(a_cell, g @ b_data.T, fresh=True)
        _accumulate(b_cell, a_data.T @ g, fresh=True)

    return _record(out, rule)


def _softmax(m: np.ndarray) -> np.ndarray:
    e = np.exp(m - m.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _softmax_grad(s: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The gradient at the scores of row-softmax output `s` with output gradient `g`."""
    return s * (g - np.sum(g * s, axis=1, keepdims=True))


def softmax_rows(m: Tensor) -> Tensor:
    if m.data.ndim != 2:
        raise ShapeError(f"softmax_rows expects a 2-D tensor, got {m.shape}")
    out = Tensor(_softmax(m.data))
    _check_finite(out.data, "softmax_rows")
    m_cell, s = m.cell, out.data

    def rule(g):
        _accumulate(m_cell, _softmax_grad(s, g), fresh=True)

    return _record(out, rule)


def log_softmax_rows(m: Tensor) -> Tensor:
    if m.data.ndim != 2:
        raise ShapeError(f"log_softmax_rows expects a 2-D tensor, got {m.shape}")
    shifted = m.data - m.data.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    out = Tensor(shifted - log_z)
    _check_finite(out.data, "log_softmax_rows")
    m_cell, log_soft = m.cell, out.data

    def rule(g):
        _accumulate(m_cell, g - np.exp(log_soft) * g.sum(axis=1, keepdims=True))

    return _record(out, rule)


def _require_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: operand shapes differ, {a.shape} vs {b.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape(a, b, "add")
    out = Tensor(a.data + b.data)
    _check_finite(out.data, "add")
    a_cell, b_cell = a.cell, b.cell

    def rule(g):
        _accumulate(a_cell, g)
        _accumulate(b_cell, g)

    return _record(out, rule)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape(a, b, "sub")
    out = Tensor(a.data - b.data)
    _check_finite(out.data, "sub")
    a_cell, b_cell = a.cell, b.cell

    def rule(g):
        _accumulate(a_cell, g)
        _accumulate(b_cell, -g)

    return _record(out, rule)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape(a, b, "mul")
    out = Tensor(a.data * b.data)
    _check_finite(out.data, "mul")
    a_cell, b_cell, a_data, b_data = a.cell, b.cell, a.data, b.data

    def rule(g):
        _accumulate(a_cell, g * b_data, fresh=True)
        _accumulate(b_cell, g * a_data, fresh=True)

    return _record(out, rule)


def scale(a: Tensor, s: float) -> Tensor:
    out = Tensor(a.data * s)
    _check_finite(out.data, "scale")
    a_cell = a.cell

    def rule(g):
        _accumulate(a_cell, g * s, fresh=True)

    return _record(out, rule)


def relu(a: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.data, 0.0))
    a_cell, out_data = a.cell, out.data

    def rule(g):  # out > 0 exactly where a > 0; the rest get zero gradient
        _accumulate(a_cell, g * (out_data > 0), fresh=True)

    return _record(out, rule)


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape, dtype=np.int64)) != a.size:
        raise ShapeError(f"reshape: cannot view {a.shape} as {shape}")
    out = Tensor(a.data.reshape(shape))
    a_cell, original = a.cell, a.shape

    def rule(g):
        _accumulate(a_cell, g.reshape(original))

    return _record(out, rule)


def permute(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    if sorted(axes) != list(range(a.data.ndim)):
        raise ShapeError(f"permute: {axes} is not a permutation of {a.data.ndim} axes")
    out = Tensor(np.ascontiguousarray(a.data.transpose(axes)))
    a_cell, inverse = a.cell, tuple(np.argsort(axes))

    def rule(g):
        _accumulate(a_cell, g.transpose(inverse))

    return _record(out, rule)


def pad_axis(a: Tensor, axis: int, before: int, after: int) -> Tensor:
    if before < 0 or after < 0:
        raise ShapeError("pad_axis: pad widths must be non-negative")
    widths = [(0, 0)] * a.data.ndim
    widths[axis] = (before, after)
    out = Tensor(np.pad(a.data, widths))
    index = [slice(None)] * a.data.ndim
    index[axis] = slice(before, before + a.shape[axis])
    index = tuple(index)
    a_cell = a.cell

    def rule(g):
        _accumulate(a_cell, g[index])

    return _record(out, rule)


def slice_axis(a: Tensor, axis: int, start: int, stop: int, step: int = 1) -> Tensor:
    if step < 1:
        raise ShapeError("slice_axis: step must be positive")
    index = [slice(None)] * a.data.ndim
    index[axis] = slice(start, stop, step)
    index = tuple(index)
    out = Tensor(np.ascontiguousarray(a.data[index]))
    a_cell, shape, dtype = a.cell, a.shape, a.data.dtype

    def rule(g):
        d_a = np.zeros(shape, dtype)
        d_a[index] = g
        _accumulate(a_cell, d_a)

    return _record(out, rule)


def _temporal(shape: tuple, kernel: Tensor, stride: int, pad: int):
    """Check a temporal conv of an input shaped `shape` and return its arithmetic as closures.

    `blank()` is a zero (C_in, T + 2 pad, J) buffer and its (C_in, T, J)
    interior, which the caller fills with the input.  `conv(padded)` is the
    (C_out, T_out, J) output: tap k of every window is one (C_in, T_out * J)
    block multiplied by kernel[:, :, k], summed in order k = 0..K-1.
    For the output gradient `g`, `kernel_grad(g, padded)` adds the kernel
    gradient to the kernel's cell and `input_grad(g)` returns the input
    gradient, a fresh array's interior view, both replaying the taps
    k = K-1..0; `padded` can be freed between the two.  The closures hold
    the kernel, never a Tensor.
    """
    if len(shape) != 3 or kernel.data.ndim != 3:
        raise ShapeError(f"temporal_conv expects 3-D operands, got {shape} and {kernel.shape}")
    c_in, frames, joints = shape
    c_out, kernel_in, taps = kernel.shape
    if kernel_in != c_in:
        raise ShapeError(f"temporal_conv: kernel {kernel.shape} does not take {c_in} channels")
    if stride < 1 or pad < 0:
        raise ShapeError("temporal_conv: stride must be positive and pad non-negative")
    out_frames = (frames + 2 * pad - taps) // stride + 1
    if out_frames < 1:
        raise ShapeError(f"temporal_conv: {frames} frames with pad {pad} are shorter "
                         f"than the kernel ({taps})")
    span = (out_frames - 1) * stride + 1
    kernel_data, kernel_cell = kernel.data, kernel.cell

    def blank() -> tuple[np.ndarray, np.ndarray]:
        padded = np.zeros((c_in, frames + 2 * pad, joints), kernel_data.dtype)
        return padded, padded[:, pad:pad + frames]

    def tap(padded: np.ndarray, k: int) -> np.ndarray:
        if stride == 1:  # a strided (C_in, T_out * J) block BLAS reads in place
            return padded.reshape(c_in, -1)[:, k * joints:(k + out_frames) * joints]
        return np.ascontiguousarray(padded[:, k:k + span:stride]).reshape(c_in, -1)

    def weight(k: int) -> np.ndarray:
        return np.ascontiguousarray(kernel_data[:, :, k])

    def conv(padded: np.ndarray) -> np.ndarray:
        acc = weight(0) @ tap(padded, 0)
        for k in range(1, taps):
            acc += weight(k) @ tap(padded, k)
        return acc.reshape(c_out, out_frames, joints)

    def kernel_grad(g: np.ndarray, padded: np.ndarray) -> None:
        g = g.reshape(c_out, -1)
        d_kernel = np.zeros_like(kernel_data)
        for k in reversed(range(taps)):
            d_kernel[:, :, k] = g @ tap(padded, k).T
        _accumulate(kernel_cell, d_kernel)

    def input_grad(g: np.ndarray) -> np.ndarray:
        g = g.reshape(c_out, -1)
        d_padded, _ = blank()
        for k in reversed(range(taps)):
            d_padded[:, k:k + span:stride] += (weight(k).T @ g).reshape(
                c_in, out_frames, joints)
        return d_padded[:, pad:pad + frames]

    return blank, conv, kernel_grad, input_grad


def temporal_conv(x: Tensor, kernel: Tensor, stride: int, pad: int) -> Tensor:
    """(C_in, T, J) x (C_out, C_in, K) -> (C_out, T_out, J), a K x 1 convolution.

    Zero padding `pad` on both ends of T, T_out = (T + 2 pad - K) // stride + 1.
    The arithmetic is exactly that of the unfused pad/slice/matmul/add chain:
    tap k of every window is one (C_in, T_out * J) block multiplied by
    kernel[:, :, k], and the taps are summed in order k = 0..K-1.  With
    stride 1 a tap is a strided view of the padded input that BLAS reads in
    place, with the same bits as a contiguous copy; larger strides copy it.
    With `pad` 0 the taps read `x` itself, never a padded copy.  The
    backward rule rebuilds the padded input and the taps instead of keeping
    them.
    """
    blank, conv, kernel_grad, input_grad = _temporal(x.data.shape, kernel, stride, pad)
    x_data = x.data

    def padded() -> np.ndarray:
        if pad == 0:
            return x_data
        buffer, interior = blank()
        interior[...] = x_data
        return buffer

    out = Tensor(conv(padded()))
    _check_finite(out.data, "temporal_conv")
    x_cell = x.cell

    def rule(g):
        kernel_grad(g, padded())  # a padded copy, if any, is freed here
        _accumulate(x_cell, input_grad(g), fresh=True)

    return _record(out, rule)


def _check_stack(op: str, operands: Sequence[Tensor], shape: tuple, what: str) -> None:
    for n, t in enumerate(operands):
        if t.shape != shape:
            raise ShapeError(f"{op}: {what} {n} has shape {t.shape}, expected {shape}")


def sum_all(a: Tensor) -> Tensor:
    out = Tensor(a.data.sum())
    _check_finite(out.data, "sum_all")
    a_cell, shape = a.cell, a.shape

    def rule(g):
        _accumulate(a_cell, np.broadcast_to(g, shape))

    return _record(out, rule)


def sum_axis(a: Tensor, axis: int) -> Tensor:
    out = Tensor(a.data.sum(axis=axis))
    _check_finite(out.data, "sum_axis")
    a_cell, shape = a.cell, a.shape

    def rule(g):
        _accumulate(a_cell, np.broadcast_to(np.expand_dims(g, axis), shape))

    return _record(out, rule)

