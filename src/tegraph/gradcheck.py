"""Central-difference verification of taped gradients.

The harness treats the library as a black box: a check is a zero-argument
callable returning a scalar Tensor, plus the named tensors to differentiate
with respect to.  Analytic gradients come from one taped backward pass;
numeric gradients perturb each element by +/- eps with a fresh untaped
forward evaluation.  Comparison uses the relative error

    |analytic - numeric| / max(|analytic|, |numeric|, 1e-8)

so tiny gradients near zero do not blow up the ratio.

OP_CHECKS maps every registered differentiable op to a builder producing a
ready-made check; the op registry and this table are asserted to agree, so a
new op cannot be added without a gradient check.  Outputs are scalarized
through a fixed random weighting, not a plain sum: summing softmax rows, for
example, has an identically-zero gradient and would verify nothing.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import precision
from .batchnorm import batchnorm
from .blocks import (
    SGBlock,
    TCBlock,
    _spatial_graph,
    spatial_graph_bn_relu,
    spatial_temporal_stage,
    spatial_tgraph_stage,
    tc_output_length,
)
from .errors import NumericError
from .temporal import MultiHeadTemporalConv, temporal_graph_conv
from .tensor import (
    OP_NAMES,
    Parameter,
    Tape,
    Tensor,
    add,
    matmul,
    mul,
    pad_axis,
    permute,
    relu,
    reshape,
    scale,
    slice_axis,
    softmax_rows,
    log_softmax_rows,
    sub,
    sum_all,
    sum_axis,
    temporal_conv,
)


@dataclass
class GradCheckResult:
    ok: bool
    max_rel_error: float
    elements_checked: int
    failures: list[tuple[str, int, float, float, float]] = field(default_factory=list)

    def __str__(self) -> str:
        status = "ok" if self.ok else "FAILED"
        return (
            f"grad_check {status}: max rel error {self.max_rel_error:.3e} "
            f"over {self.elements_checked} elements"
        )


def _named(wrt) -> list[tuple[str, Tensor]]:
    out = []
    for i, item in enumerate(wrt):
        if isinstance(item, Parameter):
            out.append((item.identifier, item.value))
        elif isinstance(item, tuple):
            out.append((item[0], item[1]))
        else:
            out.append((f"arg{i}", item))
    return out


def grad_check(
    f,
    wrt,
    eps: float = 1e-5,
    tol: float = 1e-5,
    max_elements: int | None = None,
    seed: int = 0,
) -> GradCheckResult:
    """Compare taped gradients of scalar-valued `f` against central differences.

    `wrt` is a sequence of Tensors, Parameters, or (name, Tensor) pairs whose
    elements are perturbed in place (and restored).  Requires float64
    precision; the forward pass must be deterministic (it is evaluated twice
    and must agree bit for bit before any differencing starts).
    """
    if precision.dtype() != np.float64:
        raise NumericError("grad_check requires the float64 verify precision mode")
    entries = _named(wrt)

    first = f()
    second = f()
    if first.size != 1:
        raise NumericError(f"grad_check needs a scalar output, got shape {first.shape}")
    if not np.array_equal(first.data, second.data):
        raise NumericError("grad_check: forward pass is not deterministic")

    for _, t in entries:
        t.grad = None
    with Tape() as tape:
        out = f()
        tape.backward(out)
    analytic = {
        name: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
        for name, t in entries
    }
    for _, t in entries:
        t.grad = None

    rng = np.random.default_rng(seed)
    failures: list[tuple[str, int, float, float, float]] = []
    max_rel = 0.0
    checked = 0
    for name, t in entries:
        flat = t.data.reshape(-1)
        indices = np.arange(flat.size)
        if max_elements is not None and flat.size > max_elements:
            indices = rng.choice(flat.size, size=max_elements, replace=False)
        a_flat = analytic[name].reshape(-1)
        for k in indices:
            original = flat[k]
            flat[k] = original + eps
            f_plus = float(f().data)
            flat[k] = original - eps
            f_minus = float(f().data)
            flat[k] = original
            numeric = (f_plus - f_minus) / (2.0 * eps)
            a = float(a_flat[k])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            checked += 1
            if rel > max_rel:
                max_rel = rel
            if rel > tol:
                failures.append((name, int(k), a, numeric, rel))
    return GradCheckResult(not failures, max_rel, checked, failures)


# ---------------------------------------------------------------------------
# One check per registered op.  Each builder returns (f, wrt); inputs are
# drawn from `rng` so repeated runs cover fresh points.


def _check_matmul(rng):
    a = Tensor(rng.normal(size=(3, 4)))
    b = Tensor(rng.normal(size=(4, 5)))
    w = Tensor(rng.normal(size=(3, 5)))
    return (lambda: sum_all(mul(matmul(a, b), w))), [("a", a), ("b", b)]


def _check_softmax_rows(rng):
    m = Tensor(rng.normal(size=(4, 6)) * 2.0)
    w = Tensor(rng.normal(size=(4, 6)))
    return (lambda: sum_all(mul(softmax_rows(m), w))), [("m", m)]


def _check_log_softmax_rows(rng):
    m = Tensor(rng.normal(size=(4, 6)) * 2.0)
    w = Tensor(rng.normal(size=(4, 6)))
    return (lambda: sum_all(mul(log_softmax_rows(m), w))), [("m", m)]


def _check_add(rng):
    a = Tensor(rng.normal(size=(3, 5)))
    b = Tensor(rng.normal(size=(3, 5)))
    w = Tensor(rng.normal(size=(3, 5)))
    return (lambda: sum_all(mul(add(a, b), w))), [("a", a), ("b", b)]


def _check_sub(rng):
    a = Tensor(rng.normal(size=(3, 5)))
    b = Tensor(rng.normal(size=(3, 5)))
    w = Tensor(rng.normal(size=(3, 5)))
    return (lambda: sum_all(mul(sub(a, b), w))), [("a", a), ("b", b)]


def _check_mul(rng):
    a = Tensor(rng.normal(size=(3, 5)))
    b = Tensor(rng.normal(size=(3, 5)))
    w = Tensor(rng.normal(size=(3, 5)))
    return (lambda: sum_all(mul(mul(a, b), w))), [("a", a), ("b", b)]


def _check_scale(rng):
    a = Tensor(rng.normal(size=(4, 3)))
    w = Tensor(rng.normal(size=(4, 3)))
    s = float(rng.uniform(0.5, 2.0))
    return (lambda: sum_all(mul(scale(a, s), w))), [("a", a)]


def _check_relu(rng):
    # Keep inputs away from the kink so the central difference is clean.
    signs = rng.choice([-1.0, 1.0], size=(5, 4))
    a = Tensor(signs * rng.uniform(0.1, 2.0, size=(5, 4)))
    w = Tensor(rng.normal(size=(5, 4)))
    return (lambda: sum_all(mul(relu(a), w))), [("a", a)]


def _check_reshape(rng):
    a = Tensor(rng.normal(size=(3, 8)))
    w = Tensor(rng.normal(size=(6, 4)))
    return (lambda: sum_all(mul(reshape(a, (6, 4)), w))), [("a", a)]


def _check_permute(rng):
    a = Tensor(rng.normal(size=(2, 3, 4)))
    w = Tensor(rng.normal(size=(4, 2, 3)))
    return (lambda: sum_all(mul(permute(a, (2, 0, 1)), w))), [("a", a)]


def _check_pad_axis(rng):
    a = Tensor(rng.normal(size=(3, 4)))
    w = Tensor(rng.normal(size=(3, 7)))
    return (lambda: sum_all(mul(pad_axis(a, 1, 2, 1), w))), [("a", a)]


def _check_slice_axis(rng):
    a = Tensor(rng.normal(size=(4, 9)))
    w = Tensor(rng.normal(size=(4, 3)))
    return (lambda: sum_all(mul(slice_axis(a, 1, 1, 8, 3), w))), [("a", a)]


def _check_sum_all(rng):
    a = Tensor(rng.normal(size=(3, 4)))
    s = float(rng.uniform(0.5, 2.0))
    return (lambda: scale(sum_all(a), s)), [("a", a)]


def _check_sum_axis(rng):
    a = Tensor(rng.normal(size=(3, 4, 2)))
    w = Tensor(rng.normal(size=(3, 2)))
    return (lambda: sum_all(mul(sum_axis(a, 1), w))), [("a", a)]


def _check_batchnorm(rng):
    x = Tensor(rng.normal(size=(3, 4, 5)))
    gamma = Tensor(rng.uniform(0.5, 1.5, size=(3,)))
    beta = Tensor(rng.normal(size=(3,)))
    running_mean = np.zeros(3)
    running_var = np.ones(3)
    w = Tensor(rng.normal(size=(3, 4, 5)))

    def f():
        out = batchnorm(x, gamma, beta, running_mean, running_var, training=True)
        return sum_all(mul(out, w))

    return f, [("x", x), ("gamma", gamma), ("beta", beta)]


def _away_from_the_kink(rng, draw, pre_relu, margin=0.01):
    """Redraw the inputs until no pre-ReLU value lies within `margin` of zero,
    so the central difference never straddles the kink."""
    while True:
        inputs = draw(rng)
        if np.abs(pre_relu(*inputs).data).min() > margin:
            return inputs


def _redraw(params):
    """The `draw` of the spatial-stage checks: every parameter afresh, the
    batchnorm scales in [0.5, 1.5], and a fresh (3, 5, 4) input."""
    def draw(r):
        for p in params:
            p.assign(r.uniform(0.5, 1.5, size=p.shape) if p.identifier.endswith(".gamma")
                     else r.normal(size=p.shape))
        return (Tensor(r.normal(size=(3, 5, 4))),)

    return draw


def _bn(t, block):
    c = block.bn.channels
    return batchnorm(t, block.bn.gamma.value, block.bn.beta.value, np.zeros(c), np.ones(c), True)


def _spatial_pre_relu(sg, x):
    conv, _ = _spatial_graph(x, [w.value for w in sg.weights], sg.partitions,
                             [m.value for m in sg.masks])
    return _bn(Tensor(conv()), sg)


def _check_spatial_stage(rng, strides):
    """One spatial block, alone or feeding one temporal block per stride; with
    strides 1 and 2 each spatial parameter takes two contributions."""
    sg = SGBlock(3, 2, rng.normal(size=(2, 4, 4)), "sg")
    tcs = [TCBlock(2, 3, stride, f"tc{stride}") for stride in strides]
    params = sg.parameters() + [p for tc in tcs for p in tc.parameters()]

    def pre_relu(x):
        s = _spatial_pre_relu(sg, x)
        ts = [_bn(temporal_conv(relu(s), tc.kernel.value, tc.stride, tc.pad), tc) for tc in tcs]
        return Tensor(np.concatenate([t.data.ravel() for t in (s, *ts)]))

    (x,) = _away_from_the_kink(rng, _redraw(params), pre_relu)
    frames = [tc_output_length(5, stride) for stride in strides] or [5]
    ws = [Tensor(rng.normal(size=(2, t, 4))) for t in frames]

    def f():
        outs = [spatial_temporal_stage(sg, tc, x) for tc in tcs] or [spatial_graph_bn_relu(sg, x)]
        return functools.reduce(add, (sum_all(mul(out, w)) for out, w in zip(outs, ws)))

    return f, [("x", x), *params]


def _check_spatial_tgraph_stage(rng):
    """One spatial block feeding two feature-calculated heads and their mix,
    the output maps drawn off zero."""
    sg = SGBlock(3, 4, rng.normal(size=(2, 4, 4)), "sg")
    mhc = MultiHeadTemporalConv(2, "feature-calculated", 4, 5, 4, "tgc")
    params = sg.parameters() + mhc.parameters()
    (x,) = _away_from_the_kink(rng, _redraw(params), lambda x: _spatial_pre_relu(sg, x))
    w = Tensor(rng.normal(size=(4, 5, 4)))
    return (lambda: sum_all(mul(spatial_tgraph_stage(sg, mhc, x)[0], w))), [("x", x), *params]


def _check_temporal_conv(rng):
    x = Tensor(rng.normal(size=(3, 7, 2)))
    kernel = Tensor(rng.normal(size=(4, 3, 3)))
    w = Tensor(rng.normal(size=(4, 4, 2)))
    return (lambda: sum_all(mul(temporal_conv(x, kernel, 2, 1), w))), [("x", x),
                                                                       ("kernel", kernel)]


def _check_temporal_graph_conv(rng):
    """Two heads' mix of a (3, 5, 2) input, the output maps drawn off zero."""
    mhc = MultiHeadTemporalConv(2, "feature-learned", 3, 5, 2, "tgc")
    for w_t in mhc.output_maps:
        w_t.assign(rng.normal(size=w_t.shape))
    x = Tensor(rng.normal(size=(3, 5, 2)))
    adjacencies = [Tensor(rng.normal(size=(5, 5))) for _ in range(2)]
    w = Tensor(rng.normal(size=(3, 5, 2)))
    wrt = [("x", x), *((f"a{n}", t) for n, t in enumerate(adjacencies)), *mhc.output_maps]
    return (lambda: sum_all(mul(temporal_graph_conv(mhc, x, adjacencies), w))), wrt


OP_CHECKS = {
    "matmul": _check_matmul,
    "softmax_rows": _check_softmax_rows,
    "log_softmax_rows": _check_log_softmax_rows,
    "add": _check_add,
    "sub": _check_sub,
    "mul": _check_mul,
    "scale": _check_scale,
    "relu": _check_relu,
    "reshape": _check_reshape,
    "permute": _check_permute,
    "pad_axis": _check_pad_axis,
    "slice_axis": _check_slice_axis,
    "sum_all": _check_sum_all,
    "sum_axis": _check_sum_axis,
    "batchnorm": _check_batchnorm,
    "temporal_conv": _check_temporal_conv,
    "spatial_graph_bn_relu": lambda rng: _check_spatial_stage(rng, ()),
    "spatial_temporal_stage": lambda rng: _check_spatial_stage(rng, (1, 2)),
    "spatial_tgraph_stage": _check_spatial_tgraph_stage,
    "temporal_graph_conv": _check_temporal_graph_conv,
}

assert sorted(OP_CHECKS) == sorted(OP_NAMES), "op registry and check table disagree"


def check_all_ops(seed: int = 0, eps: float = 1e-5, tol: float = 1e-5,
                  only: str | None = None):
    """Run the registered check per op; yields (name, GradCheckResult)."""
    for name in OP_NAMES:
        if only is not None and name != only:
            continue
        rng = np.random.default_rng(seed + hash_free_offset(name))
        f, wrt = OP_CHECKS[name](rng)
        yield name, grad_check(f, wrt, eps=eps, tol=tol)


def hash_free_offset(name: str) -> int:
    """Stable per-name offset (no builtin hash: that is salted per process)."""
    return sum(ord(c) * (i + 1) for i, c in enumerate(name))
