"""Batch normalization over the leading channel axis.

Implemented as a dedicated taped op with a hand-written backward rather than
a composition of primitives: the composed graph would be an order of
magnitude more tape records per layer, and the closed-form gradient is the
one place the chain rule is genuinely error-prone, so it gets its own
gradient-check entry.  Its rule keeps the normalized input `xhat` and the
per-channel scale, never x itself.

Each statistic is computed once and bit for bit as numpy's own `mean` and
`var` compute it: a sum divided by an `np.intp` count through `out=` into
the input's dtype (`_divide`).  A float32 sum divided by an intp runs in
float64; `out=` rounds the quotient back to float32 once, where a plain
division would leave a float64 mean and change every float32 result after
it.  The forward pass centers x once, squares the centered array for the
variance and then scales it into `xhat` in place; the backward pass reuses
the sum of dy for its mean and forms dy * xhat once for both its sum and
its mean.  The three gradients are fresh arrays handed to their cells.

Statistics reduce over every axis except axis 0; an input of shape
(C, T, J) is normalized per channel over all frames and joints.  Variance is
the population variance (ddof=0) both for normalization and for the running
buffers, so a long run of identical batches makes eval mode converge exactly
to train mode.
"""
from __future__ import annotations

import math

import numpy as np

from . import init, precision
from .errors import ShapeError
from .tensor import Parameter, Tensor, _accumulate, _check_finite, active_tape


def _divide(total: np.ndarray, count: np.intp) -> np.ndarray:
    """total / count in place, rounded as np.mean and np.var round it."""
    return np.true_divide(total, count, out=total, casting="unsafe")


def batchnorm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    eps: float = 1e-5,
    momentum: float = 0.1,
) -> Tensor:
    if x.data.ndim < 2:
        raise ShapeError(f"batchnorm expects rank >= 2, got shape {x.shape}")
    channels = x.shape[0]
    if gamma.shape != (channels,) or beta.shape != (channels,):
        raise ShapeError(
            f"batchnorm: scale/shift shapes {gamma.shape}/{beta.shape} "
            f"do not match {channels} channels"
        )
    axes = tuple(range(1, x.data.ndim))
    bshape = (channels,) + (1,) * (x.data.ndim - 1)

    count = np.intp(math.prod(x.shape[1:]))

    if training:
        mean = _divide(x.data.sum(axis=axes, keepdims=True), count)
        xhat = x.data - mean
        var = _divide(np.square(xhat).sum(axis=axes), count)
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean.reshape(channels)
        running_var *= 1.0 - momentum
        running_var += momentum * var
    else:
        var = running_var
        xhat = x.data - running_mean.reshape(bshape)

    sigma = np.sqrt(var + eps)
    xhat /= sigma.reshape(bshape)
    out_data = gamma.data.reshape(bshape) * xhat
    out_data += beta.data.reshape(bshape)
    out = Tensor(out_data)
    _check_finite(out.data, "batchnorm")

    tape = active_tape()
    if tape is not None:
        x_cell, gamma_cell, beta_cell, out_cell = x.cell, gamma.cell, beta.cell, out.cell
        inv_sigma = (gamma.data / sigma).reshape(bshape)

        def rule():
            if out_cell.grad is None:
                return
            dy = out_cell.grad
            d_beta = dy.sum(axis=axes)
            dy_xhat = dy * xhat
            d_gamma = dy_xhat.sum(axis=axes)
            if training:
                # Batch statistics depend on x, hence the two centering terms:
                # inv_sigma * (dy - mean(dy) - xhat * mean(dy * xhat)).
                m_dy = _divide(d_beta.copy(), count).reshape(bshape)
                m_dy_xhat = _divide(d_gamma.copy(), count).reshape(bshape)
                dx = dy - m_dy
                dx -= np.multiply(xhat, m_dy_xhat, out=dy_xhat)
                dx *= inv_sigma
            else:
                dx = inv_sigma * dy
            _accumulate(beta_cell, d_beta, fresh=True)
            _accumulate(gamma_cell, d_gamma, fresh=True)
            _accumulate(x_cell, dx, fresh=True)

        tape.record(rule)
    return out


class BatchNorm:
    """Stateful wrapper owning scale/shift parameters and running buffers."""

    def __init__(self, channels: int, identifier: str, eps: float = 1e-5, momentum: float = 0.1):
        self.channels = channels
        self.identifier = identifier
        self.eps = eps
        self.momentum = momentum
        self.gamma = Parameter(init.ones((channels,)), identifier + ".gamma")
        self.beta = Parameter(init.zeros((channels,)), identifier + ".beta")
        self.running_mean = init.zeros((channels,))
        self.running_var = init.ones((channels,))
        self.training = True

    def __call__(self, x: Tensor) -> Tensor:
        return batchnorm(
            x,
            self.gamma.value,
            self.beta.value,
            self.running_mean,
            self.running_var,
            self.training,
            self.eps,
            self.momentum,
        )

    def parameters(self) -> list[Parameter]:
        return [self.gamma, self.beta]

    def buffers(self) -> list[tuple[str, np.ndarray]]:
        return [
            (self.identifier + ".running_mean", self.running_mean),
            (self.identifier + ".running_var", self.running_var),
        ]

    def load_buffer(self, name: str, data: np.ndarray) -> None:
        data = np.asarray(data, dtype=precision.dtype()).copy()
        if data.shape != (self.channels,):
            raise ShapeError(f"buffer {name}: shape {data.shape} does not match "
                             f"{self.channels} channels")
        if name.endswith(".running_mean"):
            self.running_mean = data
        elif name.endswith(".running_var"):
            self.running_var = data
        else:
            raise KeyError(name)
