"""Batch normalization over the leading channel axis.

Implemented as a dedicated taped op with a hand-written backward rather
than a composition of primitives: the composed graph would be an order of
magnitude more tape records per layer, and the closed-form gradient is the
one place the chain rule is genuinely error-prone, so the op gets its own
gradient-check entry.  The arithmetic lives in five helpers that
`batchnorm` and the fused stages of blocks.py call, so they cannot drift
apart: `_normalize` (the forward pass), `_center` (xhat from the input and
the per-channel mean and sigma), `_affine` (gamma * xhat + beta),
`_gradients` (the backward pass) and `_relu_backward`, the one bn -> ReLU
backward: it rebuilds the ReLU mask gamma * xhat + beta > 0, runs
`_gradients` and hands beta and gamma their gradients.  `batchnorm`'s rule
keeps the normalized input `xhat` and the per-channel scale gamma / sigma,
never x itself.  The spatial stage of blocks.py (`blocks._spatial_stage`)
keeps neither, rebuilds xhat from the conv output with `_center` and
replays `_relu_backward`; `blocks.spatial_temporal_stage` does the same for
its temporal batchnorm, running the temporal conv again, and has `_affine`
write its spatial output straight into the temporal conv's padded input.

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
from .tensor import GradCell, Parameter, Tensor, _accumulate, _check_finite, active_tape


def _divide(total: np.ndarray, count: np.intp) -> np.ndarray:
    """total / count in place, rounded as np.mean and np.var round it."""
    return np.true_divide(total, count, out=total, casting="unsafe")


def _layout(x: np.ndarray) -> tuple[tuple[int, ...], tuple[int, ...], np.intp]:
    """Reduction axes, per-channel broadcast shape and element count per channel."""
    return (tuple(range(1, x.ndim)), (x.shape[0],) + (1,) * (x.ndim - 1),
            np.intp(math.prod(x.shape[1:])))


def _center(x: np.ndarray, mean: np.ndarray, sigma: np.ndarray,
            centered: np.ndarray | None = None) -> np.ndarray:
    """xhat = (x - mean) / sigma with `mean` per channel; a `centered` x - mean
    already at hand is divided in place and becomes xhat."""
    xhat = x - mean if centered is None else centered
    xhat /= sigma.reshape(mean.shape)
    return xhat


def _affine(xhat: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
            out: np.ndarray | None = None) -> np.ndarray:
    """gamma * xhat + beta, the batchnorm output, written into `out` if given."""
    bshape = (xhat.shape[0],) + (1,) * (xhat.ndim - 1)
    out = np.multiply(gamma.reshape(bshape), xhat, out=out)
    out += beta.reshape(bshape)
    return out


def _normalize(x: np.ndarray, gamma: Tensor, beta: Tensor, running_mean: np.ndarray,
               running_var: np.ndarray, training: bool, eps: float, momentum: float):
    """The forward arithmetic: (output, xhat, mean, sigma, scale).

    mean is per channel in broadcast shape, sigma per channel, and scale is
    gamma / sigma in broadcast shape, the factor of the input gradient.  In
    training the running buffers take one momentum step.
    """
    if x.ndim < 2:
        raise ShapeError(f"batchnorm expects rank >= 2, got shape {x.shape}")
    channels = x.shape[0]
    if gamma.shape != (channels,) or beta.shape != (channels,):
        raise ShapeError(
            f"batchnorm: scale/shift shapes {gamma.shape}/{beta.shape} "
            f"do not match {channels} channels"
        )
    axes, bshape, count = _layout(x)
    centered = None
    if training:
        mean = _divide(x.sum(axis=axes, keepdims=True), count)
        centered = x - mean
        var = _divide(np.square(centered).sum(axis=axes), count)
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean.reshape(channels)
        running_var *= 1.0 - momentum
        running_var += momentum * var
    else:
        mean = running_mean.reshape(bshape).copy()  # a rule may keep it; the buffer moves
        var = running_var
    sigma = np.sqrt(var + eps)
    xhat = _center(x, mean, sigma, centered)
    out = _affine(xhat, gamma.data, beta.data)
    _check_finite(out, "batchnorm")
    return out, xhat, mean, sigma, (gamma.data / sigma).reshape(bshape)


def _gradients(dy: np.ndarray, xhat: np.ndarray, scale: np.ndarray,
               training: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(d_beta, d_gamma, dx) for the output gradient `dy`, all fresh arrays."""
    axes, bshape, count = _layout(dy)
    d_beta = dy.sum(axis=axes)
    dy_xhat = dy * xhat
    d_gamma = dy_xhat.sum(axis=axes)
    if training:
        # Batch statistics depend on x, hence the two centering terms:
        # scale * (dy - mean(dy) - xhat * mean(dy * xhat)).
        m_dy = _divide(d_beta.copy(), count).reshape(bshape)
        m_dy_xhat = _divide(d_gamma.copy(), count).reshape(bshape)
        dx = dy - m_dy
        dx -= np.multiply(xhat, m_dy_xhat, out=dy_xhat)
        dx *= scale
    else:
        dx = scale * dy
    return d_beta, d_gamma, dx


def _relu_backward(g: np.ndarray, xhat: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                   scale: np.ndarray, training: bool, gamma_cell: GradCell,
                   beta_cell: GradCell) -> np.ndarray:
    """The backward of relu(gamma * xhat + beta) for the output gradient `g`.

    The ReLU mask is rebuilt as gamma * xhat + beta > 0.  beta and gamma get
    their gradients, in that order, and the input gradient is returned.
    """
    dy = g * (_affine(xhat, gamma, beta) > 0)
    del g  # a caller's temporary is freed before the bn backward allocates
    d_beta, d_gamma, dx = _gradients(dy, xhat, scale, training)
    _accumulate(beta_cell, d_beta, fresh=True)
    _accumulate(gamma_cell, d_gamma, fresh=True)
    return dx


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
    out_data, xhat, _, _, scale = _normalize(x.data, gamma, beta, running_mean, running_var,
                                             training, eps, momentum)
    out = Tensor(out_data)
    tape = active_tape()
    if tape is not None:
        x_cell, gamma_cell, beta_cell, out_cell = x.cell, gamma.cell, beta.cell, out.cell

        def rule():
            if out_cell.grad is None:
                return
            grads = _gradients(out_cell.grad, xhat, scale, training)
            for cell, grad in zip((beta_cell, gamma_cell, x_cell), grads):
                _accumulate(cell, grad, fresh=True)

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
