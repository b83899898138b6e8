"""Batch normalization over the leading channel axis.

Implemented as a dedicated taped op with a hand-written backward, recorded
through `tensor._record`, rather than a composition of primitives: the
composed graph would be an order of magnitude more tape records per layer,
and the closed-form gradient is the one place the chain rule is genuinely
error-prone, so the op gets its own gradient-check entry.  The arithmetic
lives in five helpers that `batchnorm` and the fused stages of blocks.py
call, so they cannot drift apart: `_normalize` (the forward pass),
`_center` (xhat from the input and the per-channel mean and sigma),
`_affine` (gamma * xhat + beta), `_gradients` (the backward pass) and
`_relu_backward`, the one bn -> ReLU backward: it rebuilds the ReLU mask
gamma * xhat + beta > 0, forms dy and then dx over that temporary, and
hands beta and gamma their gradients.
`batchnorm`'s rule keeps the normalized input `xhat` and the per-channel
scale gamma / sigma, never x itself.  The spatial stage of blocks.py
(`blocks._spatial_stage`) keeps neither: its forward normalizes its own
conv output in place (`_normalize(..., in_place=True)`), and its rule
rebuilds the conv output, centers it into xhat in place with `_center` and
replays `_relu_backward`; `blocks.spatial_temporal_stage` does the same for
its temporal batchnorm, running the temporal conv again, and has `_affine`
write its spatial output straight into the temporal conv's padded input,
and `blocks.spatial_tgraph_stage` has `_affine` rebuild its spatial output
from the spatial xhat.

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
from .tensor import GradCell, Parameter, Tensor, _accumulate, _check_finite, _record

EPS = 1e-5  # added to the variance under the square root
MOMENTUM = 0.1  # the weight of a batch's statistics in one running-buffer step


def _divide(total: np.ndarray, count: np.intp) -> np.ndarray:
    """total / count in place, rounded as np.mean and np.var round it."""
    return np.true_divide(total, count, out=total, casting="unsafe")


def _layout(x: np.ndarray) -> tuple[tuple[int, ...], tuple[int, ...], np.intp]:
    """Reduction axes, per-channel broadcast shape and element count per channel."""
    return (tuple(range(1, x.ndim)), (x.shape[0],) + (1,) * (x.ndim - 1),
            np.intp(math.prod(x.shape[1:])))


def _center(x: np.ndarray, mean: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """xhat = (x - mean) / sigma with `mean` per channel, in place in x."""
    x -= mean
    x /= sigma.reshape(mean.shape)
    return x


def _affine(xhat: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
            out: np.ndarray | None = None) -> np.ndarray:
    """gamma * xhat + beta, the batchnorm output, written into `out` if given."""
    bshape = (xhat.shape[0],) + (1,) * (xhat.ndim - 1)
    out = np.multiply(gamma.reshape(bshape), xhat, out=out)
    out += beta.reshape(bshape)
    return out


def _normalize(x: np.ndarray, gamma: Tensor, beta: Tensor, running_mean: np.ndarray,
               running_var: np.ndarray, training: bool, in_place: bool = False):
    """The forward arithmetic: (output, xhat, mean, sigma, scale).

    mean is per channel in broadcast shape, sigma per channel, and scale is
    gamma / sigma in broadcast shape, the factor of the input gradient.  In
    training the running buffers take one momentum step.  `in_place` centers
    x in place and writes the output over xhat, so all three are x.
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
    buffer = x if in_place else None
    if training:
        mean = _divide(x.sum(axis=axes, keepdims=True), count)
        xhat = np.subtract(x, mean, out=buffer)
        var = _divide(np.square(xhat).sum(axis=axes), count)
        running_mean *= 1.0 - MOMENTUM
        running_mean += MOMENTUM * mean.reshape(channels)
        running_var *= 1.0 - MOMENTUM
        running_var += MOMENTUM * var
    else:
        mean = running_mean.reshape(bshape).copy()  # a rule may keep it; the buffer moves
        xhat = np.subtract(x, mean, out=buffer)
        var = running_var
    sigma = np.sqrt(var + EPS)
    xhat /= sigma.reshape(bshape)
    out = _affine(xhat, gamma.data, beta.data, out=buffer)
    _check_finite(out, "batchnorm")
    return out, xhat, mean, sigma, (gamma.data / sigma).reshape(bshape)


def _gradients(dy: np.ndarray, xhat: np.ndarray, scale: np.ndarray, training: bool,
               in_place: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(d_beta, d_gamma, dx) for the output gradient `dy`; `in_place` forms dx
    in dy, which must then be the caller's own temporary."""
    axes, bshape, count = _layout(dy)
    d_beta = dy.sum(axis=axes)
    dy_xhat = dy * xhat
    d_gamma = dy_xhat.sum(axis=axes)
    dx = dy if in_place else None
    if training:
        # Batch statistics depend on x, hence the two centering terms:
        # scale * (dy - mean(dy) - xhat * mean(dy * xhat)).
        m_dy = _divide(d_beta.copy(), count).reshape(bshape)
        m_dy_xhat = _divide(d_gamma.copy(), count).reshape(bshape)
        dx = np.subtract(dy, m_dy, out=dx)
        dx -= np.multiply(xhat, m_dy_xhat, out=dy_xhat)
        dx *= scale
    else:
        dx = np.multiply(scale, dy, out=dx)
    return d_beta, d_gamma, dx


def _relu_backward(g: np.ndarray, xhat: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                   scale: np.ndarray, training: bool, gamma_cell: GradCell,
                   beta_cell: GradCell) -> np.ndarray:
    """The backward of relu(gamma * xhat + beta) for the output gradient `g`.

    The ReLU mask is rebuilt as gamma * xhat + beta > 0, and dy and then the
    input gradient are written over that temporary.  beta and gamma get
    their gradients, in that order, and the input gradient is returned.
    """
    dy = _affine(xhat, gamma, beta)
    dy = np.multiply(g, dy > 0, out=dy)
    del g  # a caller's temporary is freed before the bn backward allocates
    d_beta, d_gamma, dx = _gradients(dy, xhat, scale, training, in_place=True)
    _accumulate(beta_cell, d_beta, fresh=True)
    _accumulate(gamma_cell, d_gamma, fresh=True)
    return dx


def batchnorm(x: Tensor, gamma: Tensor, beta: Tensor, running_mean: np.ndarray,
              running_var: np.ndarray, training: bool) -> Tensor:
    out_data, xhat, _, _, scale = _normalize(x.data, gamma, beta, running_mean, running_var,
                                             training)
    cells = (beta.cell, gamma.cell, x.cell)

    def rule(g):
        for cell, grad in zip(cells, _gradients(g, xhat, scale, training)):
            _accumulate(cell, grad, fresh=True)

    return _record(Tensor(out_data), rule)


class BatchNorm:
    """Stateful wrapper owning scale/shift parameters and running buffers."""

    def __init__(self, channels: int, identifier: str):
        self.channels = channels
        self.identifier = identifier
        self.gamma = Parameter(init.ones((channels,)), identifier + ".gamma")
        self.beta = Parameter(init.zeros((channels,)), identifier + ".beta")
        self.running_mean = init.zeros((channels,))
        self.running_var = init.ones((channels,))
        self.training = True

    def __call__(self, x: Tensor) -> Tensor:
        return batchnorm(x, self.gamma.value, self.beta.value, self.running_mean,
                         self.running_var, self.training)

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
