"""Normalization statistics, running buffers, and the closed-form backward."""
import numpy as np
import pytest

from tegraph import precision
from tegraph.batchnorm import BatchNorm, batchnorm
from tegraph.errors import ShapeError
from tegraph.gradcheck import grad_check
from tegraph.tensor import Parameter, Tape, Tensor, mul, sum_all


def fresh(channels):
    return BatchNorm(channels, "test.bn")


def test_training_output_is_standardized_per_channel():
    rng = np.random.default_rng(1)
    x = rng.normal(loc=3.0, scale=2.0, size=(4, 6, 5))
    bn = fresh(4)
    out = bn(Tensor(x)).data
    np.testing.assert_allclose(out.mean(axis=(1, 2)), 0.0, rtol=0, atol=1e-12)
    # variance of the output is var/(var+eps), just below one
    np.testing.assert_allclose(out.var(axis=(1, 2)), 1.0, rtol=0, atol=1e-4)


def test_constant_channel_maps_to_beta():
    bn = fresh(2)
    bn.gamma.assign(np.array([5.0, 5.0]))
    bn.beta.assign(np.array([-1.0, 2.0]))
    x = np.full((2, 3, 3), 7.0)
    out = bn(Tensor(x)).data
    # zero variance: xhat is 0 everywhere, so only the shift survives
    np.testing.assert_allclose(out[0], -1.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(out[1], 2.0, rtol=0, atol=1e-12)


def test_already_standardized_input_passes_through():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(3, 50, 8))
    x = (x - x.mean(axis=(1, 2), keepdims=True)) / x.std(axis=(1, 2), keepdims=True)
    out = fresh(3)(Tensor(x)).data
    np.testing.assert_allclose(out, x, rtol=0, atol=1e-4)


def test_running_buffers_blend_with_momentum():
    bn = fresh(1)
    bn.running_mean[:] = 10.0
    bn.running_var[:] = 4.0
    x = np.array([[1.0, 3.0]])  # batch mean 2, population var 1
    bn(Tensor(x))
    np.testing.assert_allclose(bn.running_mean, [0.9 * 10.0 + 0.1 * 2.0],
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(bn.running_var, [0.9 * 4.0 + 0.1 * 1.0],
                               rtol=0, atol=1e-12)


def test_eval_mode_uses_buffers_and_leaves_them_alone():
    bn = fresh(1)
    bn.running_mean[:] = 2.0
    bn.running_var[:] = 4.0
    bn.training = False
    x = np.array([[2.0, 4.0, 6.0]])
    out = bn(Tensor(x)).data
    np.testing.assert_allclose(out, (x - 2.0) / np.sqrt(4.0 + bn.eps),
                               rtol=0, atol=1e-12)
    np.testing.assert_array_equal(bn.running_mean, [2.0])
    np.testing.assert_array_equal(bn.running_var, [4.0])


def test_eval_converges_to_train_on_repeated_identical_batches():
    rng = np.random.default_rng(3)
    x = rng.normal(loc=-1.0, scale=3.0, size=(2, 40))
    bn = fresh(2)
    for _ in range(400):
        train_out = bn(Tensor(x)).data
    bn.training = False
    eval_out = bn(Tensor(x)).data
    np.testing.assert_allclose(eval_out, train_out, rtol=0, atol=1e-9)


def test_shape_validation():
    bn = fresh(3)
    with pytest.raises(ShapeError):
        bn(Tensor(np.zeros(3)))
    with pytest.raises(ShapeError):
        batchnorm(Tensor(np.zeros((4, 2))), Tensor(np.zeros(3)), Tensor(np.zeros(3)),
                  np.zeros(4), np.ones(4), True)


@pytest.mark.parametrize("training", [True, False])
def test_backward_matches_finite_differences(training):
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(3, 4, 2)))
    gamma = Tensor(rng.normal(size=3) + 1.5)
    beta = Tensor(rng.normal(size=3))
    running_mean = rng.normal(size=3)
    running_var = rng.uniform(0.5, 2.0, size=3)
    w = Tensor(rng.normal(size=(3, 4, 2)))

    def f():
        out = batchnorm(x, gamma, beta, running_mean.copy(), running_var.copy(),
                        training)
        return sum_all(mul(out, w))

    result = grad_check(f, [("x", x), ("gamma", gamma), ("beta", beta)])
    assert result.ok, str(result)


def reference_batchnorm(x, gamma, beta, running_mean, running_var, training, dy,
                        eps=1e-5, momentum=0.1):
    """The textbook formulas, one numpy expression each: (out, xhat, dx, dgamma, dbeta)."""
    axes = tuple(range(1, x.ndim))
    bshape = (x.shape[0],) + (1,) * (x.ndim - 1)
    if training:
        mean = x.mean(axis=axes)
        var = x.var(axis=axes)
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        running_var *= 1.0 - momentum
        running_var += momentum * var
    else:
        mean, var = running_mean, running_var
    sigma = np.sqrt(var + eps)
    xhat = (x - mean.reshape(bshape)) / sigma.reshape(bshape)
    out = gamma.reshape(bshape) * xhat + beta.reshape(bshape)
    inv_sigma = (gamma / sigma).reshape(bshape)
    if training:
        m_dy = dy.mean(axis=axes).reshape(bshape)
        m_dy_xhat = (dy * xhat).mean(axis=axes).reshape(bshape)
        dx = inv_sigma * (dy - m_dy - xhat * m_dy_xhat)
    else:
        dx = inv_sigma * dy
    return out, xhat, dx, (dy * xhat).sum(axis=axes), dy.sum(axis=axes)


def closed_over(record, name):
    """A variable the op's own rule, beneath the recorded replay, closes over."""
    rule = record.__wrapped__
    return dict(zip(rule.__code__.co_freevars,
                    (cell.cell_contents for cell in rule.__closure__)))[name]


@pytest.mark.parametrize("mode", ["verify", "train"])
@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("shape", [(4, 37), (5, 30, 7)])
@pytest.mark.parametrize("prior_grad", [False, True])
def test_matches_the_reference_formulas_bit_for_bit(mode, training, shape, prior_grad):
    rng = np.random.default_rng(len(shape) * 10 + training)
    channels = shape[0]
    with precision.scoped_mode(mode):
        dtype = precision.dtype()
        x_data = rng.normal(loc=1.5, scale=3.0, size=shape).astype(dtype)
        dy = rng.normal(size=shape).astype(dtype)
        gamma = Parameter(rng.normal(size=channels) + 1.0, "bn.gamma")
        beta = Parameter(rng.normal(size=channels), "bn.beta")
        buffers = [rng.normal(size=channels).astype(dtype),
                   rng.uniform(0.5, 2.0, size=channels).astype(dtype)]
        expected_buffers = [b.copy() for b in buffers]
        x = Tensor(x_data)
        prior = rng.normal(size=shape).astype(dtype)
        if prior_grad:
            x.grad = prior.copy()
        with Tape() as tape:
            out = batchnorm(x, gamma.value, beta.value, *buffers, training)
            xhat = closed_over(tape._records[0], "xhat")
            tape.backward(out, seed=dy)
        want = reference_batchnorm(x_data, gamma.value.data, beta.value.data,
                                   *expected_buffers, training, dy)
    want_dx = prior + want[2] if prior_grad else want[2]
    got = (out.data, xhat, x.grad, gamma.grad, beta.grad)
    names = ("output", "xhat", "x grad", "gamma grad", "beta grad")
    for name, g, w in zip(names, got, (want[0], want[1], want_dx, want[3], want[4])):
        assert g.dtype == dtype and np.array_equal(g, w), name
    for got_buffer, want_buffer in zip(buffers, expected_buffers):
        assert np.array_equal(got_buffer, want_buffer)
