"""Forward semantics of every tensor op against independent oracles."""
import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tegraph import precision
from tegraph.errors import NumericError, ShapeError
from tegraph.tensor import (
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
)


def triple_loop_matmul(a, b):
    n, k = a.shape
    k2, m = b.shape
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            for p in range(k):
                out[i, j] += a[i, p] * b[p, j]
    return out


def test_matmul_matches_triple_loop_on_random_shapes():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n, k, m = rng.integers(1, 9, size=3)
        a = rng.normal(size=(n, k))
        b = rng.normal(size=(k, m))
        got = matmul(Tensor(a), Tensor(b)).data
        np.testing.assert_allclose(got, triple_loop_matmul(a, b), rtol=0, atol=1e-12)


def test_matmul_rejects_bad_shapes():
    with pytest.raises(ShapeError):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
    with pytest.raises(ShapeError):
        matmul(Tensor(np.zeros(3)), Tensor(np.zeros((3, 2))))


def mpmath_softmax_rows(m):
    """Row softmax at 50 significant digits, cast back to float64."""
    with mpmath.workdps(50):
        out = np.zeros_like(m, dtype=np.float64)
        for i, row in enumerate(m):
            exps = [mpmath.exp(mpmath.mpf(float(v))) for v in row]
            total = mpmath.fsum(exps)
            out[i] = [float(e / total) for e in exps]
    return out


def test_softmax_rows_matches_high_precision_oracle():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = rng.normal(scale=3.0, size=(rng.integers(1, 7), rng.integers(1, 7)))
        got = softmax_rows(Tensor(m)).data
        np.testing.assert_allclose(got, mpmath_softmax_rows(m), rtol=1e-12, atol=0)


def test_softmax_rows_survives_large_inputs():
    got = softmax_rows(Tensor([[1000.0, 1000.0]])).data
    np.testing.assert_allclose(got, [[0.5, 0.5]], rtol=0, atol=0)
    got = softmax_rows(Tensor([[1000.0, 0.0]])).data
    assert np.all(np.isfinite(got))
    np.testing.assert_allclose(got.sum(axis=1), 1.0, rtol=0, atol=1e-15)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 5), st.integers(1, 5),
    st.integers(0, 2 ** 32 - 1),
)
def test_softmax_rows_is_row_stochastic(rows, cols, seed):
    m = np.random.default_rng(seed).normal(scale=5.0, size=(rows, cols))
    s = softmax_rows(Tensor(m)).data
    assert np.all(s > 0) and np.all(s <= 1)
    np.testing.assert_allclose(s.sum(axis=1), 1.0, rtol=0, atol=1e-12)


def test_softmax_requires_two_dims():
    with pytest.raises(ShapeError):
        softmax_rows(Tensor(np.zeros(4)))
    with pytest.raises(ShapeError):
        log_softmax_rows(Tensor(np.zeros((2, 2, 2))))


def test_log_softmax_is_log_of_softmax():
    rng = np.random.default_rng(11)
    m = rng.normal(size=(4, 6))
    np.testing.assert_allclose(
        log_softmax_rows(Tensor(m)).data,
        np.log(softmax_rows(Tensor(m)).data),
        rtol=0, atol=1e-12,
    )


def test_log_softmax_stable_where_plain_log_overflows():
    m = np.array([[800.0, 0.0, -800.0]])
    out = log_softmax_rows(Tensor(m)).data
    assert np.all(np.isfinite(out))
    np.testing.assert_allclose(out[0, 0], 0.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(out[0, 1], -800.0, rtol=1e-12, atol=0)


def test_elementwise_ops_match_numpy():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(3, 4))
    np.testing.assert_array_equal(add(Tensor(a), Tensor(b)).data, a + b)
    np.testing.assert_array_equal(sub(Tensor(a), Tensor(b)).data, a - b)
    np.testing.assert_array_equal(mul(Tensor(a), Tensor(b)).data, a * b)
    np.testing.assert_array_equal(scale(Tensor(a), -2.5).data, a * -2.5)
    np.testing.assert_array_equal(relu(Tensor(a)).data, np.maximum(a, 0))


def test_elementwise_ops_refuse_broadcasting():
    a = Tensor(np.zeros((3, 4)))
    b = Tensor(np.zeros((3, 1)))
    for op in (add, sub, mul):
        with pytest.raises(ShapeError):
            op(a, b)


def test_reshape_and_permute_round_trip():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(2, 3, 4))
    r = reshape(Tensor(x), (4, 6))
    np.testing.assert_array_equal(r.data, x.reshape(4, 6))
    p = permute(Tensor(x), (2, 0, 1))
    np.testing.assert_array_equal(p.data, x.transpose(2, 0, 1))
    back = permute(p, (1, 2, 0))
    np.testing.assert_array_equal(back.data, x)
    with pytest.raises(ShapeError):
        reshape(Tensor(x), (5, 5))
    with pytest.raises(ShapeError):
        permute(Tensor(x), (0, 0, 1))


def test_pad_and_slice_semantics():
    x = np.arange(12.0).reshape(3, 4)
    padded = pad_axis(Tensor(x), 1, 2, 1)
    assert padded.shape == (3, 7)
    np.testing.assert_array_equal(padded.data[:, :2], 0.0)
    np.testing.assert_array_equal(padded.data[:, 2:6], x)
    np.testing.assert_array_equal(padded.data[:, 6], 0.0)

    sliced = slice_axis(Tensor(x), 1, 1, 4, 2)
    np.testing.assert_array_equal(sliced.data, x[:, 1:4:2])
    with pytest.raises(ShapeError):
        pad_axis(Tensor(x), 0, -1, 0)
    with pytest.raises(ShapeError):
        slice_axis(Tensor(x), 0, 0, 3, 0)


def test_sum_ops_match_numpy():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(2, 5, 3))
    assert sum_all(Tensor(x)).item() == pytest.approx(x.sum(), rel=0, abs=1e-12)
    np.testing.assert_allclose(sum_axis(Tensor(x), 1).data, x.sum(axis=1),
                               rtol=0, atol=1e-12)


def test_train_mode_produces_float32_tensors():
    with precision.scoped_mode("train"):
        t = Tensor([[1.0, 2.0]])
        assert t.data.dtype == np.float32
    assert Tensor([[1.0]]).data.dtype == np.float64


def test_finite_check_catches_overflow():
    big = Tensor([[1e308, 1e308]])
    with np.errstate(over="ignore"):
        with pytest.raises(NumericError):
            add(big, big)
