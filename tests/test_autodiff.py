"""Tape mechanics and finite-difference verification of each backward rule."""
import weakref

import numpy as np
import pytest

from tegraph import precision
from tegraph.errors import NumericError
from tegraph.gradcheck import check_all_ops, grad_check
from tegraph.tensor import (
    OP_NAMES,
    Parameter,
    Tape,
    Tensor,
    _record,
    active_tape,
    add,
    matmul,
    mul,
    relu,
    scale,
    sum_all,
)


def test_no_tape_means_no_gradient():
    x = Tensor([[1.0, 2.0]])
    y = mul(x, x)
    assert active_tape() is None
    assert y.grad is None and x.grad is None


def test_square_sum_gradient_is_2x():
    x = Tensor(np.array([[1.0, -2.0, 3.0]]))
    with Tape() as tape:
        loss = sum_all(mul(x, x))
        tape.backward(loss)
    np.testing.assert_allclose(x.grad, 2.0 * x.data, rtol=0, atol=1e-12)


def test_tensor_used_twice_accumulates_both_paths():
    # d/dx (x*x + x) = 2x + 1, with x feeding two separate ops
    x = Tensor(np.array([3.0, -0.5]))
    with Tape() as tape:
        loss = sum_all(add(mul(x, x), x))
        tape.backward(loss)
    np.testing.assert_allclose(x.grad, 2.0 * x.data + 1.0, rtol=0, atol=1e-12)


def test_backward_seed_scales_gradient():
    x = Tensor(np.array([2.0, 5.0]))
    with Tape() as tape:
        out = scale(x, 3.0)
        tape.backward(out, seed=np.array([10.0, 1.0]))
    np.testing.assert_array_equal(x.grad, [30.0, 3.0])


def test_diamond_graph_sums_gradient_contributions():
    # z = a*x and w = x*b share x; loss = sum(z) + sum(w)
    x = Tensor(np.array([1.0, 2.0]))
    a = Tensor(np.array([3.0, 4.0]))
    b = Tensor(np.array([5.0, 6.0]))
    with Tape() as tape:
        loss = add(mul(a, x), mul(x, b))
        tape.backward(sum_all(loss))
    np.testing.assert_array_equal(x.grad, a.data + b.data)


def test_tape_nesting_restores_outer_tape():
    with Tape() as outer:
        mul(Tensor([1.0]), Tensor([2.0]))
        with Tape() as inner:
            assert active_tape() is inner
            mul(Tensor([3.0]), Tensor([4.0]))
        assert active_tape() is outer
        assert len(inner) == 1
    assert len(outer) == 1
    assert active_tape() is None


def test_tape_is_consumed_by_backward():
    x = Tensor(np.array([1.0, -2.0]))
    with Tape() as tape:
        loss = sum_all(mul(x, x))
    assert len(tape) == 2
    tape.backward(loss)
    assert len(tape) == 0
    np.testing.assert_array_equal(x.grad, 2.0 * x.data)
    with pytest.raises(RuntimeError, match="already replayed"):
        tape.backward(loss)
    np.testing.assert_array_equal(x.grad, 2.0 * x.data)


def test_consumed_tape_refuses_new_records():
    x = Tensor(np.array([3.0]))
    with Tape() as tape:
        tape.backward(sum_all(x))
        with pytest.raises(RuntimeError, match="replayed"):
            mul(x, x)


def test_record_replays_the_rule_with_its_outputs_gradient():
    seen = []

    def op(x):
        out = Tensor(x.data + 1.0)

        def rule(g):
            seen.append(g)

        assert _record(out, rule) is out
        return out

    assert op(Tensor([1.0])).data[0] == 2.0  # no tape, nothing recorded
    with Tape() as tape:
        out = op(Tensor([1.0]))
        op(Tensor([2.0]))  # no gradient reaches this output: its rule is skipped
    assert [record.__qualname__ for record in tape._records] == [
        op.__qualname__ + ".<locals>.rule"] * 2
    tape.backward(out, seed=np.array([5.0]))
    assert len(seen) == 1 and seen[0] is out.grad and seen[0][0] == 5.0


def test_backward_frees_intermediate_gradients():
    # Once the forward returns, only the tape's rules reference the hidden
    # product; replay must release it together with its gradient buffer.
    x = Tensor(np.array([[1.0, 2.0]]))
    with Tape() as tape:
        hidden = mul(x, x)
        loss = sum_all(hidden)
    buffers = [weakref.ref(hidden.data)]
    tape.backward(loss)
    buffers.append(weakref.ref(hidden.grad))
    del hidden
    assert [ref() for ref in buffers] == [None, None]


def test_parameter_gradient_accumulates_across_passes():
    p = Parameter(np.array([[1.0, 2.0]]), "acc.w")
    assert p.grad.shape == p.shape
    np.testing.assert_array_equal(p.grad, 0.0)
    for _ in range(3):
        with Tape() as tape:
            tape.backward(sum_all(mul(p.value, p.value)))
    np.testing.assert_allclose(p.grad, 3 * 2.0 * p.value.data, rtol=0, atol=1e-12)
    p.zero_grad()
    np.testing.assert_array_equal(p.grad, 0.0)
    assert p.grad.shape == p.shape


def test_matmul_shared_operand():
    # loss = sum(x @ x) for square x; d loss / dx = ones @ x^T + x^T @ ones
    rng = np.random.default_rng(2)
    x = Tensor(rng.normal(size=(3, 3)))
    with Tape() as tape:
        tape.backward(sum_all(matmul(x, x)))
    ones = np.ones((3, 3))
    np.testing.assert_allclose(x.grad, ones @ x.data.T + x.data.T @ ones,
                               rtol=0, atol=1e-12)


def test_gradients_are_deterministic():
    rng = np.random.default_rng(4)
    data = rng.normal(size=(4, 4))
    grads = []
    for _ in range(2):
        x = Tensor(data.copy())
        with Tape() as tape:
            tape.backward(sum_all(relu(matmul(x, x))))
        grads.append(x.grad.copy())
    np.testing.assert_array_equal(grads[0], grads[1])


# ---------------------------------------------------------------------------
# Finite differences


def test_every_registered_op_passes_gradient_check():
    # individual backward rules are simple enough to hold a tighter bar
    # than the end-to-end suite
    failures = []
    names = []
    for name, result in check_all_ops(seed=0, tol=1e-6):
        names.append(name)
        if not result.ok:
            failures.append((name, result.max_rel_error))
    assert sorted(names) == sorted(OP_NAMES)
    assert not failures, f"ops with bad gradients: {failures}"


def test_grad_check_flags_a_missing_gradient():
    # f recomputes from raw data each call, so nothing connects x to the tape
    # and the analytic gradient is zero while the numeric one is 2x.
    x = Tensor(np.array([2.0]))

    def f():
        return sum_all(mul(Tensor(x.data), Tensor(x.data)))

    result = grad_check(f, [("x", x)])
    assert not result.ok
    assert result.failures[0][0] == "x"


def test_grad_check_demands_verify_precision():
    x = Tensor(np.array([1.0]))
    with precision.scoped_mode("train"):
        with pytest.raises(NumericError):
            grad_check(lambda: sum_all(x), [x])


def test_grad_check_demands_scalar_output():
    x = Tensor(np.array([1.0, 2.0]))
    with pytest.raises(NumericError):
        grad_check(lambda: mul(x, x), [x])


def test_grad_check_rejects_stochastic_forward():
    x = Tensor(np.array([1.0]))
    state = {"calls": 0}

    def f():
        state["calls"] += 1
        return sum_all(scale(x, float(state["calls"])))

    with pytest.raises(NumericError):
        grad_check(f, [x])


def test_grad_check_element_sampling_bounds_work():
    x = Tensor(np.random.default_rng(8).normal(size=(10, 10)))

    def f():
        return sum_all(mul(x, x))

    result = grad_check(f, [x], max_elements=7)
    assert result.ok
    assert result.elements_checked == 7
