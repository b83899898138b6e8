"""Pooled evaluation: samples spread over worker threads, one BLAS thread each.

`predict_logits` (behind `evaluate` and `score_streams`) must give exactly
the logits of the one-at-a-time path, in input order, leave OpenBLAS's
thread count as it found it, raise the first failing sample's error, and
keep small models on the calling thread.
"""
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from tegraph import precision, training
from tegraph.errors import NumericError
from tegraph.model import LayerSpec, ModelConfig, Network, backbone_config
from tegraph.tensor import Tensor
from tegraph.training import (
    POOL_MIN_ELEMENTS,
    blas_threads,
    eval_workers,
    evaluate,
    predict_logits,
    score_streams,
    softmax_distribution,
)

needs_openblas = pytest.mark.skipif(training._openblas() is None,
                                    reason="no OpenBLAS thread control found")


def set_blas_threads(n):
    training._openblas()[1](n)


@pytest.fixture
def two_blas_threads():
    """OpenBLAS on two threads for the test, so the pool has two workers."""
    before = blas_threads()
    set_blas_threads(2)
    yield
    set_blas_threads(before)


def perturbed(config, seed=7):
    """A network whose every parameter is off its init, so no stage outputs zeros."""
    net = Network(config)
    rng = np.random.default_rng(seed)
    for p in net.parameters():
        p.value.data = p.value.data + np.asarray(
            0.05 * rng.standard_normal(p.value.data.shape), dtype=p.value.data.dtype)
    return net


def samples_for(config, n, seed=11):
    rng = np.random.default_rng(seed)
    shape = (3, config.fixed_length, config.num_joints, config.max_bodies)
    return [rng.standard_normal(shape) for _ in range(n)]


def serial_logits(net, samples):
    net.set_training(False)
    return [training._predict(net, x) for x in samples]


def threads_used(net, samples):
    """Thread idents that ran `forward_sample` during one `predict_logits` call."""
    seen = set()
    original = net.forward_sample

    def forward_sample(x, collector=None):
        seen.add(threading.get_ident())
        return original(x, collector)

    net.forward_sample = forward_sample
    try:
        predict_logits(net, samples)
    finally:
        del net.forward_sample
    return seen


CAPTURE = [
    pytest.param(dict(max_bodies=1), id="backbone-M1"),
    pytest.param(dict(max_bodies=2), id="backbone-M2"),
    pytest.param(dict(max_bodies=1, replace_all=True), id="replace_all-M1"),
    pytest.param(dict(max_bodies=2, replace_all=True), id="replace_all-M2"),
]


@needs_openblas
@pytest.mark.parametrize("options", CAPTURE)
def test_pooled_float32_equals_the_serial_path(two_blas_threads, options):
    precision.set_mode("train")
    config = backbone_config(5, fixed_length=300, seed=3, **options)
    net = perturbed(config)
    samples = samples_for(config, 2)
    assert eval_workers(net) == 2
    expected = serial_logits(net, samples)
    assert not np.array_equal(*expected), "samples must be told apart"
    scores = score_streams(net, [(x, 0) for x in samples])
    assert all(np.array_equal(s, softmax_distribution(e)) for s, e in zip(scores, expected))
    if config.max_bodies == 1:  # predictions are argmaxes of the same logits
        labels = [int(np.argmax(row)) for row in expected]
        result = evaluate(net, [(x, label) for x, label in zip(samples, labels)])
        assert result.predictions == labels and result.accuracy == 1.0
    assert blas_threads() == 2


@needs_openblas
def test_pooled_float64_equals_serial_under_one_blas_thread(two_blas_threads):
    config = backbone_config(5, fixed_length=300, max_bodies=1, replace_all=True, seed=3)
    net = perturbed(config)
    samples = samples_for(config, 2)
    set_blas_threads(1)
    expected = serial_logits(net, samples)
    set_blas_threads(2)
    pooled = predict_logits(net, samples)
    assert all(np.array_equal(p, e) for p, e in zip(pooled, expected))


@needs_openblas
def test_large_models_run_on_worker_threads(two_blas_threads):
    config = backbone_config(3, fixed_length=16, max_bodies=2, seed=0)
    net = Network(config)
    assert eval_workers(net) == 2
    assert threading.get_ident() not in threads_used(net, samples_for(config, 4))


@needs_openblas
def test_more_workers_than_cores_under_fast_switching():
    # Workers share the network; they must only read it.  Four workers on a
    # switch interval of a microsecond interleave them as finely as they go.
    config = backbone_config(3, fixed_length=16, max_bodies=2, seed=0)
    net = perturbed(config)
    samples = samples_for(config, 12)
    before, interval = blas_threads(), sys.getswitchinterval()
    set_blas_threads(1)
    expected = serial_logits(net, samples)
    set_blas_threads(4)
    sys.setswitchinterval(1e-6)
    try:
        assert eval_workers(net) == 4
        pooled = predict_logits(net, samples)
    finally:
        sys.setswitchinterval(interval)
        set_blas_threads(before)
    assert all(np.array_equal(p, e) for p, e in zip(pooled, expected))


@needs_openblas
def test_criterion_5_sized_model_runs_on_one_worker(two_blas_threads):
    config = ModelConfig(layers=[LayerSpec(3, 12, 1, "tc", 3), LayerSpec(12, 12, 1, "tgraph", 3)],
                         num_classes=2, num_joints=5, fixed_length=32, max_bodies=1, heads=2,
                         relevance="feature-learned", graph="chain", seed=0)
    net = Network(config)
    assert 12 * 32 * 5 < POOL_MIN_ELEMENTS
    assert eval_workers(net) == 1
    assert threads_used(net, samples_for(config, 4)) == {threading.get_ident()}


class FailingNet:
    """Passes the size gate; sample keys in `failing` raise, the earliest one last."""

    def __init__(self, failing):
        self.failing = failing
        self.config = SimpleNamespace(num_classes=3, max_bodies=1)
        self.training = True
        self.blas_seen = []
        self.lock = threading.Lock()

    def shape_table(self):
        return [("layer1", (64, 300, 25))]

    def set_training(self, training):
        self.training = training

    def forward_sample(self, key):
        with self.lock:
            self.blas_seen.append(blas_threads())
        if key in self.failing:
            if key == min(self.failing):
                # Fail after the later sample has already failed.
                threading.Event().wait(0.2)
            raise NumericError(f"sample {key} failed")
        return Tensor(np.array([[0.0, float(key), 2.5]]))


@needs_openblas
def test_blas_threads_are_pinned_during_and_restored_after(two_blas_threads):
    net = FailingNet(failing=())
    result = evaluate(net, [(k, 1) for k in range(5)])
    assert result.predictions == [2, 2, 2, 1, 1]
    assert net.blas_seen == [1] * 5
    assert blas_threads() == 2


@needs_openblas
def test_first_failing_sample_in_input_order_raises_and_threads_are_restored(
        two_blas_threads):
    net = FailingNet(failing=(1, 3))
    with pytest.raises(NumericError, match="sample 1 failed"):
        evaluate(net, [(k, 0) for k in range(5)])
    assert blas_threads() == 2
    with pytest.raises(NumericError, match="sample 1 failed"):
        score_streams(net, [(k, 0) for k in range(5)])
    assert blas_threads() == 2


@needs_openblas
def test_one_blas_thread_means_serial():
    before = blas_threads()
    set_blas_threads(1)
    try:
        net = FailingNet(failing=())
        assert eval_workers(net) == 1
        evaluate(net, [(k, 0) for k in range(3)])
        assert blas_threads() == 1
    finally:
        set_blas_threads(before)
