"""Schedule, SGD update rule, evaluation loop, and the trainer itself."""
import json
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import sgd_step_out_of_place
from tegraph import precision
from tegraph.checkpoint import network_from_checkpoint
from tegraph.errors import ConfigError, DataError, NumericError
from tegraph.model import LayerSpec, ModelConfig, Network
from tegraph.tensor import Parameter, Tensor
from tegraph.training import (
    Metrics,
    TrainConfig,
    evaluate,
    lr_at,
    score_streams,
    sgd_step,
    softmax_distribution,
    train,
)


def tiny_network(seed=0, classes=2):
    config = ModelConfig(layers=[LayerSpec(3, 4, 1, "tc", 3)], num_classes=classes,
                         num_joints=3, fixed_length=4, max_bodies=1, heads=1,
                         graph="chain", seed=seed)
    return Network(config)


def tiny_dataset(n=6, classes=2, seed=0):
    rng = np.random.default_rng(seed)
    return [(rng.normal(size=(3, 4, 3, 1)), i % classes) for i in range(n)]


# ---------------------------------------------------------------------------
# Softmax scores


def test_softmax_distribution_matches_direct_formula():
    logits = np.array([1.0, 2.0, 0.5])
    expected = np.exp(logits) / np.exp(logits).sum()
    np.testing.assert_allclose(softmax_distribution(logits), expected, rtol=1e-12)


def test_softmax_distribution_survives_large_logits():
    out = softmax_distribution(np.array([1000.0, 1000.0]))
    np.testing.assert_allclose(out, [0.5, 0.5], rtol=0, atol=0)


# ---------------------------------------------------------------------------
# Config and schedule


def test_train_config_validation():
    with pytest.raises(ConfigError, match="increasing"):
        TrainConfig(decay_epochs=(40, 40))
    with pytest.raises(ConfigError, match="increasing"):
        TrainConfig(decay_epochs=(80, 40))
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=-0.1)
    with pytest.raises(ConfigError):
        TrainConfig(decay_factor=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)
    with pytest.raises(ConfigError, match="momentum"):
        TrainConfig(momentum=1.0)
    with pytest.raises(ConfigError):
        TrainConfig(weight_decay=-1e-4)
    with pytest.raises(ConfigError, match="seed must be nonnegative"):
        TrainConfig(seed=-1)
    assert TrainConfig(learning_rate=-0.0).learning_rate == 0.0


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("field", ["learning_rate", "decay_factor", "weight_decay"])
def test_train_config_rejects_non_finite_rates(field, value):
    with pytest.raises(ConfigError, match=f"{field} must be finite"):
        TrainConfig(**{field: value})


def test_lr_schedule_hits_exact_decimal_values():
    config = TrainConfig(learning_rate=0.1, decay_epochs=(40, 80, 120),
                         decay_factor=0.1)
    # repeated float multiplication would give 0.010000000000000002 etc;
    # the schedule must produce the literal decimal floats
    assert lr_at(config, 0) == 0.1
    assert lr_at(config, 39) == 0.1
    assert lr_at(config, 40) == 0.01
    assert lr_at(config, 41) == 0.01
    assert lr_at(config, 80) == 0.001
    assert lr_at(config, 119) == 0.001
    assert lr_at(config, 120) == 0.0001
    assert lr_at(config, 500) == 0.0001


def test_lr_schedule_without_decays_is_constant():
    config = TrainConfig(learning_rate=0.25, decay_epochs=())
    assert lr_at(config, 0) == 0.25
    assert lr_at(config, 1000) == 0.25


def test_lr_schedule_rejects_negative_epoch():
    with pytest.raises(ConfigError, match="nonnegative"):
        lr_at(TrainConfig(), -1)


def test_metrics_line_is_stable_and_clockless():
    m = Metrics(epoch=3, lr=0.1, train_loss=1.5, train_acc=0.5,
                eval_acc=0.75, wall_clock=123.456)
    record = json.loads(m.json_line())
    assert set(record) == {"epoch", "lr", "train_loss", "train_acc", "eval_acc"}
    assert record["epoch"] == 3 and record["eval_acc"] == 0.75
    assert "wall_clock" not in m.json_line()
    # missing eval set serializes as null, still parseable
    m2 = Metrics(0, 0.1, 2.0, 0.25, None, 1.0)
    assert json.loads(m2.json_line())["eval_acc"] is None


# ---------------------------------------------------------------------------
# SGD


def make_param(value, name="w"):
    p = Parameter(np.array(value, dtype=np.float64), name)
    p.zero_grad()
    return p


def test_sgd_plain_step():
    p = make_param([1.0])
    p.value.grad += 0.5
    state = {}
    sgd_step([p], lr=0.1, weight_decay=0.0, momentum=0.0, state=state)
    assert p.value.data[0] == pytest.approx(0.95, rel=0, abs=0)
    np.testing.assert_array_equal(state["w"], [0.5])


def test_sgd_momentum_accumulates():
    p = make_param([1.0])
    state = {}
    for _ in range(2):
        p.zero_grad()
        p.value.grad += 0.5
        sgd_step([p], lr=0.1, weight_decay=0.0, momentum=0.9, state=state)
    # v1 = 0.5, theta1 = 0.95; v2 = 0.9*0.5 + 0.5 = 0.95, theta2 = 0.855
    assert state["w"][0] == pytest.approx(0.95, rel=1e-12)
    assert p.value.data[0] == pytest.approx(0.855, rel=1e-12)


def test_sgd_weight_decay_shrinks_without_gradient():
    p = make_param([2.0])
    sgd_step([p], lr=0.1, weight_decay=0.01, momentum=0.0, state={})
    assert p.value.data[0] == pytest.approx(1.998, rel=1e-12)


DTYPES = {"train": np.float32, "verify": np.float64}


@pytest.mark.parametrize("mode", sorted(DTYPES))
def test_sgd_updates_in_place_bit_for_bit_as_the_out_of_place_formula(mode):
    rng = np.random.default_rng(8)
    with precision.scoped_mode(mode):
        params = [Parameter(rng.normal(size=shape), f"p{n}")
                  for n, shape in enumerate([(4, 3), (5,), (2, 3, 3)])]
    values = [p.value.data for p in params]
    want = {p.identifier: (p.value.data.copy(), None) for p in params}
    state = {}
    for step in range(3):
        for p in params:
            p.zero_grad()
            p.value.grad += rng.normal(size=p.shape).astype(p.grad.dtype)
            theta, v = want[p.identifier]
            want[p.identifier] = sgd_step_out_of_place(theta, p.grad, v, lr=0.1,
                                                       weight_decay=5e-4, momentum=0.9)
        sgd_step(params, lr=0.1, weight_decay=5e-4, momentum=0.9, state=state)
        if step == 0:
            buffers = [state[p.identifier] for p in params]
        for p, value, buffer in zip(params, values, buffers):
            theta, v = want[p.identifier]
            assert p.value.data is value and state[p.identifier] is buffer
            assert p.value.data.dtype == theta.dtype == DTYPES[mode]
            assert np.array_equal(p.value.data, theta) and np.array_equal(buffer, v)


def test_zero_grad_zeroes_the_gradient_in_place():
    p = make_param([1.0, -2.0])
    grad = p.grad
    p.value.grad += 3.0
    p.zero_grad()
    assert p.grad is grad and not p.grad.any()
    p.value.grad = None
    p.zero_grad()
    assert np.array_equal(p.grad, [0.0, 0.0])


def test_sgd_rejects_non_finite_gradient():
    p = make_param([1.0], name="layer1.sg.w0")
    p.value.grad += np.nan
    with pytest.raises(NumericError, match="layer1.sg.w0"):
        sgd_step([p], lr=0.1, weight_decay=0.0, momentum=0.0, state={})


# ---------------------------------------------------------------------------
# Evaluation (duck-typed stand-in network)


class FakeNet:
    """Looks up canned logits by sample key; thread-safe and stateless."""

    def __init__(self, table, classes=3):
        self.table = table
        self.config = SimpleNamespace(num_classes=classes, max_bodies=1)
        self.training = True

    def shape_table(self):
        return [("layer1", (4, 8, 3))]  # small enough to evaluate on the calling thread

    def set_training(self, training):
        self.training = training

    def forward_sample(self, key):
        return Tensor(np.array([self.table[key]], dtype=np.float64))


def test_evaluate_accuracy_and_predictions():
    net = FakeNet({
        0: [0.1, 0.9, 0.0],
        1: [2.0, -1.0, 0.0],
        2: [0.0, 0.0, 3.0],
        3: [5.0, 0.0, 0.0],
    })
    dataset = [(0, 1), (1, 0), (2, 2), (3, 2)]
    result = evaluate(net, dataset)
    assert result.predictions == [1, 0, 2, 0]
    assert result.accuracy == pytest.approx(0.75)
    assert net.training is False


def test_evaluate_breaks_ties_toward_lowest_class():
    net = FakeNet({0: [1.0, 1.0, 0.5]})
    assert evaluate(net, [(0, 0)]).predictions == [0]


def test_evaluate_rejects_empty_set():
    with pytest.raises(DataError, match="empty"):
        evaluate(FakeNet({}), [])


def test_evaluate_rejects_non_finite_logits():
    net = FakeNet({0: [np.nan, 0.0, 0.0]})
    with pytest.raises(NumericError, match="logits"):
        evaluate(net, [(0, 0)])


def test_evaluation_rejects_labels_outside_the_model():
    net = FakeNet({0: [1.0, 0.0, 0.0], 1: [0.0, 1.0, 0.0]})
    for run in (evaluate, score_streams):
        with pytest.raises(ConfigError, match=r"label 3 of sample eval\[1\] outside the "
                                              "model's 3 classes"):
            run(net, [(0, 0), (1, 3)])


def test_score_streams_are_softmax_rows():
    table = {0: [1.0, 2.0, 0.5], 1: [0.0, 0.0, 0.0]}
    net = FakeNet(table)
    rows = score_streams(net, [(0, 0), (1, 1)])
    np.testing.assert_allclose(rows[0], softmax_distribution(np.array(table[0])),
                               rtol=1e-12)
    np.testing.assert_allclose(rows[1], [1 / 3] * 3, rtol=1e-12)


# ---------------------------------------------------------------------------
# The trainer


def test_train_writes_metrics_and_checkpoints(tmp_path):
    net = tiny_network()
    data = tiny_dataset()
    config = TrainConfig(learning_rate=0.05, decay_epochs=(2,), decay_factor=0.1,
                         weight_decay=0.0, batch_size=2, total_epochs=3, seed=1)
    before = [p.value.data.copy() for p in net.parameters()]
    metrics_path = tmp_path / "metrics.jsonl"
    checkpoint_path = tmp_path / "checkpoint.tegc"
    best_path = tmp_path / "best.tegc"
    history = train(net, data, data, config, metrics_path=metrics_path,
                    checkpoint_path=checkpoint_path, best_path=best_path)
    assert [m.epoch for m in history] == [0, 1, 2]
    assert [m.lr for m in history] == [0.05, 0.05, 0.005]
    lines = metrics_path.read_text().splitlines()
    assert len(lines) == 3
    for line, m in zip(lines, history):
        assert line == m.json_line()
        assert json.loads(line)["eval_acc"] is not None
    assert checkpoint_path.exists() and best_path.exists()
    after = [p.value.data for p in net.parameters()]
    assert any(not np.array_equal(a, b) for a, b in zip(before, after))


def test_train_with_zero_learning_rate_keeps_parameters():
    net = tiny_network()
    data = tiny_dataset(4)
    before = [p.value.data.copy() for p in net.parameters()]
    config = TrainConfig(learning_rate=0.0, decay_epochs=(), weight_decay=0.0,
                         batch_size=2, total_epochs=2, seed=0)
    train(net, data, [], config)
    for b, p in zip(before, net.parameters()):
        np.testing.assert_array_equal(b, p.value.data)


def test_train_is_deterministic_per_seed():
    runs = []
    for _ in range(2):
        net = tiny_network(seed=3)
        history = train(net, tiny_dataset(), tiny_dataset(4, seed=9),
                        TrainConfig(learning_rate=0.05, decay_epochs=(),
                                    batch_size=2, total_epochs=2, seed=7))
        runs.append(([m.json_line() for m in history],
                     [p.value.data.copy() for p in net.parameters()]))
    assert runs[0][0] == runs[1][0]
    for a, b in zip(runs[0][1], runs[1][1]):
        np.testing.assert_array_equal(a, b)


def test_train_validates_inputs():
    net = tiny_network()
    with pytest.raises(DataError, match="empty"):
        train(net, [], [], TrainConfig(total_epochs=1))
    bad = [(np.zeros((3, 4, 3, 1)), 5)]
    with pytest.raises(ConfigError, match="label 5"):
        train(net, bad, [], TrainConfig(total_epochs=1))
    with pytest.raises(ConfigError, match=r"sample train\[0\] has shape \(3, 5, 3, 1\)"):
        train(net, [(np.zeros((3, 5, 3, 1)), 0)], [], TrainConfig(total_epochs=1))
    misshapen = [(np.zeros((3, 4, 3, 2)), 0, "clip7")]
    with pytest.raises(ConfigError, match=r"sample clip7 has shape \(3, 4, 3, 2\), "
                                          r"the model takes \(3, 4, 3, 1\)"):
        train(net, tiny_dataset(), misshapen, TrainConfig(total_epochs=1))


def test_train_reports_divergence(tmp_path):
    net = tiny_network()
    data = tiny_dataset(4)
    config = TrainConfig(learning_rate=1e12, decay_epochs=(), weight_decay=0.0,
                         batch_size=1, total_epochs=3, seed=0)
    with pytest.raises(NumericError, match="training aborted at epoch"):
        with np.errstate(over="ignore"):
            train(net, data, [], config, checkpoint_path=tmp_path / "ck.tegc")


def test_divergence_in_epoch_0_names_no_checkpoint(tmp_path):
    data = tiny_dataset(4)
    data[1] = (np.full((3, 4, 3, 1), np.nan), 1)
    config = TrainConfig(decay_epochs=(), batch_size=2, total_epochs=2, seed=0)
    with pytest.raises(NumericError, match="aborted at epoch 0: batchnorm") as caught:
        train(tiny_network(), data, [], config, checkpoint_path=tmp_path / "ck.tegc")
    assert "checkpoint" not in str(caught.value)
    assert not (tmp_path / "ck.tegc").exists()


def test_divergence_after_epoch_0_names_the_last_good_checkpoint(tmp_path):
    path = tmp_path / "ck.tegc"
    config = TrainConfig(learning_rate=0.05, decay_epochs=(1,), decay_factor=1e30,
                         weight_decay=0.0, batch_size=2, total_epochs=3, seed=0)
    with pytest.raises(NumericError, match="aborted at epoch 2: ") as caught:
        with np.errstate(over="ignore", invalid="ignore"):
            train(tiny_network(), tiny_dataset(), [], config, checkpoint_path=path)
    assert str(caught.value).endswith(f"; last good checkpoint: {path}")
    network, manifest, _ = network_from_checkpoint(path)
    assert manifest["epoch"] == 1
    assert all(np.isfinite(p.value.data).all() for p in network.parameters())
