"""SGD training loop, step-decay schedule, and evaluation.

Determinism contract: with a fixed seed every run is bit-reproducible —
the shuffle stream is seeded, batch gradients are an ordered sum divided by
the batch size, and the decayed learning rates are computed in decimal so
0.1 decayed twice is the literal float 0.001 rather than an accumulated
product of rounding errors.  Wall-clock time is kept out of the metrics
file (it goes to the log instead) so identical runs produce identical
bytes.  No Python threads are started; evaluation forwards one sample at
a time, in input order.

Memory: each training sample records its own Tape and replays it before
the next sample starts.  During the forward pass the tape retains only
what the backward rules read (see tensor.py), so a step's peak is one
sample's retained arrays on top of the parameters, their gradients and
the momentum buffers.  The next step reuses the memory the last one freed
only if the allocator keeps it: `tegraph.cli.main` raises glibc's trim and
mmap thresholds for that, which saves about 70k minor page faults per
capture-scale step and costs no peak RSS, since resident memory stays at
the high-water mark the step reaches anyway.
"""
from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path

import numpy as np

from .checkpoint import save_checkpoint
from .errors import ConfigError, DataError, NumericError
from .model import Network
from .tensor import Tape

log = logging.getLogger("tegraph.train")


def softmax_distribution(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max()
    e = np.exp(shifted)
    return e / e.sum()


@dataclass
class TrainConfig:
    learning_rate: float = 0.1
    decay_epochs: tuple[int, ...] = (40, 80, 120)
    decay_factor: float = 0.1
    weight_decay: float = 0.0005
    batch_size: int = 64
    total_epochs: int = 150
    seed: int = 0
    momentum: float = 0.9

    def __post_init__(self):
        self.decay_epochs = tuple(int(e) for e in self.decay_epochs)
        for name in ("learning_rate", "decay_factor", "weight_decay"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if list(self.decay_epochs) != sorted(set(self.decay_epochs)):
            raise ConfigError(f"decay epochs must be strictly increasing: {self.decay_epochs}")
        if self.learning_rate <= 0 and self.learning_rate != 0.0:
            raise ConfigError("learning rate must be nonnegative")
        if self.decay_factor <= 0:
            raise ConfigError("decay factor must be positive")
        if self.batch_size < 1 or self.total_epochs < 0:
            raise ConfigError("batch size and epoch count must be positive")
        if not 0 <= self.momentum < 1:
            raise ConfigError(f"momentum {self.momentum} outside [0, 1)")
        if self.weight_decay < 0:
            raise ConfigError("weight decay must be nonnegative")


@dataclass
class Metrics:
    epoch: int
    lr: float
    train_loss: float
    train_acc: float
    eval_acc: float | None
    wall_clock: float

    def json_line(self) -> str:
        # wall_clock deliberately omitted: metrics files must be byte-stable
        # across identical runs.
        return json.dumps(
            {"epoch": self.epoch, "lr": self.lr, "train_loss": self.train_loss,
             "train_acc": self.train_acc, "eval_acc": self.eval_acc},
            sort_keys=True,
        )


def lr_at(config: TrainConfig, epoch: int) -> float:
    """Base rate decayed once per decay epoch that has been reached."""
    if epoch < 0:
        raise ConfigError(f"epoch must be nonnegative, got {epoch}")
    drops = sum(1 for d in config.decay_epochs if d <= epoch)
    exact = Decimal(str(config.learning_rate)) * Decimal(str(config.decay_factor)) ** drops
    return float(exact)


def sgd_step(params, lr: float, weight_decay: float, momentum: float,
             state: dict[str, np.ndarray]) -> None:
    """v <- mu v + g + lambda theta;  theta <- theta - lr v."""
    for p in params:
        g = p.grad
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient in parameter {p.identifier}")
        v = state.get(p.identifier)
        if v is None:
            v = np.zeros_like(p.value.data)
        v = momentum * v + g + weight_decay * p.value.data
        state[p.identifier] = v
        p.value.data = p.value.data - lr * v


@dataclass
class EvalResult:
    accuracy: float
    predictions: list[int]


def _predict(network: Network, data) -> np.ndarray:
    logits = network.forward_sample(data).data[0]
    if not np.all(np.isfinite(logits)):
        raise NumericError("non-finite logits during evaluation")
    return logits


def evaluate(network: Network, dataset) -> EvalResult:
    """Top-1 accuracy; argmax ties resolve to the lowest class index."""
    if not dataset:
        raise DataError("evaluation set is empty")
    network.set_training(False)
    predictions = [int(np.argmax(_predict(network, item[0]))) for item in dataset]
    correct = sum(1 for p, item in zip(predictions, dataset) if p == item[1])
    return EvalResult(correct / len(dataset), predictions)


def score_streams(network: Network, dataset) -> list[np.ndarray]:
    """Per-sample softmax class distributions, for score fusion."""
    if not dataset:
        raise DataError("dataset is empty")
    network.set_training(False)
    return [softmax_distribution(_predict(network, item[0])) for item in dataset]


def train(network: Network, train_set, eval_set, config: TrainConfig,
          metrics_path=None, checkpoint_path=None, best_path=None) -> list[Metrics]:
    """Run the full schedule; returns per-epoch metrics.

    `checkpoint_path` is rewritten after every completed epoch, so on a
    divergence abort it holds the last good state.  `best_path` tracks the
    highest eval accuracy seen so far (first winner kept on ties).
    """
    if not train_set:
        raise DataError("training set is empty")
    for data, label, *_ in train_set:
        if not 0 <= label < network.config.num_classes:
            raise ConfigError(
                f"label {label} outside the model's {network.config.num_classes} classes"
            )
    rng = np.random.default_rng(config.seed)
    params = network.parameters()
    momentum_state: dict[str, np.ndarray] = {}
    history: list[Metrics] = []
    best_acc = None
    metrics_file = open(metrics_path, "w") if metrics_path is not None else None
    try:
        for epoch in range(config.total_epochs):
            started = time.perf_counter()
            lr = lr_at(config, epoch)
            network.set_training(True)
            order = rng.permutation(len(train_set))
            total_loss = 0.0
            correct = 0
            try:
                for start in range(0, len(order), config.batch_size):
                    batch = order[start:start + config.batch_size]
                    network.zero_grad()
                    for idx in batch:
                        data, label = train_set[idx][0], train_set[idx][1]
                        with Tape() as tape:
                            logits = network.forward_sample(data)
                            loss = network.loss(logits, label)
                            tape.backward(loss)
                        value = loss.item()
                        if not np.isfinite(value):
                            raise NumericError(f"loss diverged at epoch {epoch}")
                        total_loss += value
                        if int(np.argmax(logits.data[0])) == label:
                            correct += 1
                    inv = 1.0 / len(batch)
                    for p in params:
                        p.value.grad *= inv
                    sgd_step(params, lr, config.weight_decay, config.momentum,
                             momentum_state)
            except NumericError as exc:
                where = (f"; last good checkpoint: {checkpoint_path}"
                         if checkpoint_path else "")
                raise NumericError(f"training aborted at epoch {epoch}: {exc}{where}")
            train_loss = total_loss / len(order)
            train_acc = correct / len(order)
            eval_acc = None
            if eval_set:
                eval_acc = evaluate(network, eval_set).accuracy
            metrics = Metrics(epoch, lr, train_loss, train_acc, eval_acc,
                              time.perf_counter() - started)
            history.append(metrics)
            if metrics_file is not None:
                metrics_file.write(metrics.json_line() + "\n")
                metrics_file.flush()
            log.info("epoch %d lr %g loss %.4f train %.3f eval %s (%.2fs)",
                     epoch, lr, train_loss, train_acc,
                     "-" if eval_acc is None else f"{eval_acc:.3f}",
                     metrics.wall_clock)
            if checkpoint_path is not None:
                save_checkpoint(checkpoint_path, network, epoch, momentum_state)
            if best_path is not None and eval_acc is not None and (
                    best_acc is None or eval_acc > best_acc):
                best_acc = eval_acc
                save_checkpoint(best_path, network, epoch, momentum_state,
                                extra={"best_eval_acc": eval_acc})
    finally:
        if metrics_file is not None:
            metrics_file.close()
    return history
