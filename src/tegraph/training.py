"""SGD training loop, step-decay schedule, and evaluation.

Determinism contract: with a fixed seed every run is bit-reproducible —
the shuffle stream is seeded, batch gradients are an ordered sum divided by
the batch size, and the decayed learning rates are computed in decimal so
0.1 decayed twice is the literal float 0.001 rather than an accumulated
product of rounding errors.  Wall-clock time is kept out of the metrics
file (it goes to the log instead) so identical runs produce identical
bytes.

Evaluation (`predict_logits`, behind `evaluate` and `score_streams`)
forwards samples on as many worker threads as OpenBLAS has threads, with
BLAS pinned to one thread for the length of the call: on a 2-CPU host a
second BLAS thread buys only 1.2-1.5x on an eval forward, while two
single-threaded forwards also run numpy's elementwise work on both cores.
Results come back in input order.  Training stays on the calling thread,
and so does evaluation of a network whose widest feature map is small
(below `POOL_MIN_ELEMENTS`), where the interpreter carries the time.
Float32 logits come out as a serial forward gives them; float64 ones as a
serial forward under one BLAS thread gives them, since OpenBLAS's
multi-threaded dgemm rounds some products differently in the last bits.

Memory: each training sample records its own Tape and replays it before
the next sample starts.  During the forward pass the tape retains only
what the backward rules read (see tensor.py), so a step's peak is one
sample's retained arrays on top of the parameters, their gradients and
the momentum buffers, which are all updated in place (only the first step
allocates the momentum buffers).  A tc layer keeps no conv output and no
xhat: its one record rebuilds them in backward.  The next step reuses the
memory the last one freed only if the allocator keeps it:
`tegraph.cli.main` raises glibc's trim and mmap thresholds for that, which
saves about 70k minor page faults per capture-scale step and costs no peak
RSS, since resident memory stays at the high-water mark the step reaches
anyway.
"""
from __future__ import annotations

import ctypes
import functools
import json
import logging
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from decimal import Decimal

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
        if self.learning_rate < 0:
            raise ConfigError("learning rate must be nonnegative")
        if self.decay_factor <= 0:
            raise ConfigError("decay factor must be positive")
        if self.batch_size < 1 or self.total_epochs < 0:
            raise ConfigError("batch size and epoch count must be positive")
        if not 0 <= self.momentum < 1:
            raise ConfigError(f"momentum {self.momentum} outside [0, 1)")
        if self.weight_decay < 0:
            raise ConfigError("weight decay must be nonnegative")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")


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
    """v <- mu v + g + lambda theta;  theta <- theta - lr v, in place (step 1 allocates v)."""
    for p in params:
        g = p.grad
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient in parameter {p.identifier}")
        theta = p.value.data
        v = state.get(p.identifier)
        if v is None:
            v = state[p.identifier] = np.zeros_like(theta)
        v *= momentum
        v += g
        v += weight_decay * theta
        theta -= lr * v


@dataclass
class EvalResult:
    accuracy: float
    predictions: list[int]


def _predict(network: Network, data) -> np.ndarray:
    logits = network.forward_sample(data).data[0]
    if not np.all(np.isfinite(logits)):
        raise NumericError("non-finite logits during evaluation")
    return logits


# Below this many elements in a sample's widest feature map (all bodies) the
# interpreter, not numpy, carries an eval forward, and a second worker only
# adds contention: the criterion-5 model (1,920) runs 1.58x slower per
# sample pooled, a T=16 backbone (51,200) 0.91x, a T=300 one 0.73x.
POOL_MIN_ELEMENTS = 1 << 15

# (get, set) thread-count symbols, in the order they are looked up.
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _openblas():
    """(get, set) thread-count functions of the loaded OpenBLAS, or None."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_SYMBOLS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = (), ctypes.c_int
                set_.argtypes, set_.restype = (ctypes.c_int,), None
                return get, set_
    return None


def blas_threads() -> int | None:
    """OpenBLAS's current thread count; None where no OpenBLAS is found."""
    blas = _openblas()
    return None if blas is None else blas[0]()


def eval_workers(network) -> int:
    """How many threads `predict_logits` spreads this network's samples over.

    OpenBLAS's own thread count, so OPENBLAS_NUM_THREADS=1 means serial.
    One where OpenBLAS is not found and for a network whose widest feature
    map is below POOL_MIN_ELEMENTS.
    """
    widest = network.config.max_bodies * max(
        math.prod(shape) for _, shape in network.shape_table())
    if widest < POOL_MIN_ELEMENTS:
        return 1
    return blas_threads() or 1


def predict_logits(network: Network, samples: list) -> list[np.ndarray]:
    """Eval-mode logits of each sample, in input order.

    With more than one worker (`eval_workers`), OpenBLAS is pinned to one
    thread for the length of the call and its old count restored after,
    also on error.  Workers record no tape (the tape stack is
    thread-local) and only read the network.  The first failing sample in
    input order raises; the pool ends with the call.
    """
    network.set_training(False)
    workers = min(eval_workers(network), len(samples))
    if workers <= 1:
        return [_predict(network, x) for x in samples]
    get_threads, set_threads = _openblas()
    previous = get_threads()
    set_threads(1)
    try:
        with ThreadPoolExecutor(workers) as pool:
            return list(pool.map(functools.partial(_predict, network), samples))
    finally:
        set_threads(previous)


def evaluate(network: Network, dataset) -> EvalResult:
    """Top-1 accuracy; argmax ties resolve to the lowest class index."""
    if not dataset:
        raise DataError("evaluation set is empty")
    _check_labels(network, dataset, "eval")
    logits = predict_logits(network, [item[0] for item in dataset])
    predictions = [int(np.argmax(row)) for row in logits]
    correct = sum(1 for p, item in zip(predictions, dataset) if p == item[1])
    return EvalResult(correct / len(dataset), predictions)


def score_streams(network: Network, dataset) -> list[np.ndarray]:
    """Per-sample softmax class distributions, for score fusion."""
    if not dataset:
        raise DataError("dataset is empty")
    _check_labels(network, dataset, "eval")
    return [softmax_distribution(row)
            for row in predict_logits(network, [item[0] for item in dataset])]


def _check_labels(network: Network, samples, split: str) -> None:
    """ConfigError, naming the sample, for a label outside the model's classes."""
    classes = network.config.num_classes
    for n, (_, label, *sample_id) in enumerate(samples):
        if not 0 <= label < classes:
            name = sample_id[0] if sample_id else f"{split}[{n}]"
            raise ConfigError(f"label {label} of sample {name} outside the model's "
                              f"{classes} classes")


def _check_samples(network: Network, train_set, eval_set) -> None:
    """ConfigError, naming the sample, for a train or eval label outside the
    model's classes or any sample not shaped (3, T, J, M) as the model takes it."""
    config = network.config
    expected = (3, config.fixed_length, config.num_joints, config.max_bodies)
    for split, samples in (("train", train_set), ("eval", eval_set or [])):
        _check_labels(network, samples, split)
        for n, (data, _, *sample_id) in enumerate(samples):
            if tuple(data.shape) != expected:
                name = sample_id[0] if sample_id else f"{split}[{n}]"
                raise ConfigError(f"sample {name} has shape {tuple(data.shape)}, "
                                  f"the model takes {expected}")


def train(network: Network, train_set, eval_set, config: TrainConfig,
          metrics_path=None, checkpoint_path=None, best_path=None) -> list[Metrics]:
    """Run the full schedule; returns per-epoch metrics.

    `checkpoint_path` is rewritten after every completed epoch, so on a
    divergence abort after epoch 0 it holds the last good state, which the
    abort message names.  `best_path` tracks the highest eval accuracy seen
    so far (first winner kept on ties).  Samples are checked against the
    model before any of these files is opened.
    """
    if not train_set:
        raise DataError("training set is empty")
    _check_samples(network, train_set, eval_set)
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
                         if checkpoint_path and history else "")
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
