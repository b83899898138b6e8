"""Outside-in instrumentation of one `tegraph train` process.

Nothing here edits the package: every measurement comes from wrapping the
public functions that the trainer calls, at the attribute through which
the trainer looks them up, and putting the originals back afterwards.

Two levels:

* light (every run): step boundaries (`Network.zero_grad` .. `sgd_step`),
  `evaluate`, checkpoint saves, `load_split`, per-sample tape length and
  finiteness of the training logits.  One wrapper call per step, sample or
  epoch, so the untraced figures stay the end-to-end figures.
* trace: additionally a span around every layer entry point, a timed
  wrapper around every backward rule (attributed to the innermost span open
  when the rule was recorded), and a tracemalloc peak for one warm-up
  sample.

A span's self time is its duration minus the time its child spans (and the
backward rules replayed inside it) cover.
"""
from __future__ import annotations

import contextlib
import os
import time
import tracemalloc

import numpy as np

clock = time.perf_counter

# Layer spans: (module the attribute is looked up in, attribute, span name).
# The module names are the package's own; the span names are the layers.
LAYER_SPANS = (
    ("tegraph.model", "sg_forward", "blocks.sg"),
    ("tegraph.model", "tc_forward", "blocks.tc"),
    ("tegraph.blocks", "ChannelProjection.__call__", "blocks.res"),
    ("tegraph.model", "build_heads", "temporal.heads"),
    ("tegraph.model", "temporal_graph_conv", "temporal.tgc"),
    ("tegraph.batchnorm", "BatchNorm.__call__", "batchnorm"),
    ("tegraph.model", "Network.loss", "model"),
)
# Network.forward_sample is wrapped at both levels; when tracing it is the
# `model` span as well.


# A time-budgeted run never stops before this many epochs: the warm-up epoch
# plus two timed ones, so even a slow host leaves something to time.
MIN_EPOCHS = 3


class Stop(Exception):
    """Raised from a wrapper to end training at an epoch boundary."""


def _resolve(module_name: str, dotted: str):
    import importlib

    owner = importlib.import_module(module_name)
    parts = dotted.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class _Frame:
    __slots__ = ("name", "start", "covered")

    def __init__(self, name: str, start: float):
        self.name = name
        self.start = start
        self.covered = 0.0


class Recorder:
    """Collects step, epoch and (when tracing) span timings for one process.

    `deadline_s` ends training at the first epoch boundary (after
    MIN_EPOCHS) after which the next epoch would no longer finish within
    that many seconds of the first step; `stop_after_epochs` ends it after exactly that many epochs;
    `probe` ends the process at the first step (set-up measurement only).
    """

    def __init__(self, trace: bool = False, deadline_s: float | None = None,
                 stop_after_epochs: int | None = None, probe: bool = False):
        self.trace = trace
        self.deadline_s = deadline_s
        self.stop_after_epochs = stop_after_epochs
        self.probe = probe
        self._patched: list[tuple[object, str, object]] = []
        # light figures
        self.first_step_at: float | None = None
        self.steps: list[dict] = []
        self.evals: list[dict] = []
        self.epoch_ends: list[float] = []
        self.saves: list[dict] = []
        self.loads: list[dict] = []
        self.records_per_sample: list[int] = []
        self.nonfinite_logits = 0
        self._step_start: float | None = None
        self._step_samples = 0
        self._phase = "setup"
        # trace figures
        self._stack: list[_Frame] = []
        self.self_s: dict[tuple[str, str], float] = {}
        self.incl_s: dict[tuple[str, str], float] = {}
        self.calls: dict[tuple[str, str], int] = {}
        self.records_by_layer: dict[str, int] = {}
        self.records_by_op: dict[str, int] = {}
        self.traced_peak_bytes: int | None = None
        self._memory_sample = False
        self._warm_snapshot: dict | None = None

    # -- patching -------------------------------------------------------------

    def _patch(self, owner, name: str, replacement) -> None:
        self._patched.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def patched(self) -> list[tuple[object, str, object]]:
        return list(self._patched)

    def install(self) -> None:
        import tegraph.cli
        import tegraph.training
        from tegraph.model import Network
        from tegraph.tensor import Tape

        self._patch(tegraph.cli, "load_split", self._wrap_load(tegraph.cli.load_split))
        self._patch(Network, "zero_grad", self._wrap_zero_grad(Network.zero_grad))
        self._patch(tegraph.training, "sgd_step", self._wrap_sgd(tegraph.training.sgd_step))
        self._patch(tegraph.training, "evaluate", self._wrap_evaluate(tegraph.training.evaluate))
        self._patch(tegraph.training, "save_checkpoint",
                    self._wrap_save(tegraph.training.save_checkpoint))
        self._patch(Tape, "backward", self._wrap_backward(Tape.backward))
        self._patch(Network, "forward_sample", self._wrap_forward(Network.forward_sample))
        if self.trace:
            for module_name, dotted, span in LAYER_SPANS:
                owner, name = _resolve(module_name, dotted)
                self._patch(owner, name, self._span(span, owner.__dict__[name]))
            self._patch(Tape, "record", self._wrap_record(Tape.record))

    def uninstall(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- spans ----------------------------------------------------------------

    def _open(self, name: str) -> None:
        self._stack.append(_Frame(name, clock()))

    def _close(self) -> float:
        frame = self._stack.pop()
        duration = clock() - frame.start
        key = (frame.name, self._phase)
        self.self_s[key] = self.self_s.get(key, 0.0) + duration - frame.covered
        self.incl_s[key] = self.incl_s.get(key, 0.0) + duration
        self.calls[key] = self.calls.get(key, 0) + 1
        if self._stack:
            self._stack[-1].covered += duration
        return duration

    def _span(self, name: str, fn):
        def spanned(*args, **kwargs):
            self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close()

        return spanned

    def _wrap_record(self, original):
        def record(tape, rule):
            layer = self._stack[-1].name if self._stack else "model"
            op = rule.__qualname__.split(".")[0]
            self.records_by_layer[layer] = self.records_by_layer.get(layer, 0) + 1
            self.records_by_op[op] = self.records_by_op.get(op, 0) + 1

            def timed():
                started = clock()
                rule()
                elapsed = clock() - started
                key = (layer, "backward")
                self.self_s[key] = self.self_s.get(key, 0.0) + elapsed
                if self._stack:
                    self._stack[-1].covered += elapsed

            original(tape, timed)

        return record

    # -- light wrappers -------------------------------------------------------

    def _wrap_load(self, fn):
        def load_split(*args, **kwargs):
            started = clock()
            out = fn(*args, **kwargs)
            self.loads.append({"s": clock() - started, "samples": len(out)})
            return out

        return load_split

    def _wrap_zero_grad(self, fn):
        def zero_grad(network):
            now = clock()
            if self.first_step_at is None:
                self.first_step_at = now
                if self.probe:
                    raise Stop("set-up probe reached the first step")
            self._step_start = now
            self._step_samples = 0
            self._phase = "train"
            if self.trace:
                self._open("training.step")
                self._open("training.zero_grad")
                try:
                    return fn(network)
                finally:
                    self._close()
            return fn(network)

        return zero_grad

    def _wrap_sgd(self, fn):
        def sgd_step(*args, **kwargs):
            if self.trace:
                self._open("training.sgd")
            try:
                return fn(*args, **kwargs)
            finally:
                if self.trace:
                    self._close()
                    self._close()  # training.step
                end = clock()
                self.steps.append({"start": self._step_start, "end": end,
                                   "samples": self._step_samples})
                self._phase = "between"

        return sgd_step

    def _wrap_forward(self, fn):
        def forward_sample(network, x, collector=None):
            training_sample = network.training and self._phase == "train"
            if training_sample:
                self._step_samples += 1
                self._memory_sample = (self.trace and len(self.steps) == 0
                                       and self.traced_peak_bytes is None)
                if self._memory_sample:
                    tracemalloc.start()
            if self.trace:
                self._open("model")
                try:
                    logits = fn(network, x, collector)
                finally:
                    self._close()
            else:
                logits = fn(network, x, collector)
            if training_sample and not np.all(np.isfinite(logits.data)):
                self.nonfinite_logits += 1
            return logits

        return forward_sample

    def _wrap_backward(self, fn):
        def backward(tape, output, seed=None):
            self.records_per_sample.append(len(tape))
            if self.trace:
                self._open("tensor.backward")
            try:
                return fn(tape, output, seed)
            finally:
                if self.trace:
                    self._close()
                if self._memory_sample:
                    self.traced_peak_bytes = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self._memory_sample = False

        return backward

    def _wrap_evaluate(self, fn):
        def evaluate(network, dataset, *args, **kwargs):
            previous, self._phase = self._phase, "eval"
            started = clock()
            if self.trace:
                self._open("training.evaluate")
            try:
                return fn(network, dataset, *args, **kwargs)
            finally:
                if self.trace:
                    self._close()
                now = clock()
                self.evals.append({"end": now, "s": now - started, "samples": len(dataset)})
                self._phase = previous

        return evaluate

    def _wrap_save(self, fn):
        def save_checkpoint(path, *args, **kwargs):
            started = clock()
            if self.trace:
                self._open("checkpoint")
            try:
                fn(path, *args, **kwargs)
            finally:
                if self.trace:
                    self._close()
            now = clock()
            self.saves.append({"at": now, "s": now - started,
                               "bytes": os.path.getsize(path)})
            if os.path.basename(str(path)) == "checkpoint.tegc":
                self._epoch_end(now)

        return save_checkpoint

    def _epoch_end(self, now: float) -> None:
        self.epoch_ends.append(now)
        done = len(self.epoch_ends)
        if done == 1 and self.trace:
            self._warm_snapshot = self._snapshot()
        if self.stop_after_epochs is not None and done >= self.stop_after_epochs:
            raise Stop(f"stopped after {done} epochs")
        if self.deadline_s is not None and done >= MIN_EPOCHS:
            previous = self.epoch_ends[-2] if done > 1 else self.first_step_at
            if now + (now - previous) > self.first_step_at + self.deadline_s:
                raise Stop(f"time budget reached after {done} epochs")

    # -- results --------------------------------------------------------------

    def _snapshot(self) -> dict:
        return {"self_s": dict(self.self_s), "incl_s": dict(self.incl_s),
                "calls": dict(self.calls)}

    def result(self) -> dict:
        out = {
            "first_step_at": self.first_step_at,
            "steps": self.steps,
            "evals": self.evals,
            "epoch_ends": self.epoch_ends,
            "saves": self.saves,
            "loads": self.loads,
            "records_per_sample": self.records_per_sample,
            "nonfinite_logits": self.nonfinite_logits,
        }
        if self.trace:
            warm = self._warm_snapshot or {"self_s": {}, "incl_s": {}, "calls": {}}

            def since_warm(table: str) -> dict:
                current = getattr(self, table)
                return {f"{name}|{phase}": value - warm[table].get((name, phase), 0)
                        for (name, phase), value in current.items()}

            out["trace"] = {
                "self_s": since_warm("self_s"),
                "incl_s": since_warm("incl_s"),
                "calls": since_warm("calls"),
                "records_by_layer": self.records_by_layer,
                "records_by_op": self.records_by_op,
                "traced_peak_bytes": self.traced_peak_bytes,
            }
        return out
