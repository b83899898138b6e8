"""The package entry points that the benchmark's hooks wrap still exist.

`perfbench/hooks.py` instruments a training run from outside, by replacing
package attributes.  A refactor that renames or re-signs one of them would
otherwise fail only in a traced benchmark run; here it fails the suite.
A refactor that stops calling one of them would leave its span timing
nothing, so some workload must still reach each.  Likewise every per-op
record count `BENCHMARK.json` lists must name an op the package still
registers.  These tests only read `perfbench/` and `BENCHMARK.json`.
"""
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from tegraph import precision
from tegraph.cli import model_config_from
from tegraph.model import Network
from tegraph.tensor import OP_NAMES, Tape

ROOT = Path(__file__).resolve().parent.parent


def load_perfbench(name):
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


hooks = load_perfbench("hooks")
workloads = load_perfbench("workloads")


@pytest.mark.parametrize("module_name,dotted,span", hooks.LAYER_SPANS)
def test_every_layer_span_resolves_in_the_package(module_name, dotted, span):
    owner, name = hooks._resolve(module_name, dotted)
    assert name in owner.__dict__, f"{span}: {module_name}.{dotted} is not defined there"
    assert callable(owner.__dict__[name]), span


def test_every_layer_span_runs_in_some_workload(monkeypatch):
    """One T=8 training sample per workload, built as
    `perfbench/run.py::replica_record_count` builds it, reaches every span."""
    reached = set()

    def counted(span, original):
        def wrapper(*args, **kwargs):
            reached.add(span)
            return original(*args, **kwargs)
        return wrapper

    for module_name, dotted, span in hooks.LAYER_SPANS:
        owner, name = hooks._resolve(module_name, dotted)
        monkeypatch.setattr(owner, name, counted(span, owner.__dict__[name]))
    for workload in workloads.WORKLOADS.values():
        options = dict(workload.options, frames="8")
        with precision.scoped_mode(options.get("precision", "verify")):
            network = Network(model_config_from(options))
            shape = (3, 8, network.config.num_joints, network.config.max_bodies)
            sample = np.random.default_rng(0).normal(size=shape)
            with Tape():
                network.loss(network.forward_sample(sample), 0)
    assert [span for _, _, span in hooks.LAYER_SPANS if span not in reached] == []


def test_forward_sample_keeps_its_signature():
    params = list(inspect.signature(Network.forward_sample).parameters.values())
    assert [p.name for p in params] == ["self", "x", "collector"]
    assert params[2].default is None


def test_the_traced_recorder_installs_and_puts_everything_back():
    recorder = hooks.Recorder(trace=True)
    with recorder.installed():
        patched = recorder.patched()
        assert len(patched) > len(hooks.LAYER_SPANS)
    for owner, name, original in patched:
        assert owner.__dict__[name] is original, name


def test_every_listed_op_record_count_names_a_registered_op():
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    prefix = "tensor.records."
    listed = [m["name"][len(prefix):] for m in metrics if m["name"].startswith(prefix)]
    assert "matmul" in listed
    assert sorted(set(listed) - {"other"} - set(OP_NAMES)) == []
