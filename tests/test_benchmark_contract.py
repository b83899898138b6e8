"""The package entry points that the benchmark's hooks wrap still exist.

`perfbench/hooks.py` instruments a training run from outside, by replacing
package attributes.  A refactor that renames or re-signs one of them would
otherwise fail only in a traced benchmark run; here it fails the suite.
Likewise every per-op record count `BENCHMARK.json` lists must name an op
the package still registers.  These tests only read `perfbench/` and
`BENCHMARK.json`.
"""
import importlib.util
import inspect
import json
from pathlib import Path

import pytest

from tegraph.model import Network
from tegraph.tensor import OP_NAMES

ROOT = Path(__file__).resolve().parent.parent
HOOKS = ROOT / "perfbench" / "hooks.py"


def load_hooks():
    spec = importlib.util.spec_from_file_location("perfbench_hooks", HOOKS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


hooks = load_hooks()


@pytest.mark.parametrize("module_name,dotted,span", hooks.LAYER_SPANS)
def test_every_layer_span_resolves_in_the_package(module_name, dotted, span):
    owner, name = hooks._resolve(module_name, dotted)
    assert name in owner.__dict__, f"{span}: {module_name}.{dotted} is not defined there"
    assert callable(owner.__dict__[name]), span


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
