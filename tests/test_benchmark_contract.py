"""The package entry points that the benchmark's hooks wrap still exist.

`perfbench/hooks.py` instruments a training run from outside, by replacing
package attributes.  A refactor that renames or re-signs one of them would
otherwise fail only in a traced benchmark run; here it fails the suite.
This test only reads `perfbench/`.
"""
import importlib.util
import inspect
from pathlib import Path

import pytest

from tegraph.model import Network

HOOKS = Path(__file__).resolve().parent.parent / "perfbench" / "hooks.py"


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
