"""Self-tests of the benchmark, on shrunken (--quick) workloads.

Run from the repository root with either of

    python3 perfbench/selftest.py
    python3 -m pytest -q perfbench/selftest.py

They check that every metric named in BENCHMARK.json is emitted with its
unit and a sample count, that per-layer self times cover the traced step
wall time, that tracing and retraining the same seed leave metrics.jsonl
byte-identical, that the hooks put back every function they wrap, and that
the benchmark refuses to run without the package sources.  About a minute on a 2-core machine.
"""
from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from hooks import LAYER_SPANS, Recorder, Stop  # noqa: E402
from workloads import LONGRANGE, WORKLOADS  # noqa: E402

WORK = ROOT / ".perfbench_work"

# Share of the traced step wall time that must fall in a named layer's self
# time; the rest is the trainer's own loop (grad scaling, tape set-up).
MIN_COVERAGE = 0.90


def _scratch_dir():
    WORK.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=WORK, prefix="selftest-")


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@functools.lru_cache(maxsize=None)
def _quick(workload: str, trace: int) -> tuple[dict, dict]:
    """(detail line, result line) of one quick benchmark run."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--quick",
         "--trace", str(trace), "--seconds", "30"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def _check_metrics(result: dict, wanted: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) >= {m["name"] for m in wanted}
    for m in wanted:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"], m["name"]
        assert isinstance(emitted["value"], (int, float)), m["name"]


def test_every_end_to_end_metric_emitted_with_unit_and_count():
    wanted = _spec()["end_to_end"]
    detail, result = _quick("longrange", 0)
    _check_metrics(result, wanted)
    for m in wanted:
        assert detail["samples"][m["name"]] >= 1, m["name"]
        assert result["metrics"][m["name"]]["value"] > 0, m["name"]
    assert set(detail["environment"]) >= {"nproc", "python", "numpy", "blas", "precision",
                                          "git_describe", "seed"}


def test_every_per_layer_metric_emitted_on_every_workload():
    wanted = _spec()["per_layer"]
    for name in WORKLOADS:
        _, result = _quick(name, 1)
        _check_metrics(result, wanted)
        metrics = result["metrics"]
        assert metrics["tensor.records_per_sample"]["value"] == sum(
            v["value"] for k, v in metrics.items() if k.startswith("tensor.records."))


def test_trace_and_retraining_keep_metrics_bytes_and_record_counts():
    for name in WORKLOADS:
        detail, _ = _quick(name, 1)
        assert detail["checks"]["trace_keeps_metrics_bytes"], name
        assert detail["checks"]["trace_keeps_record_counts"], name
        assert detail["checks"]["records_exact"], name
    detail, _ = _quick("longrange", 0)
    assert detail["checks"]["metrics_repeat"]


def test_self_times_cover_traced_step():
    for name in WORKLOADS:
        _, result = _quick(name, 1)
        assert result["metrics"]["trace.coverage_pct"]["value"] >= 100 * MIN_COVERAGE, name


def _train_in_process(recorder: Recorder, out: Path) -> None:
    import tegraph.cli

    data = out / "data"
    spec = out / "spec.json"
    spec.write_text(json.dumps(LONGRANGE.spec(0, quick=True)))
    assert tegraph.cli.main(["preprocess", str(spec), "--out", str(data)]) == 0
    argv = LONGRANGE.train_argv(data / "manifest.jsonl", out / "run", quick=True)
    with recorder.installed():
        try:
            assert tegraph.cli.main(argv) == 0
        except Stop:
            pass


def test_self_time_bookkeeping_is_exact():
    recorder = Recorder(trace=True)
    with _scratch_dir() as tmp:
        _train_in_process(recorder, Path(tmp))
    trace = recorder.result()["trace"]
    step = trace["incl_s"]["training.step|train"]
    total = sum(v for k, v in trace["self_s"].items() if k.endswith(("|train", "|backward")))
    assert abs(total - step) <= 1e-9 * max(1, len(recorder.steps)) + 1e-6 * step
    assert trace["self_s"]["training.step|train"] <= (1 - MIN_COVERAGE) * step


def test_hooks_restore_every_wrapped_function():
    import tegraph.cli
    import tegraph.training
    from tegraph.model import Network
    from tegraph.tensor import Tape

    before = {name: obj for name, obj in vars(Network).items()}
    before_tape = dict(vars(Tape))
    recorder = Recorder(trace=True)
    recorder.install()
    patched = recorder.patched()
    assert len(patched) == 7 + len(LAYER_SPANS) + 1
    recorder.uninstall()
    for owner, name, original in patched:
        assert owner.__dict__[name] is original, (owner, name)
    assert dict(vars(Network)) == before and dict(vars(Tape)) == before_tape
    assert tegraph.training.sgd_step.__module__ == "tegraph.training"
    assert tegraph.cli.load_split.__module__ == "tegraph.dataset"


def test_refuses_to_run_without_sources():
    with _scratch_dir() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "longrange", "--seed", "1",
             "--seconds", "5", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    tests = [(n, f) for n, f in sorted(globals().items()) if n.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except Exception as exc:  # report every test, then fail once
            failed += 1
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
        else:
            print(f"ok   {name}")
    sys.exit(1 if failed else 0)
