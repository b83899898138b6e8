"""The CLI's heap policy: freed memory stays mapped, and no result changes.

`tegraph.cli.main` raises glibc's trim and mmap thresholds and keeps one
malloc arena before it runs a subcommand, so a training step, and an
evaluation worker thread, reuse the heap the previous step freed instead
of page-faulting it back in.  These tests pin the call, its effect
on minor page faults, and that the bytes a run writes do not depend on it.
"""
import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tegraph
from tegraph import cli
from tegraph.dataset import generate_synthetic, write_dataset


def _has_mallopt() -> bool:
    try:
        ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    return True


def _child_env() -> dict:
    src = str(Path(tegraph.__file__).resolve().parent.parent)
    return dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def _run_child(args: list[str]) -> subprocess.CompletedProcess:
    done = subprocess.run([sys.executable, *args], env=_child_env(), capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    return done


def test_main_sets_the_heap_policy_before_dispatch(monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "_keep_heap_mapped", lambda: calls.append("heap policy"))
    monkeypatch.setattr(cli, "cmd_gradcheck", lambda args: calls.append("gradcheck") or 0)
    assert cli.main(["gradcheck"]) == 0
    assert calls == ["heap policy", "gradcheck"]


FAULTS_CHILD = """
import resource
import numpy as np
from tegraph.cli import _keep_heap_mapped

_keep_heap_mapped()


def round_faults():
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    arrays = [np.ones((mb << 20) // 4, dtype=np.float32) for mb in (2, 3, 4, 5, 6, 7, 8) * 4]
    del arrays
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


print(round_faults(), round_faults())
"""


@pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
def test_freed_arrays_are_reused_without_page_faults():
    # 140 MB of 2-8 MB float32 arrays, allocated, written and freed twice.
    # Without the policy glibc unmaps or trims them after each round and the
    # second round faults about as often as the first.
    first, second = map(int, _run_child(["-c", FAULTS_CHILD]).stdout.split())
    assert first > 5000, "the first round should fault its pages in"
    assert second < first // 100


WORKER_CHILD = """
import resource
import threading
import numpy as np
from tegraph.cli import _keep_heap_mapped

_keep_heap_mapped()


def faults(fn):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    fn()
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


def blocks():
    arrays = [np.ones((mb << 20) // 4, dtype=np.float32) for mb in (2, 3, 4, 5, 6, 7, 8) * 2]
    del arrays


def in_a_worker():
    worker = threading.Thread(target=blocks)
    worker.start()
    worker.join()


print(faults(blocks), faults(in_a_worker))
"""


@pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
def test_worker_threads_reuse_the_heap_the_main_thread_freed():
    # Evaluation workers allocate feature maps of the sizes the training step
    # just freed.  With one arena they come from that heap; with glibc's
    # default each new thread grows an arena of its own and faults it in.
    main_thread, worker = map(int, _run_child(["-c", WORKER_CHILD]).stdout.split())
    assert main_thread > 5000, "the first round should fault its pages in"
    assert worker < main_thread // 100


LONGRANGE_SPEC = {"sets": [
    {"generator": "longrange", "classes": 2, "samples_per_class": 8, "joints": 5,
     "frames": 32, "sigma": 0.05, "seed": 100, "split": "train"},
    {"generator": "longrange", "classes": 2, "samples_per_class": 4, "joints": 5,
     "frames": 32, "sigma": 0.05, "seed": 200, "split": "eval"},
]}

LONGRANGE_OPTIONS = {
    "classes": "2", "layers": "3:12:1:tc:3,12:12:1:tgraph:3", "joints": "5",
    "frames": "32", "bodies": "1", "heads": "2", "relevance": "feature-learned",
    "graph": "chain", "seed": "0", "lr": "0.2", "decay_epochs": "2",
    "decay_factor": "0.1", "weight_decay": "0.0005", "batch_size": "4", "epochs": "3",
}

NO_POLICY_CHILD = """
import sys
from tegraph.cli import build_parser

args = build_parser().parse_args(sys.argv[1:])
sys.exit(args.func(args))
"""


def test_policy_changes_no_byte_of_a_training_run(tmp_path):
    labeled, graph = generate_synthetic(LONGRANGE_SPEC)
    manifest = write_dataset(tmp_path / "data", labeled, graph)
    argv = ["train", "--data", str(manifest)]
    for key, value in LONGRANGE_OPTIONS.items():
        argv += ["--set", f"{key}={value}"]
    _run_child(["-m", "tegraph", *argv, "--out", str(tmp_path / "main")])
    _run_child(["-c", NO_POLICY_CHILD, *argv, "--out", str(tmp_path / "plain")])
    lines = (tmp_path / "main" / "metrics.jsonl").read_text().splitlines()
    assert [json.loads(line)["epoch"] for line in lines] == [0, 1, 2]
    for artifact in ("metrics.jsonl", "checkpoint.tegc"):
        a = (tmp_path / "main" / artifact).read_bytes()
        b = (tmp_path / "plain" / artifact).read_bytes()
        assert a == b, f"{artifact} depends on the heap policy"
