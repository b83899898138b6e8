"""Training benchmark for tegraph.

Usage:
    python3 perfbench/run.py --workload {longrange,backbone,tgraph-dense}
                             [--seed N] [--seconds S] [--trace 0|1] [--quick]

Run from the repository root.  One run:

1. writes a synthetic-corpus spec made from --seed and turns it into a
   dataset with `tegraph preprocess`;
2. starts `tegraph train` (through `tegraph.cli.main`) in SETUP_PROBES
   fresh child processes that stop at the first optimizer step, to time
   set-up; half of them before the measured run and half after it;
3. between those, starts the measured run, untraced, that trains until the
   next epoch would end more than --seconds after its first step (`longrange`
   trains its whole schedule);
4. for `longrange`, trains again for REPEAT_EPOCHS epochs and compares the
   two `metrics.jsonl` files line for line;
5. with --trace 1, repeats the measured training for the same number of
   epochs with every layer traced, and reports per-layer figures and the
   overhead;
6. checks the outputs and prints, as its last line, one JSON object with
   `correct`, `attempted`, `failed` and `metrics`.

Every child runs under an address-space ceiling.  `attempted` counts the
optimizer steps started plus the output checks made; `failed` counts the
steps that did not complete (a dead, over-budget or numerically failed
child) plus the checks that failed.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# Set-up is about 0.3 s and its run-to-run noise comes from the host, so it
# is the median of many probes spread over the run.
SETUP_PROBES = 12
REPEAT_EPOCHS = 3  # longrange: epochs retrained to check repeatability
RUN_LIMIT_S = 170.0  # the whole run, children included, ends within this
MIN_ACCURACY = 0.95  # criterion 5, at the default seed and full schedule

# Layer spans with backward rules and their own records.
TIMED_LAYERS = ("blocks.sg", "blocks.tc", "blocks.res", "temporal.heads",
                "temporal.tgc", "batchnorm")


class RunFailed(Exception):
    pass


class Run:
    def __init__(self, args):
        self.workload = WORKLOADS[args.workload]
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.quick = args.quick
        self.started = time.perf_counter()
        self.dir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
        self.steps_attempted = 0
        self.steps_failed = 0
        self.checks: dict[str, bool] = {}
        self.notes: list[str] = []
        self.records_expected = None
        self.full_schedule = None
        self.best_eval_acc = None
        self.memory = None
        self.samples = None
        self.samples_loaded = None
        self.step_ms_p90 = None

    # -- children -------------------------------------------------------------

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.started)

    def preprocess(self) -> Path:
        spec_path = self.dir / "spec.json"
        spec_path.write_text(json.dumps(self.workload.spec(self.seed, self.quick)))
        data = self.dir / "data"
        env = dict(os.environ, PYTHONPATH=str(SRC))
        subprocess.run([sys.executable, "-m", "tegraph", "preprocess", str(spec_path),
                        "--out", str(data)], check=True, env=env, cwd=self.dir,
                       stdout=subprocess.DEVNULL, timeout=max(1.0, self.remaining()))
        return data / "manifest.jsonl"

    def child(self, tag: str, argv: list[str], *, trace=False, deadline_s=None,
              stop_after_epochs=None, probe=False) -> tuple[dict | None, float]:
        """Runs one instrumented train process; returns (result or None, spawn time)."""
        job = {
            "src": str(SRC), "argv": argv,
            "address_space_bytes": self.workload.address_space_bytes,
            "result": str(self.dir / f"{tag}.result.json"),
            "trace": trace, "deadline_s": deadline_s,
            "stop_after_epochs": stop_after_epochs, "probe": probe,
        }
        job_path = self.dir / f"{tag}.job.json"
        job_path.write_text(json.dumps(job))
        log_path = self.dir / f"{tag}.log"
        with open(log_path, "wb") as log:
            spawned = time.perf_counter()
            try:
                proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(job_path)],
                                      stdout=log, stderr=subprocess.STDOUT, cwd=self.dir,
                                      timeout=max(1.0, self.remaining()))
                code = proc.returncode
            except subprocess.TimeoutExpired:
                code = "timeout"
        result_path = Path(job["result"])
        if code != 0 or not result_path.exists():
            tail = log_path.read_text(errors="replace").strip().splitlines()[-3:]
            self.notes.append(f"{tag}: exit {code}: {' | '.join(tail)}")
            return None, spawned
        return json.loads(result_path.read_text()), spawned

    def count_steps(self, result: dict | None) -> None:
        if result is None:
            # the step in flight when the child died (or the run it never began)
            self.steps_attempted += 1
            self.steps_failed += 1
            return
        self.steps_attempted += len(result["steps"])

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks[name] = self.checks.get(name, True) and bool(ok)
        if not ok:
            self.notes.append(f"check {name} failed {detail}".rstrip())
        return ok

    # -- the run --------------------------------------------------------------

    def execute(self) -> dict:
        self.dir.mkdir(parents=True, exist_ok=True)
        manifest = self.preprocess()
        argv = lambda out: self.workload.train_argv(manifest, out, self.quick)  # noqa: E731

        setup = []

        def probe(n: int) -> None:
            result, spawned = self.child(f"probe{n}", argv(self.dir / f"probe{n}"), probe=True)
            if self.check("setup_probe", result is not None and result["first_step_at"]):
                setup.append(result["first_step_at"] - spawned)

        for n in range(SETUP_PROBES // 2):
            probe(n)
        main_out = self.dir / "run"
        main, spawned = self.child(
            "run", argv(main_out),
            deadline_s=self.seconds if self.workload.stops_on_budget else None)
        self.count_steps(main)
        if not self.check("run_completed", main is not None):
            raise RunFailed("the measured run did not complete")
        setup.append(main["first_step_at"] - spawned)
        for n in range(SETUP_PROBES // 2, SETUP_PROBES):
            probe(n)
        self.memory = {"vm_peak_mb": main["vm_peak_kb"] and main["vm_peak_kb"] / 1024.0,
                       "address_space_limit_mb": self.workload.address_space_bytes / 2**20}
        self.samples_loaded = [load["samples"] for load in main["loads"]]
        epochs = len(main["epoch_ends"])
        metrics_bytes = (main_out / "metrics.jsonl").read_bytes()
        self.check_outputs(main, metrics_bytes, epochs)
        if self.workload.name == "longrange":
            self.check_repeat(argv, metrics_bytes)

        report = {"end_to_end": self.end_to_end(main, setup)}
        if self.trace:
            traced_out = self.dir / "traced"
            traced, _ = self.child("traced", argv(traced_out), trace=True,
                                   stop_after_epochs=epochs)
            self.count_steps(traced)
            if self.check("traced_completed", traced is not None):
                self.check("trace_keeps_metrics_bytes",
                           (traced_out / "metrics.jsonl").read_bytes() == metrics_bytes)
                self.check("trace_keeps_record_counts",
                           traced["records_per_sample"] == main["records_per_sample"])
                report["per_layer"] = self.per_layer(main, traced)
        return report

    # -- output checks --------------------------------------------------------

    def check_outputs(self, main: dict, metrics_bytes: bytes, epochs: int) -> None:
        steps, evals = after_warm_up(main)
        if not self.check("timed_steps", len(steps) >= 2 and len(evals) >= 1,
                          "(need two optimizer steps and an evaluation after the warm-up epoch)"):
            raise RunFailed("nothing to time after the warm-up epoch")
        self.check("finite_logits", main["nonfinite_logits"] == 0)
        lines = metrics_bytes.decode().splitlines()
        rows = [json.loads(line) for line in lines]
        self.check("metrics_lines", len(rows) == epochs, f"({len(rows)} != {epochs})")
        self.check("finite_loss", all(math.isfinite(r["train_loss"]) for r in rows))
        self.check("eval_acc", all(r["eval_acc"] is not None and 0 <= r["eval_acc"] <= 1
                                   for r in rows))
        counts = set(main["records_per_sample"])
        expected = replica_record_count(self.workload.train_options(self.quick))
        self.check("records_exact", counts == {expected},
                   f"(per-sample counts {sorted(counts)}, structure gives {expected})")
        self.records_expected = expected

        full = epochs == int(self.workload.train_options(self.quick)["epochs"])
        self.full_schedule = full
        if self.workload.name == "longrange":
            best = max(r["eval_acc"] for r in rows)
            self.best_eval_acc = best
            if self.seed == 0 and full and not self.quick:
                self.check("criterion5_accuracy", best >= MIN_ACCURACY,
                           f"(best eval accuracy {best})")

    def check_repeat(self, argv, metrics_bytes: bytes) -> None:
        """Trains the same seed again for a few epochs in a fresh process; its
        per-epoch metrics lines must equal the measured run's, byte for byte."""
        out = self.dir / "repeat"
        repeat, _ = self.child("repeat", argv(out), stop_after_epochs=REPEAT_EPOCHS)
        self.count_steps(repeat)
        if self.check("repeat_completed", repeat is not None):
            again = (out / "metrics.jsonl").read_bytes().splitlines()
            first = metrics_bytes.splitlines()[:REPEAT_EPOCHS]
            self.check("metrics_repeat", again == first,
                       f"({len(again)} lines retrained, {len(first)} to compare)")

    # -- metrics --------------------------------------------------------------

    def end_to_end(self, main: dict, setup: list[float]) -> dict:
        steps, evals = after_warm_up(main)
        step_ms = [1000.0 * (s["end"] - s["start"]) for s in steps]
        samples = sum(s["samples"] for s in steps)
        window = main["epoch_ends"][-1] - main["epoch_ends"][0]
        eval_s = sum(e["s"] for e in evals)
        eval_samples = sum(e["samples"] for e in evals)
        self.samples = {
            "setup_s": len(setup), "train_samples_per_s": samples,
            "train_step_ms_p50": len(step_ms),
            "eval_samples_per_s": eval_samples, "peak_rss_mb": 1,
        }
        # Reported in the detail line only: its run-to-run spread is wider
        # than any allowed bound (README.md).
        self.step_ms_p90 = percentile(step_ms, 90)
        return {
            "setup_s": (statistics.median(setup), "s"),
            "train_samples_per_s": (samples / (window - eval_s), "1/s"),
            "train_step_ms_p50": (statistics.median(step_ms), "ms"),
            "eval_samples_per_s": (eval_samples / eval_s, "1/s"),
            "peak_rss_mb": (main["ru_maxrss_kb"] / 1024.0, "MB"),
        }

    def per_layer(self, main: dict, traced: dict) -> dict:
        tr = traced["trace"]
        self_s, incl_s, calls = tr["self_s"], tr["incl_s"], tr["calls"]
        timed, _ = after_warm_up(traced)
        n_samples = sum(s["samples"] for s in timed)
        n_steps = len(timed)
        n_recorded = len(traced["records_per_sample"])

        def per_sample_ms(table, key):
            return 1000.0 * table.get(key, 0.0) / n_samples

        # A backward rule's qualified-name prefix is its op name; records of
        # ops outside the package's registry are summed under `other`.
        import_tegraph()
        from tegraph.tensor import OP_NAMES as ops

        out = {
            "tensor.records_per_sample": (sum(tr["records_by_op"].values()) / n_recorded,
                                          "count"),
        }
        for op in ops:
            out[f"tensor.records.{op}"] = (tr["records_by_op"].get(op, 0) / n_recorded,
                                           "count")
        out["tensor.records.other"] = (
            sum(v for k, v in tr["records_by_op"].items() if k not in ops) / n_recorded,
            "count")
        out["tensor.backward_ms"] = (per_sample_ms(incl_s, "tensor.backward|train"), "ms")
        out["tensor.traced_peak_mb"] = (tr["traced_peak_bytes"] / 2**20, "MB")
        for layer in TIMED_LAYERS:
            out[f"{layer}.fwd_ms"] = (per_sample_ms(self_s, f"{layer}|train"), "ms")
            out[f"{layer}.bwd_ms"] = (per_sample_ms(self_s, f"{layer}|backward"), "ms")
            out[f"{layer}.records"] = (tr["records_by_layer"].get(layer, 0) / n_recorded,
                                       "count")
        out["model.self_fwd_ms"] = (per_sample_ms(self_s, "model|train"), "ms")
        out["model.self_bwd_ms"] = (per_sample_ms(self_s, "model|backward"), "ms")
        out["model.records"] = (tr["records_by_layer"].get("model", 0) / n_recorded, "count")
        out["model.eval_fwd_ms"] = (1000.0 * incl_s.get("model|eval", 0.0)
                                    / max(1, calls.get("model|eval", 0)), "ms")
        step_s = incl_s.get("training.step|train", 0.0)
        for name, key in (("sgd_ms", "training.sgd|train"),
                          ("zero_grad_ms", "training.zero_grad|train")):
            out[f"training.{name}"] = (1000.0 * incl_s.get(key, 0.0) / n_steps, "ms")
        out["training.self_ms"] = (1000.0 * self_s.get("training.step|train", 0.0) / n_steps,
                                   "ms")
        out["training.step_ms"] = (1000.0 * step_s / n_steps, "ms")
        out["training.evaluate_ms"] = (1000.0 * incl_s.get("training.evaluate|eval", 0.0)
                                       / max(1, calls.get("training.evaluate|eval", 0)), "ms")
        saves = [s for s in traced["saves"] if s["at"] > traced["epoch_ends"][0]]
        out["checkpoint.save_ms"] = (1000.0 * statistics.fmean(s["s"] for s in saves), "ms")
        out["checkpoint.saves"] = (len(saves), "count")
        out["checkpoint.bytes"] = (statistics.fmean(s["bytes"] for s in saves), "bytes")
        out["dataset.load_ms"] = (1000.0 * sum(l["s"] for l in traced["loads"]), "ms")
        covered = sum(v for k, v in self_s.items()
                      if k.endswith(("|train", "|backward")) and k != "training.step|train")
        out["trace.coverage_pct"] = (100.0 * covered / step_s, "%")
        untraced_p50 = statistics.median(s["end"] - s["start"] for s in after_warm_up(main)[0])
        traced_p50 = statistics.median(s["end"] - s["start"] for s in timed)
        out["trace.overhead_pct"] = (100.0 * (traced_p50 / untraced_p50 - 1.0), "%")
        return out


def after_warm_up(result: dict) -> tuple[list[dict], list[dict]]:
    """Steps and evaluations after the first epoch.

    The first epoch is warm-up: its first step page-faults the whole
    working set and its evaluation is the first untaped forward.
    """
    warm_end = result["epoch_ends"][0] if result["epoch_ends"] else math.inf
    return ([s for s in result["steps"] if s["start"] > warm_end],
            [e for e in result["evals"] if e["end"] > warm_end])


def percentile(values: list[float], pct: int) -> float:
    """Inclusive-method percentile; the median of one value is itself."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def import_tegraph() -> None:
    """Makes the package under src/ importable in this process."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def replica_record_count(options: dict) -> int:
    """Tape records for one training sample of the same model at T=8.

    Every op records exactly once per call, so the count depends on the
    model's structure (layers, modes, kernel, heads, partitions, bodies),
    not on its sizes: a short replica gives the exact expected count.
    """
    import_tegraph()
    import numpy as np
    from tegraph import precision
    from tegraph.cli import model_config_from
    from tegraph.model import Network
    from tegraph.tensor import Tape

    options = dict(options, frames="8")
    with precision.scoped_mode(options.get("precision", "verify")):
        network = Network(model_config_from(options))
        shape = (3, 8, network.config.num_joints, network.config.max_bodies)
        sample = np.random.default_rng(0).normal(size=shape)
        with Tape() as tape:
            network.loss(network.forward_sample(sample), 0)
        return len(tape)


def environment(workload, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    git = None
    if (ROOT / ".git").exists():  # never describe an enclosing repository
        try:
            described = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"],
                                       cwd=ROOT, capture_output=True, text=True, timeout=10)
            git = described.stdout.strip() if described.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_threads(),
                 "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")},
        "eval_threads": 1,
        "precision": workload.options.get("precision", "verify"),
        "git_describe": git,
        "seed": seed,
    }


def blas_threads() -> int | None:
    """OpenBLAS's own thread count, read from the loaded library."""
    import ctypes

    import numpy  # noqa: F401  (loads the BLAS library)

    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="shrunken workload (short sequences, few epochs) for self-tests")
    args = parser.parse_args(argv)
    if not (SRC / "tegraph" / "__init__.py").is_file():
        print(f"no tegraph package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    # On SIGTERM, unwind: subprocess.run kills and reaps the child in flight,
    # and the run directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    run = Run(args)
    try:
        report = run.execute()
    except (RunFailed, subprocess.SubprocessError, OSError) as exc:
        run.notes.append(f"run failed: {exc}")
        report = None
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    for note in run.notes:
        print(note, file=sys.stderr)

    checks_failed = sum(1 for ok in run.checks.values() if not ok)
    failed = run.steps_failed + checks_failed + (report is None)
    table = (report or {}).get("per_layer" if args.trace else "end_to_end", {})
    if report is not None:
        print(json.dumps({
            "workload": args.workload, "environment": environment(run.workload, args.seed),
            "samples": run.samples, "checks": run.checks,
            "steps_attempted": run.steps_attempted, "steps_failed": run.steps_failed,
            "records_per_sample_expected": run.records_expected,
            "full_schedule": run.full_schedule, "best_eval_acc": run.best_eval_acc,
            "memory": run.memory, "dataset_samples": run.samples_loaded,
            "train_step_ms_p90": run.step_ms_p90,
            "end_to_end": {k: v[0] for k, v in report["end_to_end"].items()},
        }, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and bool(table),
        "attempted": max(1, run.steps_attempted + len(run.checks)),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in table.items()},
    }))
    return 0 if report is not None else 1

if __name__ == "__main__":
    sys.exit(main())
