"""The benchmark's three workloads: inputs made from a seed, and the
`tegraph train` options that define the model and schedule.

Why these three (see README.md for the measurements behind it):

* longrange - the acceptance-criterion-5 model and corpus.  ~140 tape
  records per sample at ~26 us of Python overhead each dominate; BLAS barely
  matters.  Exercises tensor dispatch, sgd_step and per-epoch checkpoints.
  Not in BENCHMARK.json: its timings spread too widely from run to run on
  the reference machine to be bounded.
* backbone - the capture-scale nine-layer backbone, temporal stage `both`
  at layer 9 only.  blocks.tc and blocks.sg carry the forward time, tape
  retention sets peak memory; the bypass case for temporal-stage work.
* tgraph-dense - the same backbone with every stride-1 layer a temporal
  graph with 4 feature-calculated heads; the T x T mixing carries the load
  and only layers 5 and 8 keep tc.  The bypass case for tc work.
"""
from __future__ import annotations

from dataclasses import dataclass

GIB = 1 << 30


@dataclass(frozen=True)
class Workload:
    name: str
    generator: str
    joints: int
    frames: int
    classes: int
    train_per_class: int
    eval_per_class: int
    options: dict
    address_space_bytes: int
    quick_frames: int
    quick_epochs: int
    # False: train the whole schedule, whatever the time budget.
    stops_on_budget: bool = True

    def spec(self, seed: int, quick: bool = False) -> dict:
        """Synthetic-corpus spec for `tegraph preprocess`; a pure function of seed.

        Seed 0 gives the criterion-5 corpus (train seed 100, eval seed 200).
        """
        frames = self.quick_frames if quick else self.frames
        common = {"generator": self.generator, "joints": self.joints,
                  "frames": frames, "sigma": 0.05, "classes": self.classes}
        return {"sets": [
            dict(common, samples_per_class=self.train_per_class,
                 seed=1000 * seed + 100, split="train"),
            dict(common, samples_per_class=self.eval_per_class,
                 seed=1000 * seed + 200, split="eval"),
        ]}

    def train_options(self, quick: bool = False) -> dict:
        options = dict(self.options)
        if quick:
            options["frames"] = str(self.quick_frames)
            options["epochs"] = str(self.quick_epochs)
        return options

    def train_argv(self, manifest, out_dir, quick: bool = False) -> list[str]:
        argv = ["train", "--data", str(manifest), "--out", str(out_dir)]
        for key, value in self.train_options(quick).items():
            argv += ["--set", f"{key}={value}"]
        return argv


# Acceptance criterion 5: two layers, 12 channels, T=32, J=5, chain graph,
# layer 2 a temporal graph with 2 feature-learned heads; float64 (the CLI
# default), batch 4, 100 epochs with decays at 60 and 85.  The whole
# schedule (about 30 s) is trained in every run, so that every seed-0 run
# checks criterion 5.
LONGRANGE = Workload(
    name="longrange", generator="longrange", joints=5, frames=32, classes=2,
    train_per_class=24, eval_per_class=24,
    options={
        "classes": "2", "layers": "3:12:1:tc:3,12:12:1:tgraph:3", "joints": "5",
        "frames": "32", "bodies": "1", "heads": "2", "relevance": "feature-learned",
        "graph": "chain", "seed": "0", "lr": "0.2", "decay_epochs": "60,85",
        "decay_factor": "0.1", "weight_decay": "0", "batch_size": "4", "epochs": "100",
    },
    address_space_bytes=2 * GIB, quick_frames=32, quick_epochs=3, stops_on_budget=False,
)

# Capture scale: J=25, T=300, ntu graph, one body, float32, batch 2.  Two
# training and two eval samples (one per class) make an epoch one step and
# one short evaluation, so the time budget ends close to an epoch boundary
# and the warm-up epoch costs little.  The epoch count is only an upper
# bound: runs stop on the time budget.
_CAPTURE = {
    "classes": "2", "bodies": "1", "precision": "train", "batch_size": "2",
    "epochs": "1000", "seed": "0",
}

BACKBONE = Workload(
    name="backbone", generator="templates", joints=25, frames=300, classes=2,
    train_per_class=1, eval_per_class=1,
    options=dict(_CAPTURE, replace_all="false"),
    address_space_bytes=6 * GIB, quick_frames=24, quick_epochs=3,
)

TGRAPH_DENSE = Workload(
    name="tgraph-dense", generator="templates", joints=25, frames=300, classes=2,
    train_per_class=1, eval_per_class=1,
    options=dict(_CAPTURE, replace_all="true"),
    address_space_bytes=6 * GIB, quick_frames=24, quick_epochs=3,
)

WORKLOADS = {w.name: w for w in (LONGRANGE, BACKBONE, TGRAPH_DENSE)}
