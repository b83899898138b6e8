"""Desk-scale ablation grids: head count, insertion layer, modalities.

Each suite trains one model per grid cell on the given preprocessed
dataset and reports top-1 eval accuracy per cell as (header, rows) ready
for CSV.  The grids mirror the three standard comparisons: head counts
1/2/4/8, temporal-graph insertion at each layer, and the seven modality
combinations (each single stream, the two spatial streams, the two motion
streams, and all four fused).
"""
from __future__ import annotations

from dataclasses import replace

from .dataset import load_split
from .errors import ConfigError, DataError
from .model import ModelConfig, Network, fused_accuracy
from .training import TrainConfig, evaluate, score_streams, train

SUITES = ("heads", "layer-placement", "modalities")

HEAD_GRID = (1, 2, 4, 8)

MODALITY_COMBOS = (
    ("joint-spatial",),
    ("bone-spatial",),
    ("joint-motion",),
    ("bone-motion",),
    ("joint-spatial", "bone-spatial"),
    ("joint-motion", "bone-motion"),
    ("joint-spatial", "bone-spatial", "joint-motion", "bone-motion"),
)


def _train_eval(config: ModelConfig, train_set, eval_set, tconfig: TrainConfig) -> float:
    """Final eval accuracy: the last epoch's, which `train` has already evaluated."""
    network = Network(config)
    history = train(network, train_set, eval_set, tconfig)
    if history and history[-1].eval_acc is not None:
        return history[-1].eval_acc
    return evaluate(network, eval_set).accuracy  # no epoch ran, or no eval set


def _with_insertion(config: ModelConfig, index: int) -> ModelConfig:
    layers = [replace(spec, mode="tc") for spec in config.layers]
    layers[index - 1] = replace(layers[index - 1], mode="both")
    return replace(config, layers=layers)


def ablate_suite(suite: str, manifest_path, config: ModelConfig,
                 tconfig: TrainConfig,
                 kind: str | None = None) -> tuple[list[str], list[list]]:
    """`kind` is the stream of the heads and layer-placement suites
    (joint-spatial by default); the modalities suite trains every stream."""
    if suite not in SUITES:
        raise ConfigError(f"unknown suite {suite!r}; choose from {SUITES}")
    if suite != "modalities":
        train_set = load_split(manifest_path, kind or "joint-spatial", "train")
        eval_set = load_split(manifest_path, kind or "joint-spatial", "eval")
        if suite == "heads":
            return ["heads", "top1"], [
                [n, _train_eval(replace(config, heads=n), train_set, eval_set, tconfig)]
                for n in HEAD_GRID]
        return ["insertion_layer", "top1"], [
            [index, _train_eval(_with_insertion(config, index), train_set, eval_set, tconfig)]
            for index in range(1, len(config.layers) + 1)]
    if kind is not None:
        raise ConfigError(f"the modalities suite trains every stream; "
                          f"modality {kind!r} does not apply")

    # modalities: one training per stream, then fuse per combination
    per_kind_scores = {}
    eval_labels = None
    for stream_kind in MODALITY_COMBOS[-1]:
        train_set = load_split(manifest_path, stream_kind, "train")
        eval_set = load_split(manifest_path, stream_kind, "eval")
        labels = [label for _, label, *_ in eval_set]
        if eval_labels is None:
            eval_labels = labels
        elif labels != eval_labels:
            raise DataError("modality streams disagree on eval labels/order")
        network = Network(config)
        train(network, train_set, eval_set, tconfig)
        per_kind_scores[stream_kind] = score_streams(network, eval_set)
    rows = [["+".join(combo), fused_accuracy([per_kind_scores[k] for k in combo], eval_labels)]
            for combo in MODALITY_COMBOS]
    return ["modalities", "top1"], rows
