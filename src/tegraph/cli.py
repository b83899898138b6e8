"""Command-line surface.

Subcommands: preprocess, train, eval, fuse, gradcheck, ablate,
dump-adjacency.  `train` and `ablate` read a flat key=value config file
with per-invocation `--set key=value` overrides (see README for the key
list); a key the run never reads is a configuration error.  The other
commands take the model and its precision from the checkpoint.
Exit codes: 0 ok, 2 configuration error, 3 data error, 4 numeric failure.
Training runs on one Python thread; evaluation spreads large samples over
as many threads as OpenBLAS has (`training.predict_logits`), in input
order, so every run is bit-reproducible for a fixed seed on hosts with the
same BLAS thread count.  `train` and `eval` log that count.  main() first
keeps freed heap memory mapped on glibc (`_keep_heap_mapped`), which saves
page faults and changes no result.
"""
from __future__ import annotations

import argparse
import csv
import ctypes
import json
import logging
import sys
from dataclasses import MISSING, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import precision
from .ablate import SUITES, ablate_suite
from .checkpoint import network_from_checkpoint
from .dataset import (
    KINDS,
    generate_synthetic,
    load_split,
    preprocess_skeleton_dir,
    write_dataset,
)
from .errors import ConfigError, DataError, NumericError, TegraphError
from .gradcheck import OP_CHECKS, check_all_ops
from .model import LayerSpec, ModelConfig, Network, backbone_config, fused_accuracy, fusion_weights
from .skeleton import MAX_BODIES, MOTION_RANGE
from .tensorio import save_tensor
from .training import TrainConfig, blas_threads, eval_workers, evaluate, score_streams, train

log = logging.getLogger("tegraph")


# ---------------------------------------------------------------------------
# Option handling


def parse_kv_file(path) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}")
    options: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: line {lineno}: expected key = value")
        key, value = line.split("=", 1)
        value = value.split("#", 1)[0].strip()
        if len(value) >= 2 and value[0] == value[-1] and value[0] in "\"'":
            value = value[1:-1]
        options[key.strip()] = value
    return options


class Options(dict):
    """Config options that remember every key a reader looked up with `in`."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.asked: set[str] = set()

    def __contains__(self, key) -> bool:
        self.asked.add(key)
        return super().__contains__(key)


def gather_options(args) -> Options:
    options = Options()
    if args.config:
        options.update(parse_kv_file(args.config))
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set needs key=value, got {item!r}")
        key, value = item.split("=", 1)
        options[key.strip()] = value.strip()
    return options


def _bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(text)


def _int_list(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(part) for part in text.split(","))


def parse_layer_specs(text: str) -> list[LayerSpec]:
    """Comma-separated in:out[:stride[:mode[:kernel]]] items: LayerSpec's fields
    in order, the ones an item leaves off at their defaults."""
    specs = fields(LayerSpec)
    required = sum(f.default is MISSING for f in specs)
    casts = get_type_hints(LayerSpec)
    layers = []
    for item in text.split(","):
        values = item.strip().split(":")
        if not required <= len(values) <= len(specs):
            raise ConfigError(f"layer spec {item!r} has {len(values)} fields; expected "
                              "in:out[:stride[:mode[:kernel]]]")
        try:
            args = [casts[f.name](value) for f, value in zip(specs, values)]
        except ValueError:
            raise ConfigError(f"bad layer spec {item!r}")
        layers.append(LayerSpec(*args))
    return layers


# Config keys named otherwise than their parameter; every other key names its own.
PARAMETER_OF = {"classes": "num_classes", "joints": "num_joints", "frames": "fixed_length",
                "bodies": "max_bodies", "lr": "learning_rate", "epochs": "total_epochs"}
# A value is parsed as its parameter's annotated type, by these where the type cannot.
PARSER_OF = {bool: _bool, tuple[int, ...]: _int_list}


def _set_keys(options, keys: str, target) -> dict:
    """Keyword arguments of `target` for the space-separated `keys` that are set,
    read in order; a key that is not set passes nothing, so `target`'s default applies."""
    hints = get_type_hints(target)
    kwargs = {}
    for key in [key for key in keys.split() if key in options]:
        name = PARAMETER_OF.get(key, key)
        parse = PARSER_OF.get(hints[name], hints[name])
        try:
            kwargs[name] = parse(options[key])
        except (TypeError, ValueError):
            raise ConfigError(f"config key {key}={options[key]!r} is not a valid {parse.__name__}")
    return kwargs


def model_config_from(options: dict[str, str]) -> ModelConfig:
    if "classes" not in options:
        raise ConfigError("config key 'classes' is required")
    common = _set_keys(options, "classes heads relevance seed", ModelConfig)
    if "layers" not in options:
        keys = "joints frames bodies insertion_layer insertion_mode replace_all graph"
        return backbone_config(**common, **_set_keys(options, keys, backbone_config))
    layers = parse_layer_specs(options["layers"])
    # ModelConfig requires joints and frames; a custom chain defaults to a small one.
    config = {"num_joints": 5, "fixed_length": 32, **common,
              **_set_keys(options, "joints frames bodies graph", ModelConfig)}
    if config.get("graph", ModelConfig.graph) == "chain":
        config |= _set_keys(options, "graph_center", ModelConfig)
    return ModelConfig(layers, **config)


def train_config_from(options: dict[str, str]) -> TrainConfig:
    keys = "lr decay_epochs decay_factor weight_decay batch_size epochs seed momentum"
    return TrainConfig(**_set_keys(options, keys, TrainConfig))


def run_configs(options: Options) -> tuple[ModelConfig, TrainConfig]:
    """Set the precision and build the model and training configs of a run.

    A key none of them read (a typo, or a key of the other model route)
    is a configuration error.
    """
    if "precision" in options:
        precision.set_mode(options["precision"])
    model_config = model_config_from(options)
    tconfig = train_config_from(options)
    unread = sorted(set(options) - options.asked)
    if unread:
        raise ConfigError(f"config keys not read by this run: {', '.join(unread)}")
    return model_config, tconfig


def log_blas(network: Network) -> None:
    """Log the BLAS, its thread count and the evaluation worker count.

    Capture-scale GEMMs round differently in the last bits on one and on two
    OpenBLAS threads, so two runs' bytes are comparable only when this line
    agrees.
    """
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        blas = {}
    threads = blas_threads()
    log.info("blas %s %s, %s threads; evaluation on %d worker(s)",
             blas.get("name", "unknown"), blas.get("version", "unknown"),
             "unknown" if threads is None else threads, eval_workers(network))


# ---------------------------------------------------------------------------
# Subcommands


def cmd_preprocess(args) -> int:
    if args.frames < 1:
        raise ConfigError(f"--frames must be at least 1, got {args.frames}")
    if args.bodies < 1:
        raise ConfigError(f"--bodies must be at least 1, got {args.bodies}")
    if not args.motion_lo < args.motion_hi:
        raise ConfigError(f"motion range is empty: [{args.motion_lo}, {args.motion_hi}]")
    source = Path(args.input)
    try:
        if source.is_dir():
            labeled, graph = preprocess_skeleton_dir(source, args.frames, args.split,
                                                     args.motion_lo, args.motion_hi, args.bodies)
        elif source.suffix == ".json":
            try:
                spec = json.loads(source.read_bytes())
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise DataError(f"{source}: bad JSON spec: {exc}")
            labeled, graph = generate_synthetic(spec)
        else:
            raise ConfigError(f"{source}: expected a directory of .skeleton files or a .json spec")
    except MemoryError as exc:
        raise ConfigError(f"the dataset does not fit in memory: {exc}")
    manifest = write_dataset(args.out, labeled, graph)
    print(f"wrote {len(labeled)} samples to {manifest}")
    return 0


def cmd_train(args) -> int:
    model_config, tconfig = run_configs(gather_options(args))
    train_set = load_split(args.data, args.modality, "train")
    eval_set = load_split(args.data, args.modality, "eval")
    network = Network(model_config)  # a model that cannot be built leaves no --out
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    log_blas(network)
    history = train(
        network, train_set, eval_set or None, tconfig,
        metrics_path=out_dir / "metrics.jsonl",
        checkpoint_path=out_dir / "checkpoint.tegc",
        best_path=(out_dir / "best.tegc") if eval_set else None,
    )
    last = history[-1] if history else None
    if last is not None:
        summary = f"final train acc {last.train_acc:.3f}"
        if last.eval_acc is not None:
            summary += f", eval acc {last.eval_acc:.3f}"
        print(summary)
    return 0


def cmd_eval(args) -> int:
    network, _, _ = network_from_checkpoint(args.checkpoint)
    dataset = load_split(args.data, args.modality, args.split)
    log_blas(network)
    result = evaluate(network, dataset)
    print(f"top-1 accuracy {result.accuracy:.4f} on {len(dataset)} samples")
    return 0


def cmd_fuse(args) -> int:
    streams = []
    for item in args.stream or []:
        if "=" not in item:
            raise ConfigError(f"--stream needs kind=checkpoint, got {item!r}")
        kind, ckpt = item.split("=", 1)
        kind = kind.strip()
        if kind not in KINDS:
            raise ConfigError(f"unknown modality kind {kind!r}; choose from {KINDS}")
        streams.append((kind, ckpt.strip()))
    if not streams:
        raise ConfigError("fusion needs at least one --stream kind=checkpoint")
    weights = fusion_weights(args.weights.split(","), len(streams)) if args.weights else None
    labels = None
    per_stream_scores = []
    for kind, ckpt in streams:
        network, _, _ = network_from_checkpoint(ckpt)
        dataset = load_split(args.data, kind, args.split)
        stream_labels = [label for _, label, *_ in dataset]
        if labels is None:
            labels = stream_labels
        elif labels != stream_labels:
            raise DataError("streams disagree on sample labels/order")
        per_stream_scores.append(score_streams(network, dataset))
    accuracy = fused_accuracy(per_stream_scores, labels, weights)
    print(f"fused top-1 accuracy {accuracy:.4f} on {len(labels)} samples")
    return 0


def cmd_gradcheck(args) -> int:
    precision.set_mode("verify")
    if args.op and args.op not in OP_CHECKS:
        raise ConfigError(f"unknown op {args.op!r}; choose from {sorted(OP_CHECKS)}")
    failed = False
    for name, result in check_all_ops(seed=args.seed, only=args.op):
        status = "ok" if result.ok else "FAIL"
        print(f"{name:20s} {status}  max rel err {result.max_rel_error:.3e} "
              f"({result.elements_checked} elements)")
        failed = failed or not result.ok
    if failed:
        raise NumericError("gradient check failed; see lines above")
    return 0


def cmd_ablate(args) -> int:
    config, tconfig = run_configs(gather_options(args))
    header, rows = ablate_suite(args.suite, args.data, config, tconfig, kind=args.modality)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="") as stream:
        writer = csv.writer(stream)
        writer.writerow(header)
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {out}")
    return 0


def cmd_dump_adjacency(args) -> int:
    network, _, _ = network_from_checkpoint(args.checkpoint)
    dataset = load_split(args.data, args.modality, args.split)
    if not 0 <= args.sample < len(dataset):
        raise ConfigError(f"sample index {args.sample} outside 0..{len(dataset) - 1}")
    network.set_training(False)
    collector: list[tuple[str, np.ndarray]] = []
    network.forward_sample(dataset[args.sample][0], collector=collector)
    if not collector:
        raise ConfigError("this model has no temporal-graph layers to dump")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, matrix in collector:
        path = out_dir / f"{name}.tegt"
        save_tensor(path, matrix)
        print(f"wrote {path} shape {matrix.shape}")
    return 0


# ---------------------------------------------------------------------------
# Wiring


def _keep_heap_mapped() -> None:
    """Keep freed heap memory mapped, so the next training step reuses it.

    A capture-scale step allocates and frees hundreds of MB of feature
    maps.  With glibc's defaults the freed heap top is returned to the OS
    after every step and page-faulted back in by the next one (about 70k
    minor faults per step).  A 1 GiB trim threshold keeps it; a fixed
    32 MiB mmap threshold keeps arrays below it in that heap.  One arena
    makes evaluation's worker threads allocate from that same heap too,
    instead of growing and faulting in an arena of their own each (+34 MB
    peak RSS in a 2-worker prototype).  Peak RSS does not grow: memory
    stays at the high-water mark it reached anyway.  No arithmetic
    changes.  Does nothing where the C library has no mallopt (non-glibc
    hosts).
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-1, 1 << 30)   # M_TRIM_THRESHOLD
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD, at glibc's 64-bit maximum
    mallopt(-8, 1)         # M_ARENA_MAX


def _add_option_flags(sub) -> None:
    sub.add_argument("--config", help="key=value options file")
    sub.add_argument("--set", action="append", metavar="KEY=VALUE",
                     help="override one config key (repeatable)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tegraph",
        description="Skeleton action recognition with temporal relation graphs",
    )
    parser.add_argument("--verbose", action="store_true", help="log at debug level")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("preprocess", help="build a dataset from captures or a synth spec")
    p.add_argument("input", help=".skeleton directory or synthetic .json spec")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--frames", type=int, default=300, help="fixed sequence length")
    p.add_argument("--split", default="train", help="split tag for captured files")
    p.add_argument("--motion-lo", type=float, default=MOTION_RANGE[0])
    p.add_argument("--motion-hi", type=float, default=MOTION_RANGE[1])
    p.add_argument("--bodies", type=int, default=MAX_BODIES)
    p.set_defaults(func=cmd_preprocess)

    p = commands.add_parser("train", help="train one modality stream")
    p.add_argument("--data", required=True, help="dataset manifest.jsonl")
    p.add_argument("--modality", default="joint-spatial", choices=KINDS)
    p.add_argument("--out", required=True, help="output directory for metrics/checkpoints")
    _add_option_flags(p)
    p.set_defaults(func=cmd_train)

    p = commands.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--modality", default="joint-spatial", choices=KINDS)
    p.add_argument("--split", default="eval")
    p.set_defaults(func=cmd_eval)

    p = commands.add_parser("fuse", help="weighted score fusion of modality checkpoints")
    p.add_argument("--data", required=True)
    p.add_argument("--stream", action="append", metavar="KIND=CHECKPOINT",
                   help="modality and its checkpoint (repeatable)")
    p.add_argument("--weights", help="comma-separated fusion weights")
    p.add_argument("--split", default="eval")
    p.set_defaults(func=cmd_fuse)

    p = commands.add_parser("gradcheck", help="finite-difference check of every op")
    p.add_argument("--op", help="check one op instead of all")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    p = commands.add_parser("ablate", help="run a comparison grid")
    p.add_argument("--suite", required=True, choices=SUITES)
    p.add_argument("--data", required=True)
    p.add_argument("--modality", choices=KINDS, help="heads/layer-placement stream")
    p.add_argument("--out", required=True, help="output CSV path")
    _add_option_flags(p)
    p.set_defaults(func=cmd_ablate)

    p = commands.add_parser("dump-adjacency", help="write temporal adjacency matrices")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--modality", default="joint-spatial", choices=KINDS)
    p.add_argument("--split", default="eval")
    p.add_argument("--sample", type=int, default=0, help="dataset index to inspect")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_dump_adjacency)

    return parser


def main(argv=None) -> int:
    _keep_heap_mapped()
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    except TegraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
