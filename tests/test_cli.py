"""End-to-end runs of every subcommand through main(argv)."""
import csv
import importlib.util
import json
import logging
import re
import shutil
import struct
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import format_skeleton
import tegraph.ablate
import tegraph.cli
import tegraph.dataset
import tegraph.training
from tegraph import precision
from tegraph.ablate import MODALITY_COMBOS
from tegraph.cli import (
    Options,
    build_parser,
    gather_options,
    main,
    model_config_from,
    parse_kv_file,
    parse_layer_specs,
    run_configs,
    train_config_from,
)
from tegraph.checkpoint import load_checkpoint
from tegraph.dataset import read_manifest
from tegraph.errors import ConfigError
from tegraph.skeleton import Body, RawClip
from tegraph.tensorio import save_tensor, write_tensor
from tegraph.training import blas_threads

SYNTH_SPEC = {
    "sets": [
        {"generator": "templates", "classes": 2, "samples_per_class": 3,
         "joints": 5, "frames": 8, "sigma": 0.05, "seed": 7,
         "split": "train", "prefix": "tr"},
        {"generator": "templates", "classes": 2, "samples_per_class": 2,
         "joints": 5, "frames": 8, "sigma": 0.05, "seed": 8,
         "split": "eval", "prefix": "ev"},
    ]
}

TRAIN_OPTIONS = [
    "--set", "classes=2",
    "--set", "layers=3:8:1:tc:3",
    "--set", "joints=5",
    "--set", "frames=8",
    "--set", "bodies=1",
    "--set", "epochs=2",
    "--set", "lr=0.05",
    "--set", "decay_epochs=",
    "--set", "weight_decay=0",
    "--set", "batch_size=2",
    "--set", "seed=0",
]


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("dataset")
    spec = root / "spec.json"
    spec.write_text(json.dumps(SYNTH_SPEC))
    out = root / "data"
    assert main(["preprocess", str(spec), "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, dataset_dir):
    out = tmp_path_factory.mktemp("run")
    code = main(["train", "--data", str(dataset_dir / "manifest.jsonl"),
                 "--out", str(out), *TRAIN_OPTIONS])
    assert code == 0
    return out


# ---------------------------------------------------------------------------
# Option plumbing


def test_parse_kv_file_handles_comments_and_quotes(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text(
        "# a comment\n"
        "lr = 0.05\n"
        "\n"
        "layers=3:8:1:tc:3  # inline note\n"
        "name = \"quoted value\"\n"
    )
    assert parse_kv_file(path) == {
        "lr": "0.05", "layers": "3:8:1:tc:3", "name": "quoted value",
    }


def test_parse_kv_file_reports_bad_line(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text("lr = 0.05\nnot a pair\n")
    with pytest.raises(ConfigError, match="line 2"):
        parse_kv_file(path)


def test_set_overrides_config_file(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text("lr = 0.05\nepochs = 10\n")
    args = SimpleNamespace(config=str(path), set=["lr=0.2", "seed=3"])
    assert gather_options(args) == {"lr": "0.2", "epochs": "10", "seed": "3"}
    with pytest.raises(ConfigError, match="key=value"):
        gather_options(SimpleNamespace(config=None, set=["oops"]))


def test_parse_layer_specs_variants():
    specs = parse_layer_specs("3:64, 64:64:2, 64:128:1:both:5")
    assert [(s.in_channels, s.out_channels, s.stride, s.mode, s.kernel_t)
            for s in specs] == [
        (3, 64, 1, "tc", 9), (64, 64, 2, "tc", 9), (64, 128, 1, "both", 5),
    ]
    with pytest.raises(ConfigError, match="in:out"):
        parse_layer_specs("3")
    with pytest.raises(ConfigError, match="bad layer spec"):
        parse_layer_specs("a:b")
    with pytest.raises(ConfigError, match="temporal mode"):
        parse_layer_specs("3:4:1:conv")
    with pytest.raises(ConfigError, match="'3:8:1:tc:3:junk' has 6 fields"):
        parse_layer_specs("3:64,3:8:1:tc:3:junk")


def test_train_layer_spec_with_a_sixth_field_is_config_error(tmp_path, dataset_dir, capsys):
    out = tmp_path / "run"
    code = main(["train", "--data", str(dataset_dir / "manifest.jsonl"),
                 "--out", str(out), *TRAIN_OPTIONS, "--set", "layers=3:8:1:tc:3:junk"])
    assert code == 2
    assert "'3:8:1:tc:3:junk' has 6 fields" in capsys.readouterr().err
    assert not out.exists()


def test_model_config_from_custom_layers():
    config = model_config_from({
        "classes": "2", "layers": "3:8:1:tc:3,8:8:2:tc:3",
        "joints": "5", "frames": "16", "heads": "2",
    })
    assert len(config.layers) == 2 and config.num_joints == 5
    assert config.fixed_length == 16 and config.heads == 2
    assert config.graph == "chain"


def test_model_config_from_defaults_to_backbone():
    config = model_config_from({"classes": "60"})
    assert len(config.layers) == 9
    assert config.num_joints == 25 and config.graph == "ntu"
    replaced = model_config_from({"classes": "60", "replace_all": "true"})
    assert sum(1 for s in replaced.layers if s.mode == "tgraph") == 7


def test_model_config_requires_classes():
    with pytest.raises(ConfigError, match="classes"):
        model_config_from({"layers": "3:8"})


def test_train_config_from_options():
    config = train_config_from({
        "lr": "0.2", "decay_epochs": "10,20", "epochs": "30",
        "batch_size": "4", "momentum": "0.8", "weight_decay": "0",
    })
    assert config.learning_rate == 0.2
    assert config.decay_epochs == (10, 20)
    assert config.total_epochs == 30 and config.batch_size == 4
    assert config.momentum == 0.8 and config.weight_decay == 0.0
    assert train_config_from({"decay_epochs": ""}).decay_epochs == ()
    with pytest.raises(ConfigError, match="not a valid"):
        train_config_from({"epochs": "many"})


def accepted_keys() -> set[str]:
    """Every key `train` reads, over both model routes."""
    keys = set()
    for route in ({"classes": "2"}, {"classes": "2", "layers": "3:4"}):
        options = Options(route)
        run_configs(options)
        keys |= options.asked
    return keys


def test_readme_key_tables_list_exactly_the_keys_train_reads():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration keys", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"^\| `(\w+)` \|", section, flags=re.MULTILINE))
    assert documented == accepted_keys()


def readme_key_rows() -> list[tuple[str, str, str]]:
    """(key, default, meaning) of every row of README's configuration key tables."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration keys", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `(\w+)` \| (.+?) \| (.+?) \|$", section, flags=re.MULTILINE)


@pytest.mark.parametrize("route", [{}, {"layers": "3:4"}], ids=["backbone", "layers"])
def test_readme_defaults_are_the_defaults_run_configs_resolves(route):
    """Setting every default README lists changes nothing against `classes` alone."""
    with_layers = "layers" in route
    explicit = {"classes": "2", **route}
    for key, default, meaning in readme_key_rows():
        if default in ("required", "full backbone") or (
                "only" in meaning and with_layers == ("without `layers`" in meaning)):
            continue
        plain, on_layers = re.fullmatch(r"(.*?)(?: \((.*) with layers\))?",
                                        default.replace("`", "")).groups()
        explicit[key] = on_layers if with_layers and on_layers else plain
    spec = importlib.util.find_spec("tegraph.precision")
    fresh = importlib.util.module_from_spec(spec)  # the precision a new process starts in
    spec.loader.exec_module(fresh)
    implicit = Options({"classes": "2", **route})
    defaults = (*run_configs(implicit), fresh.mode())
    assert set(explicit) | {"layers"} == implicit.asked  # every key the route reads is set
    assert (*run_configs(Options(explicit)), precision.mode()) == defaults


@pytest.mark.parametrize("options,unread", [
    ({"classes": "2", "lerning_rate": "99"}, "lerning_rate"),
    ({"classes": "2", "layers": "3:4", "replace_all": "true", "insertion_layer": "42",
      "insertion_mode": "tc"}, "insertion_layer, insertion_mode, replace_all"),
    ({"classes": "2", "graph": "chain", "graph_center": "1"}, "graph_center"),
    ({"classes": "2", "layers": "3:4", "joints": "25", "graph": "ntu", "graph_center": "7"},
     "graph_center"),
])
def test_run_configs_rejects_keys_the_run_never_reads(options, unread):
    with pytest.raises(ConfigError, match=f"not read by this run: {unread}$"):
        run_configs(Options(options))


@pytest.mark.parametrize("argv", [
    ["train", "--data", "m", "--out", "o", "--single-thread"],
    ["ablate", "--suite", "heads", "--data", "m", "--out", "o", "--single-thread"],
    ["preprocess", "spec.json", "--out", "o", "--single-thread"],
    ["eval", "--checkpoint", "c", "--data", "m", "--set", "k=v"],
    ["eval", "--checkpoint", "c", "--data", "m", "--config", "run.conf"],
    ["fuse", "--data", "m", "--set", "precision=train"],
    ["dump-adjacency", "--checkpoint", "c", "--data", "m", "--out", "o", "--set", "k=v"],
])
def test_parser_rejects_options_a_subcommand_does_not_use(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_parser_argument_count():
    parser = build_parser()
    subparsers = next(a for a in parser._actions if a.dest == "command").choices
    counts = {name: sum(1 for a in sub._actions if a.dest != "help")
              for name, sub in subparsers.items()}
    assert counts == {"preprocess": 7, "train": 5, "eval": 4, "fuse": 4, "gradcheck": 2,
                      "ablate": 6, "dump-adjacency": 6}


# ---------------------------------------------------------------------------
# preprocess


def test_preprocess_synthetic_spec(dataset_dir):
    records = read_manifest(dataset_dir / "manifest.jsonl")
    assert len(records) == 10
    splits = {r["split"] for r in records}
    assert splits == {"train", "eval"}
    for rec in records:
        assert set(rec["files"]) == {
            "joint-spatial", "bone-spatial", "joint-motion", "bone-motion",
        }
        for rel in rec["files"].values():
            assert (dataset_dir / rel).exists()


def capture_text(delta, num_joints=25):
    """Two-frame single-body capture; joint 0 moves delta on x."""
    frames = []
    for t in range(2):
        joints = np.zeros((num_joints, 3))
        joints[0, 0] = t * delta
        frames.append([Body("7205759403793", joints)])
    return format_skeleton(RawClip(frames))


def test_preprocess_capture_directory(tmp_path, capsys):
    src = tmp_path / "captures"
    src.mkdir()
    (src / "S001C001P001R001A001.skeleton").write_text(capture_text(2.0))
    (src / "S001C001P001R001A002.skeleton").write_text(capture_text(1.0))
    out = tmp_path / "data"
    code = main(["preprocess", str(src), "--out", str(out), "--frames", "4"])
    assert code == 0
    assert "wrote 2 samples" in capsys.readouterr().out
    records = read_manifest(out / "manifest.jsonl")
    assert sorted(r["label"] for r in records) == [0, 1]


def test_preprocess_capture_with_action_tag_zero_is_data_error(tmp_path, capsys):
    src = tmp_path / "captures"
    src.mkdir()
    (src / "S001C001P001R001A000.skeleton").write_text(capture_text(2.0))
    out = tmp_path / "data"
    assert main(["preprocess", str(src), "--out", str(out), "--frames", "4"]) == 3
    err = capsys.readouterr().err
    assert "S001C001P001R001A000.skeleton: no A001-A999 action tag" in err
    assert not out.exists()


def test_preprocess_names_the_capture_whose_joint_count_is_not_the_rig_s(tmp_path, capsys):
    src = tmp_path / "captures"
    src.mkdir()
    (src / "S001C001P001R001A001.skeleton").write_text(capture_text(2.0, num_joints=20))
    out = tmp_path / "data"
    assert main(["preprocess", str(src), "--out", str(out), "--frames", "4",
                 "--motion-hi", "1000"]) == 3
    err = capsys.readouterr().err
    assert "S001C001P001R001A001.skeleton: frame 0 body 0 has 20 joints, expected 25" in err
    assert not out.exists()


def test_preprocess_rejects_odd_input(tmp_path):
    stray = tmp_path / "notes.txt"
    stray.write_text("hello")
    out = tmp_path / "data"
    assert main(["preprocess", str(stray), "--out", str(out)]) == 2


@pytest.mark.parametrize("text,code,message", [
    ('{"sets": [', 3, "bad JSON spec"),
    ('[{"generator": "templates"}]', 3, "spec is not a JSON object"),
    ('{"joints": "x"}', 2, "field 'joints' = 'x'"),
    ('{"sets": [{"sigma": "nan"}]}', 2, "field 'sigma' = 'nan'"),
    ('{"sets": [{"frames": -3}]}', 2, "field 'frames' = -3"),
    ('{"sets": [{"frames": 7.9}]}', 2, "field 'frames' = 7.9"),
    ('{"joints": true}', 2, "field 'joints' = True"),
    ('{"sets": [7]}', 2, "set 0 is not an object"),
    ('{"sets": []}', 2, "field 'sets'"),
])
def test_preprocess_malformed_spec(tmp_path, capsys, text, code, message):
    spec = tmp_path / "spec.json"
    spec.write_text(text)
    assert main(["preprocess", str(spec), "--out", str(tmp_path / "data")]) == code
    assert message in capsys.readouterr().err


NOT_UTF8 = b"\xff\xfe not text \x80\n"


def test_preprocess_spec_that_is_not_utf8_is_data_error(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_bytes(NOT_UTF8)
    assert main(["preprocess", str(spec), "--out", str(tmp_path / "data")]) == 3
    assert "spec.json: bad JSON spec" in capsys.readouterr().err


def test_preprocess_capture_that_is_not_utf8_is_data_error(tmp_path, capsys):
    src = tmp_path / "captures"
    src.mkdir()
    (src / "S001C001P001R001A001.skeleton").write_bytes(NOT_UTF8)
    assert main(["preprocess", str(src), "--out", str(tmp_path / "data")]) == 3
    assert "S001C001P001R001A001.skeleton: not UTF-8 text" in capsys.readouterr().err


@pytest.mark.parametrize("field,value", [
    ("prefix", "../../outside"),
    ("prefix", "a/b"),
    ("prefix", "a\\b"),
    ("prefix", ".."),
    ("prefix", ""),
    ("prefix", "a\u0000b"),
    ("split", "../outside"),
])
def test_preprocess_stream_name_that_is_not_a_file_name_is_config_error(tmp_path, capsys,
                                                                       field, value):
    block = {k: v for k, v in SYNTH_SPEC["sets"][0].items() if k != "prefix"}
    spec = tmp_path / "spec" / "spec.json"
    spec.parent.mkdir()
    spec.write_text(json.dumps({"sets": [dict(block, **{field: value})]}))
    out = tmp_path / "spec" / "data"
    assert main(["preprocess", str(spec), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"set 0 {field} {value!r} names stream files" in err and "Traceback" not in err
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == [spec]  # nothing written


def test_preprocess_spec_too_large_to_allocate_is_config_error(tmp_path, capsys):
    # 10^15 frames ask for 107 PiB, more than any 64-bit user address space
    # holds, so the allocation fails at once whatever the overcommit policy.
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"generator": "templates", "frames": 10 ** 15}))
    out = tmp_path / "data"
    assert main(["preprocess", str(spec), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "the dataset does not fit in memory: Unable to allocate 107. PiB" in err
    assert "Traceback" not in err and not out.exists()


def test_preprocess_capture_too_long_to_allocate_is_config_error(tmp_path, capsys):
    src = tmp_path / "captures"
    src.mkdir()
    (src / "S001C001P001R001A001.skeleton").write_text(capture_text(1.0))
    out = tmp_path / "data"
    code = main(["preprocess", str(src), "--out", str(out), "--frames", str(10 ** 15)])
    assert code == 2
    err = capsys.readouterr().err
    assert "the dataset does not fit in memory" in err and "Traceback" not in err
    assert not out.exists()


def test_preprocess_non_finite_stream_is_data_error(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"generator": "longrange", "sigma": 1e308,
                                "samples_per_class": 1}))
    out = tmp_path / "data"
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["preprocess", str(spec), "--out", str(out)]) == 3
    assert ("sample train-longrange-c0-s0: non-finite values in its joint-spatial stream"
            in capsys.readouterr().err)
    assert not (out / "manifest.jsonl").exists()


def dataset_files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


TEMPLATES_SET = {"generator": "templates", "classes": 2, "samples_per_class": 2,
                 "joints": 5, "frames": 32, "seed": 7}


@pytest.mark.parametrize("second,message", [
    ({"generator": "longrange", "samples_per_class": 1, "joints": 5, "frames": 32,
      "sigma": 1e308, "split": "eval"},
     "data error: sample eval-longrange-c0-s0: non-finite values in its joint-spatial stream"),
    (dict(TEMPLATES_SET, seed=8), "data error: duplicate sample id train-synth-c0-s0"),
], ids=["non-finite", "duplicate-id"])
@pytest.mark.parametrize("existing", [False, True], ids=["new-out", "existing-out"])
def test_preprocess_refused_sample_writes_nothing(tmp_path, dataset_dir, capsys, second,
                                                  message, existing):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"sets": [TEMPLATES_SET, second]}))
    out = tmp_path / "data"
    if existing:
        shutil.copytree(dataset_dir, out)
    before = dataset_files(out) if existing else None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["preprocess", str(spec), "--out", str(out)]) == 3
    assert not caught  # no numpy RuntimeWarning from deriving the streams
    assert capsys.readouterr().err == message + "\n"
    if existing:
        assert dataset_files(out) == before
    else:
        assert not out.exists()


@pytest.mark.parametrize("flags,message", [
    (["--frames", "0"], "--frames must be at least 1, got 0"),
    (["--frames", "-3"], "--frames must be at least 1, got -3"),
    (["--motion-lo", "nan"], "motion range is empty: [nan, 2.0]"),
    (["--motion-lo", "5", "--motion-hi", "1"], "motion range is empty: [5.0, 1.0]"),
    (["--motion-hi", "nan"], "motion range is empty: [0.1, nan]"),
    (["--bodies", "0"], "--bodies must be at least 1, got 0"),
    (["--bodies", "-1"], "--bodies must be at least 1, got -1"),
])
@pytest.mark.parametrize("kind", ["captures", "spec"])
def test_preprocess_bad_flag_is_config_error_before_any_file_is_read(tmp_path, capsys, flags,
                                                                     message, kind):
    if kind == "captures":  # both inputs are data errors once read
        source = tmp_path / "captures"
        source.mkdir()
        (source / "S001C001P001R001A001.skeleton").write_bytes(NOT_UTF8)
    else:
        source = tmp_path / "spec.json"
        source.write_text('{"sets": [')
    out = tmp_path / "data"
    assert main(["preprocess", str(source), "--out", str(out), *flags]) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not out.exists()


def test_preprocess_motion_range_may_be_unbounded_above(tmp_path):
    src = tmp_path / "captures"
    src.mkdir()
    (src / "S001C001P001R001A001.skeleton").write_text(capture_text(2.0))
    out = tmp_path / "data"
    assert main(["preprocess", str(src), "--out", str(out), "--frames", "4",
                 "--motion-hi", "inf"]) == 0
    assert len(read_manifest(out / "manifest.jsonl")) == 1


# ---------------------------------------------------------------------------
# train / eval / fuse


def test_train_outputs(trained_dir, capsys):
    lines = (trained_dir / "metrics.jsonl").read_text().splitlines()
    assert len(lines) == 2
    record = json.loads(lines[-1])
    assert set(record) == {"epoch", "lr", "train_loss", "train_acc", "eval_acc"}
    assert (trained_dir / "checkpoint.tegc").exists()
    assert (trained_dir / "best.tegc").exists()


def test_train_is_byte_reproducible(tmp_path, dataset_dir):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(["train", "--data", str(dataset_dir / "manifest.jsonl"),
                     "--out", str(out), *TRAIN_OPTIONS])
        assert code == 0
        outs.append(out)
    for artifact in ("metrics.jsonl", "checkpoint.tegc", "best.tegc"):
        a = (outs[0] / artifact).read_bytes()
        b = (outs[1] / artifact).read_bytes()
        assert a == b, f"{artifact} differs between identical runs"


def test_train_requires_classes(tmp_path, dataset_dir):
    code = main(["train", "--data", str(dataset_dir / "manifest.jsonl"),
                 "--out", str(tmp_path / "out")])
    assert code == 2


def test_train_reports_divergence_as_numeric_failure(tmp_path, dataset_dir):
    # batchnorm keeps moderate blow-ups finite, so overshoot hard enough
    # that the very next variance computation overflows float64
    options = [o if o != "lr=0.05" else "lr=1e200" for o in TRAIN_OPTIONS]
    options = [o if o != "epochs=2" else "epochs=1" for o in options]
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["train", "--data", str(dataset_dir / "manifest.jsonl"),
                     "--out", str(tmp_path / "out"), *options])
    assert code == 4


def test_eval_prints_accuracy(trained_dir, dataset_dir, capsys):
    code = main(["eval", "--checkpoint", str(trained_dir / "checkpoint.tegc"),
                 "--data", str(dataset_dir / "manifest.jsonl"),
                 "--split", "eval"])
    assert code == 0
    out = capsys.readouterr().out
    assert "top-1 accuracy" in out and "on 4 samples" in out


def test_eval_missing_manifest_is_data_error(trained_dir, tmp_path):
    code = main(["eval", "--checkpoint", str(trained_dir / "checkpoint.tegc"),
                 "--data", str(tmp_path / "nowhere" / "manifest.jsonl")])
    assert code == 3


def test_eval_missing_checkpoint_is_data_error(dataset_dir, tmp_path, capsys):
    code = main(["eval", "--checkpoint", str(tmp_path / "missing.tegc"),
                 "--data", str(dataset_dir / "manifest.jsonl")])
    assert code == 3
    assert "missing.tegc" in capsys.readouterr().err


def write_checkpoint_manifest(path, manifest):
    blob = json.dumps(manifest).encode()
    path.write_bytes(struct.pack("<I", len(blob)) + blob)
    return path


@pytest.mark.parametrize("manifest,message", [
    (["tegraph-checkpoint"], "not a checkpoint file"),
    ({"format": "tegraph-checkpoint", "version": 1}, "no entries"),
    ({"format": "tegraph-checkpoint", "entries": [{"id": "w", "shape": [2]}]},
     "entry 0 needs"),
    ({"format": "tegraph-checkpoint", "entries": [{"kind": "param", "shape": [2]}]},
     "entry 0 needs"),
    ({"format": "tegraph-checkpoint", "entries": [{"id": "w", "kind": "param"}]},
     "entry 0 needs"),
])
def test_eval_malformed_checkpoint_manifest_is_data_error(dataset_dir, tmp_path, capsys,
                                                          manifest, message):
    path = write_checkpoint_manifest(tmp_path / "bad.tegc", manifest)
    code = main(["eval", "--checkpoint", str(path),
                 "--data", str(dataset_dir / "manifest.jsonl")])
    assert code == 3
    assert message in capsys.readouterr().err


CONFIG = {"layers": [[3, 8, 1, "tc", 3]], "num_classes": 2, "num_joints": 5,
          "fixed_length": 8, "max_bodies": 1, "heads": 4, "relevance": "feature-calculated",
          "graph": "chain", "graph_center": 0, "seed": 0}


@pytest.mark.parametrize("extra,message", [
    ({}, "no config object"),
    ({"config": [1, 2]}, "no config object"),
    ({"config": {k: v for k, v in CONFIG.items() if k != "layers"}}, "bad checkpoint config"),
    ({"config": dict(CONFIG, layers=5)}, "bad checkpoint config"),
    ({"config": dict(CONFIG, layers=[[3, 8]])}, "bad checkpoint config"),
    ({"config": dict(CONFIG, layers=[["three", 8, 1, "tc", 3]])}, "bad checkpoint config"),
    ({"config": dict(CONFIG, layers=[[3, 8, 1, "sideways", 3]])}, "bad checkpoint config"),
    ({"config": dict(CONFIG, graph="ntu")}, "bad checkpoint config"),
    ({"config": {k: v for k, v in CONFIG.items() if k != "heads"}}, "KeyError('heads')"),
    ({"config": dict(CONFIG, num_classes=float("inf"))}, "bad checkpoint config"),
    ({"config": dict(CONFIG, seed=float("inf"))}, "bad checkpoint config"),
    ({"config": dict(CONFIG, heads=float("-inf"))}, "bad checkpoint config"),
])
def test_eval_malformed_checkpoint_config_is_data_error(dataset_dir, tmp_path, capsys,
                                                        extra, message):
    manifest = {"format": "tegraph-checkpoint", "entries": [], **extra}
    path = write_checkpoint_manifest(tmp_path / "bad.tegc", manifest)
    code = main(["eval", "--checkpoint", str(path),
                 "--data", str(dataset_dir / "manifest.jsonl")])
    assert code == 3
    assert message in capsys.readouterr().err


def rewrite_checkpoint(source, path, edit):
    """Copy a checkpoint with `edit(manifest, tensors)` applied to its contents."""
    manifest, tensors = load_checkpoint(source)
    edit(manifest, tensors)
    blob = json.dumps(manifest).encode()
    with open(path, "wb") as stream:
        stream.write(struct.pack("<I", len(blob)) + blob)
        for entry in manifest["entries"]:
            write_tensor(stream, tensors[(entry["id"], entry["kind"])])
    return path


def reshape_entry(entry_id, shape):
    def edit(manifest, tensors):
        for entry in manifest["entries"]:
            if entry["id"] == entry_id and entry["kind"] != "momentum":
                entry["shape"] = list(shape)
                tensors[(entry_id, entry["kind"])] = np.zeros(shape)
    return edit


@pytest.mark.parametrize("entry_id,shape", [
    ("layer1.tc.bn.running_mean", (7,)),
    ("fc.weight", (5, 5)),
])
def test_eval_misshapen_checkpoint_entry_is_data_error(trained_dir, dataset_dir, tmp_path,
                                                       capsys, entry_id, shape):
    path = rewrite_checkpoint(trained_dir / "checkpoint.tegc", tmp_path / "bad.tegc",
                              reshape_entry(entry_id, shape))
    code = main(["eval", "--checkpoint", str(path),
                 "--data", str(dataset_dir / "manifest.jsonl")])
    assert code == 3
    err = capsys.readouterr().err
    assert f"{entry_id}: " in err and str(shape) in err and "Traceback" not in err


def test_eval_checkpoint_with_a_corrupted_entry_id_is_data_error(trained_dir, dataset_dir,
                                                                 tmp_path, capsys):
    blob = (trained_dir / "checkpoint.tegc").read_bytes()
    assert b'"fc.bias"' in blob
    path = tmp_path / "bad.tegc"
    path.write_bytes(blob.replace(b'"fc.bias"', b'"fc.bibs"', 1))
    code = main(["eval", "--checkpoint", str(path),
                 "--data", str(dataset_dir / "manifest.jsonl")])
    assert code == 3
    err = capsys.readouterr().err
    assert "missing parameter fc.bias" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["train", "eval"])
def test_train_and_eval_log_the_blas_and_worker_count(trained_dir, dataset_dir, tmp_path,
                                                      caplog, command):
    data = str(dataset_dir / "manifest.jsonl")
    if command == "train":
        argv = ["train", "--data", data, "--out", str(tmp_path / "run"), *TRAIN_OPTIONS]
    else:
        argv = ["eval", "--checkpoint", str(trained_dir / "checkpoint.tegc"), "--data", data]
    with caplog.at_level(logging.INFO, logger="tegraph"):
        assert main(argv) == 0
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("blas ")]
    assert len(lines) == 1
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = blas_threads()
    assert lines[0] == (f"blas {blas['name']} {blas['version']}, "
                        f"{'unknown' if threads is None else threads} threads; "
                        "evaluation on 1 worker(s)")
    if command == "train":
        metrics = (tmp_path / "run" / "metrics.jsonl").read_text()
        assert metrics == (trained_dir / "metrics.jsonl").read_text()


@pytest.mark.parametrize("line,message", [
    ('{"label": 0, "sample_id": "a", "files": {"joint-spatial": "a.tegt"}}',
     "line 1: manifest line lacks split"),
    ('["train", 0]', "line 1: manifest line is not a JSON object"),
    ('{"split": "train", "files": {}}', "line 1: manifest line lacks label, sample_id"),
    ('{"split": 1, "label": 0, "sample_id": "a", "files": {}}',
     "line 1: split 1 is not a string"),
    ('{"split": "train", "label": 0, "sample_id": null, "files": {}}',
     "line 1: sample_id None is not a string"),
    ('{"split": "train", "label": "x", "sample_id": "a", "files": {}}',
     "line 1: label 'x' is not an integer"),
    ('{"split": "train", "label": -1, "sample_id": "a", "files": {}}',
     "manifest.jsonl: line 1: label -1 is negative"),
    ('{"split": "train", "label": 0, "sample_id": "a", "files": ["a.tegt"]}',
     "line 1: files must map"),
    ('{"split": "train", "label": 0, "sample_id": "a", "files": {"joint-spatial": "a\\u0000"}}',
     "line 1: stream path 'a\\x00' holds a NUL byte"),
])
def test_train_malformed_manifest_is_data_error(tmp_path, capsys, line, message):
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text(line + "\n")
    code = main(["train", "--data", str(manifest), "--out", str(tmp_path / "run"),
                 *TRAIN_OPTIONS])
    assert code == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("path", ["{outside}", "../outside.tegt",
                                  "streams/../../outside.tegt"])
def test_manifest_stream_path_outside_the_dataset_is_data_error(tmp_path, dataset_dir, capsys,
                                                                path):
    data = tmp_path / "data"
    shutil.copytree(dataset_dir / "streams", data / "streams")
    first, second, *rest = (dataset_dir / "manifest.jsonl").read_text().splitlines()
    record = json.loads(second)
    outside = tmp_path / "outside.tegt"  # a readable stream, so only the check refuses it
    outside.write_bytes((data / record["files"]["joint-spatial"]).read_bytes())
    path = path.format(outside=outside)
    record["files"]["joint-spatial"] = path
    manifest = data / "manifest.jsonl"
    manifest.write_text("\n".join([first, json.dumps(record), *rest]) + "\n")
    code = main(["train", "--data", str(manifest), "--out", str(tmp_path / "run"),
                 *TRAIN_OPTIONS])
    assert code == 3
    err = capsys.readouterr().err
    assert f"manifest.jsonl: line 2: stream path {path!r} leaves the dataset directory" in err


def test_train_manifest_that_is_not_utf8_is_data_error(tmp_path, capsys):
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_bytes(NOT_UTF8)
    code = main(["train", "--data", str(manifest), "--out", str(tmp_path / "run"),
                 *TRAIN_OPTIONS])
    assert code == 3
    assert "manifest.jsonl: not UTF-8 text" in capsys.readouterr().err


def test_train_config_file_that_is_not_utf8_is_config_error(tmp_path, dataset_dir, capsys):
    config = tmp_path / "run.conf"
    config.write_bytes(NOT_UTF8)
    code = main(["train", "--data", str(dataset_dir / "manifest.jsonl"),
                 "--out", str(tmp_path / "run"), "--config", str(config)])
    assert code == 2
    assert "run.conf: not UTF-8 text" in capsys.readouterr().err


def test_train_unknown_precision_is_config_error(tmp_path, dataset_dir, capsys):
    out = tmp_path / "run"
    code = main(["train", "--data", str(dataset_dir / "manifest.jsonl"),
                 "--out", str(out), *TRAIN_OPTIONS, "--set", "precision=foo"])
    assert code == 2
    assert "unknown precision mode 'foo'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("extra,unread", [
    (["--set", "lerning_rate=99"], "lerning_rate"),
    (["--set", "replace_all=true"], "replace_all"),
])
def test_train_unread_key_is_config_error_before_any_work(tmp_path, dataset_dir, capsys,
                                                          extra, unread):
    out = tmp_path / "run"
    code = main(["train", "--data", str(dataset_dir / "manifest.jsonl"),
                 "--out", str(out), *TRAIN_OPTIONS, *extra])
    assert code == 2
    assert f"config keys not read by this run: {unread}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("split", ["train", "eval"])
def test_train_on_a_sample_the_model_does_not_take_is_config_error_before_any_output(
        tmp_path, dataset_dir, capsys, split):
    data = tmp_path / "data"
    shutil.copytree(dataset_dir, data)
    record = next(r for r in read_manifest(data / "manifest.jsonl") if r["split"] == split)
    save_tensor(data / record["files"]["joint-spatial"], np.zeros((3, 6, 5, 1)))
    out = tmp_path / "run"
    out.mkdir()
    earlier = b'{"epoch": 0}\n'
    (out / "metrics.jsonl").write_bytes(earlier)
    code = main(["train", "--data", str(data / "manifest.jsonl"), "--out", str(out),
                 *TRAIN_OPTIONS])
    assert code == 2
    assert (out / "metrics.jsonl").read_bytes() == earlier
    assert [path.name for path in out.iterdir()] == ["metrics.jsonl"]
    assert (f"configuration error: sample {record['sample_id']} has shape (3, 6, 5, 1), "
            "the model takes (3, 8, 5, 1)") in capsys.readouterr().err


def test_label_outside_the_model_is_config_error_in_train_and_eval(tmp_path, trained_dir,
                                                                  capsys):
    spec = json.loads(json.dumps(SYNTH_SPEC))
    spec["sets"][1]["classes"] = 3  # the eval split has a class the 2-class model lacks
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    data = tmp_path / "data"
    assert main(["preprocess", str(tmp_path / "spec.json"), "--out", str(data)]) == 0
    record = next(r for r in read_manifest(data / "manifest.jsonl") if r["label"] == 2)
    message = (f"configuration error: label 2 of sample {record['sample_id']} outside the "
               "model's 2 classes")
    out = tmp_path / "run"
    out.mkdir()
    earlier = b'{"epoch": 0}\n'
    (out / "metrics.jsonl").write_bytes(earlier)
    capsys.readouterr()
    code = main(["train", "--data", str(data / "manifest.jsonl"), "--out", str(out),
                 *TRAIN_OPTIONS])
    assert code == 2
    assert (out / "metrics.jsonl").read_bytes() == earlier
    assert [path.name for path in out.iterdir()] == ["metrics.jsonl"]
    assert message in capsys.readouterr().err
    code = main(["eval", "--checkpoint", str(trained_dir / "checkpoint.tegc"),
                 "--data", str(data / "manifest.jsonl")])
    assert code == 2
    assert message in capsys.readouterr().err


def test_ablate_unread_key_is_config_error(tmp_path, dataset_dir, capsys):
    out = tmp_path / "table" / "heads.csv"
    code = main(["ablate", "--suite", "heads", "--data", str(dataset_dir / "manifest.jsonl"),
                 "--out", str(out), *TRAIN_OPTIONS, "--set", "insertion_layer=2"])
    assert code == 2
    assert "config keys not read by this run: insertion_layer" in capsys.readouterr().err
    assert not out.parent.exists()


@pytest.mark.parametrize("command,out", [("train", "run"), ("ablate", "table/heads.csv")])
def test_negative_seed_is_config_error_before_any_output(tmp_path, dataset_dir, capsys,
                                                         command, out):
    suite = ["--suite", "heads"] if command == "ablate" else []
    code = main([command, *suite, "--data", str(dataset_dir / "manifest.jsonl"),
                 "--out", str(tmp_path / out), *TRAIN_OPTIONS, "--set", "seed=-1"])
    assert code == 2
    err = capsys.readouterr().err
    assert "configuration error: seed must be nonnegative, got -1" in err
    assert "Traceback" not in err
    assert not (tmp_path / out.split("/")[0]).exists()


@pytest.mark.parametrize("command,out", [("train", "run"), ("ablate", "table/heads.csv")])
def test_graph_center_of_an_ntu_graph_is_config_error_before_any_output(
        tmp_path, dataset_dir, capsys, command, out):
    # The ntu graph is always centered at joint 20, so a graph_center beside it
    # would be stored in the config and the checkpoint without taking effect.
    suite = ["--suite", "heads"] if command == "ablate" else []
    code = main([command, *suite, "--data", str(dataset_dir / "manifest.jsonl"),
                 "--out", str(tmp_path / out), *TRAIN_OPTIONS, "--set", "joints=25",
                 "--set", "graph=ntu", "--set", "graph_center=7"])
    assert code == 2
    err = capsys.readouterr().err
    assert "config keys not read by this run: graph_center" in err
    assert "Traceback" not in err
    assert not (tmp_path / out.split("/")[0]).exists()


IMPOSSIBLE_SIZES = [
    ("layers", "3:8:1:tc:-1", "temporal kernel size must be at least 1, got -1"),
    ("joints", "0", "num_joints must be at least 1, got 0"),
    ("frames", "0", "fixed_length must be at least 1, got 0"),
    ("bodies", "-2", "max_bodies must be at least 1, got -2"),
    ("graph_center", "5", "graph_center 5 outside the chain graph's joints 0..4"),
]


@pytest.mark.parametrize("key,value,message", IMPOSSIBLE_SIZES)
def test_train_impossible_size_is_config_error(tmp_path, dataset_dir, capsys, key, value,
                                               message):
    out = tmp_path / "run"
    code = main(["train", "--data", str(dataset_dir / "manifest.jsonl"),
                 "--out", str(out), *TRAIN_OPTIONS, "--set", f"{key}={value}"])
    assert code == 2
    err = capsys.readouterr().err
    assert f"configuration error: {message}" in err and "Traceback" not in err
    assert not out.exists()


def _set_config(key, value):
    def edit(manifest, tensors):
        if key == "layers":
            manifest["config"]["layers"][0][4] = int(value.split(":")[4])
        else:
            name = {"joints": "num_joints", "frames": "fixed_length", "bodies": "max_bodies"}
            manifest["config"][name.get(key, key)] = int(value)
    return edit


@pytest.mark.parametrize("key,value,message", IMPOSSIBLE_SIZES)
def test_eval_checkpoint_with_an_impossible_size_is_data_error(trained_dir, dataset_dir,
                                                               tmp_path, capsys, key, value,
                                                               message):
    path = rewrite_checkpoint(trained_dir / "checkpoint.tegc", tmp_path / "bad.tegc",
                              _set_config(key, value))
    code = main(["eval", "--checkpoint", str(path),
                 "--data", str(dataset_dir / "manifest.jsonl")])
    assert code == 3
    err = capsys.readouterr().err
    assert "bad checkpoint config" in err and message in err and "Traceback" not in err


# A feature-learned head holds a (T, T) map: at 10^7 frames it is hundreds of
# TiB, so the allocation fails at once without taking real memory.
HUGE_FRAMES = 10**7
HUGE_MODEL = ["--set", "layers=3:8:1:tc:3,8:8:1:tgraph:3", "--set", "relevance=feature-learned",
              "--set", f"frames={HUGE_FRAMES}"]


@pytest.mark.parametrize("command,out", [("train", "run"), ("ablate", "table/heads.csv")])
def test_model_too_large_to_allocate_is_config_error_before_any_output(tmp_path, dataset_dir,
                                                                       capsys, command, out):
    suite = ["--suite", "heads"] if command == "ablate" else []
    code = main([command, *suite, "--data", str(dataset_dir / "manifest.jsonl"),
                 "--out", str(tmp_path / out), *TRAIN_OPTIONS, *HUGE_MODEL])
    assert code == 2
    err = capsys.readouterr().err
    assert "configuration error: the model does not fit in memory" in err
    assert "Traceback" not in err
    assert not (tmp_path / out.split("/")[0]).exists()


def test_eval_checkpoint_of_a_model_too_large_to_allocate_is_data_error(trained_dir,
                                                                        dataset_dir, tmp_path,
                                                                        capsys):
    def edit(manifest, tensors):
        manifest["config"].update(layers=[[3, 8, 1, "tc", 3], [8, 8, 1, "tgraph", 3]],
                                  relevance="feature-learned", fixed_length=HUGE_FRAMES)

    path = rewrite_checkpoint(trained_dir / "checkpoint.tegc", tmp_path / "bad.tegc", edit)
    code = main(["eval", "--checkpoint", str(path),
                 "--data", str(dataset_dir / "manifest.jsonl")])
    assert code == 3
    err = capsys.readouterr().err
    assert "bad checkpoint config" in err and "does not fit in memory" in err
    assert "Traceback" not in err


def test_eval_runs_in_the_precision_the_checkpoint_was_saved_in(tmp_path, dataset_dir,
                                                                capsys, monkeypatch):
    run = tmp_path / "run"
    assert main(["train", "--data", str(dataset_dir / "manifest.jsonl"), "--out", str(run),
                 *TRAIN_OPTIONS, "--set", "precision=train"]) == 0
    best = run / "best.tegc"
    manifest, tensors = load_checkpoint(best)
    assert all(arr.dtype == np.float32 for arr in tensors.values())
    precision.set_mode("verify")  # as in a fresh process
    capsys.readouterr()
    dtypes = set()

    def evaluate(network, dataset):
        dtypes.update(p.value.data.dtype for p in network.parameters())
        return real_evaluate(network, dataset)

    real_evaluate = tegraph.cli.evaluate
    monkeypatch.setattr(tegraph.cli, "evaluate", evaluate)
    assert main(["eval", "--checkpoint", str(best),
                 "--data", str(dataset_dir / "manifest.jsonl")]) == 0
    assert dtypes == {np.dtype(np.float32)} and precision.mode() == "train"
    accuracy = manifest["extra"]["best_eval_acc"]
    assert f"top-1 accuracy {accuracy:.4f} on 4 samples" in capsys.readouterr().out


def test_eval_checkpoint_mixing_parameter_dtypes_is_data_error(trained_dir, dataset_dir,
                                                               tmp_path, capsys):
    def halve(manifest, tensors):
        tensors[("fc.bias", "param")] = tensors[("fc.bias", "param")].astype(np.float32)

    path = rewrite_checkpoint(trained_dir / "checkpoint.tegc", tmp_path / "mixed.tegc", halve)
    code = main(["eval", "--checkpoint", str(path),
                 "--data", str(dataset_dir / "manifest.jsonl")])
    assert code == 3
    assert "mixes parameter dtypes ['float32', 'float64']" in capsys.readouterr().err


def test_fuse_two_streams(trained_dir, dataset_dir, capsys):
    ckpt = str(trained_dir / "checkpoint.tegc")
    code = main(["fuse", "--data", str(dataset_dir / "manifest.jsonl"),
                 "--stream", f"joint-spatial={ckpt}",
                 "--stream", f"bone-spatial={ckpt}",
                 "--weights", "1,1"])
    assert code == 0
    assert "fused top-1 accuracy" in capsys.readouterr().out


def test_fuse_argument_validation(trained_dir, dataset_dir):
    manifest = str(dataset_dir / "manifest.jsonl")
    ckpt = str(trained_dir / "checkpoint.tegc")
    assert main(["fuse", "--data", manifest, "--stream", "nonsense"]) == 2
    assert main(["fuse", "--data", manifest,
                 "--stream", f"lidar={ckpt}"]) == 2
    assert main(["fuse", "--data", manifest,
                 "--stream", f"joint-spatial={ckpt}",
                 "--weights", "1,2"]) == 2


def test_fuse_without_a_stream_is_config_error(dataset_dir, capsys):
    assert main(["fuse", "--data", str(dataset_dir / "manifest.jsonl")]) == 2
    err = capsys.readouterr().err
    assert "fusion needs at least one --stream" in err and "Traceback" not in err


@pytest.mark.parametrize("weights", ["a,1", "1,", "nan,1", "1,inf", "-1,1"])
def test_fuse_rejects_bad_weights(trained_dir, dataset_dir, capsys, weights):
    ckpt = str(trained_dir / "checkpoint.tegc")
    code = main(["fuse", "--data", str(dataset_dir / "manifest.jsonl"),
                 "--stream", f"joint-spatial={ckpt}",
                 "--stream", f"bone-spatial={ckpt}",
                 f"--weights={weights}"])
    assert code == 2
    assert "fusion weights must be" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["lr", "decay_factor", "weight_decay"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_train_rejects_non_finite_rates_before_any_work(tmp_path, dataset_dir, key, value):
    out = tmp_path / "out"
    code = main(["train", "--data", str(dataset_dir / "manifest.jsonl"),
                 "--out", str(out), *TRAIN_OPTIONS, "--set", f"{key}={value}"])
    assert code == 2
    assert not out.exists()


# ---------------------------------------------------------------------------
# gradcheck / ablate / dump-adjacency


def test_gradcheck_single_op(capsys):
    assert main(["gradcheck", "--op", "matmul", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "matmul" in out and "ok" in out


def test_gradcheck_unknown_op():
    assert main(["gradcheck", "--op", "einsum"]) == 2


def test_ablate_heads_suite(tmp_path, dataset_dir):
    out = tmp_path / "heads.csv"
    options = [o if o != "epochs=2" else "epochs=1" for o in TRAIN_OPTIONS]
    code = main(["ablate", "--suite", "heads",
                 "--data", str(dataset_dir / "manifest.jsonl"),
                 "--out", str(out), *options])
    assert code == 0
    with open(out, newline="") as stream:
        rows = list(csv.reader(stream))
    assert rows[0] == ["heads", "top1"]
    assert [int(r[0]) for r in rows[1:]] == [1, 2, 4, 8]
    for r in rows[1:]:
        assert 0.0 <= float(r[1]) <= 1.0


def test_ablate_evaluates_each_cell_once(tmp_path, dataset_dir, monkeypatch):
    calls = []
    evaluate = tegraph.training.evaluate

    def counting_evaluate(network, dataset):
        calls.append(len(dataset))
        return evaluate(network, dataset)

    monkeypatch.setattr(tegraph.training, "evaluate", counting_evaluate)
    monkeypatch.setattr(tegraph.ablate, "evaluate", counting_evaluate)
    options = [o if o != "epochs=2" else "epochs=1" for o in TRAIN_OPTIONS]
    argv = ["ablate", "--suite", "heads", "--data", str(dataset_dir / "manifest.jsonl"),
            *options]
    assert main([*argv, "--out", str(tmp_path / "once.csv")]) == 0
    assert calls == [4] * len(tegraph.ablate.HEAD_GRID)  # train's own last-epoch eval

    def train_then_evaluate(config, train_set, eval_set, tconfig):
        network = tegraph.ablate.Network(config)
        tegraph.ablate.train(network, train_set, eval_set, tconfig)
        return evaluate(network, eval_set).accuracy

    monkeypatch.setattr(tegraph.ablate, "_train_eval", train_then_evaluate)
    assert main([*argv, "--out", str(tmp_path / "twice.csv")]) == 0
    assert (tmp_path / "once.csv").read_bytes() == (tmp_path / "twice.csv").read_bytes()


def test_ablate_without_an_eval_split_is_data_error(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"sets": SYNTH_SPEC["sets"][:1]}))
    assert main(["preprocess", str(spec), "--out", str(tmp_path / "data")]) == 0
    out = tmp_path / "heads.csv"
    options = [o if o != "epochs=2" else "epochs=1" for o in TRAIN_OPTIONS]
    code = main(["ablate", "--suite", "heads", "--data", str(tmp_path / "data" / "manifest.jsonl"),
                 "--out", str(out), *options])
    assert code == 3
    err = capsys.readouterr().err
    assert "evaluation set is empty" in err and "Traceback" not in err
    assert not out.exists()


def test_ablate_modalities_suite(tmp_path, dataset_dir):
    out = tmp_path / "modalities.csv"
    options = [o if o != "epochs=2" else "epochs=1" for o in TRAIN_OPTIONS]
    code = main(["ablate", "--suite", "modalities",
                 "--data", str(dataset_dir / "manifest.jsonl"),
                 "--out", str(out), *options])
    assert code == 0
    with open(out, newline="") as stream:
        rows = list(csv.reader(stream))
    assert rows[0] == ["modalities", "top1"]
    assert [r[0] for r in rows[1:]] == ["+".join(combo) for combo in MODALITY_COMBOS]
    for r in rows[1:]:
        assert float(r[1]) in (0.0, 0.25, 0.5, 0.75, 1.0)  # 4 eval samples


def test_ablate_modalities_suite_rejects_a_modality(tmp_path, dataset_dir, capsys):
    out = tmp_path / "modalities.csv"
    code = main(["ablate", "--suite", "modalities", "--modality", "bone-motion",
                 "--data", str(dataset_dir / "manifest.jsonl"),
                 "--out", str(out), *TRAIN_OPTIONS])
    assert code == 2
    assert "modality 'bone-motion' does not apply" in capsys.readouterr().err
    assert not out.exists()


def test_ablate_heads_suite_trains_joint_spatial_by_default(tmp_path, dataset_dir,
                                                            monkeypatch):
    kinds = []

    def load_split(manifest, kind, split):
        kinds.append(kind)
        return tegraph.dataset.load_split(manifest, kind, split)

    monkeypatch.setattr(tegraph.ablate, "load_split", load_split)
    monkeypatch.setattr(tegraph.ablate, "_train_eval", lambda *args: 0.5)
    code = main(["ablate", "--suite", "heads",
                 "--data", str(dataset_dir / "manifest.jsonl"),
                 "--out", str(tmp_path / "heads.csv"), *TRAIN_OPTIONS])
    assert code == 0
    assert kinds == ["joint-spatial", "joint-spatial"]


def test_ablate_modalities_streams_that_disagree_are_data_error(tmp_path, dataset_dir,
                                                                monkeypatch, capsys):
    loaded = []

    def load_split(manifest, kind, split):
        samples = tegraph.dataset.load_split(manifest, kind, split)
        if split == "eval":
            loaded.append(kind)
            if len(loaded) > 1:
                samples = samples[::-1]  # a second stream in another order
        return samples

    monkeypatch.setattr(tegraph.ablate, "load_split", load_split)
    monkeypatch.setattr(tegraph.ablate, "train", lambda *args: [])
    out = tmp_path / "modalities.csv"
    code = main(["ablate", "--suite", "modalities",
                 "--data", str(dataset_dir / "manifest.jsonl"),
                 "--out", str(out), *TRAIN_OPTIONS])
    assert code == 3
    assert "modality streams disagree on eval labels/order" in capsys.readouterr().err
    assert not out.exists()


def test_dump_adjacency(tmp_path, dataset_dir):
    run = tmp_path / "run"
    options = [o if o != "layers=3:8:1:tc:3" else "layers=3:8:1:tgraph:3"
               for o in TRAIN_OPTIONS]
    options = [o if o != "epochs=2" else "epochs=1" for o in options]
    options += ["--set", "heads=2"]
    code = main(["train", "--data", str(dataset_dir / "manifest.jsonl"),
                 "--out", str(run), *options])
    assert code == 0
    dumped = tmp_path / "adjacency"
    code = main(["dump-adjacency", "--checkpoint", str(run / "checkpoint.tegc"),
                 "--data", str(dataset_dir / "manifest.jsonl"),
                 "--sample", "0", "--out", str(dumped)])
    assert code == 0
    names = sorted(p.name for p in dumped.iterdir())
    assert names == ["layer1.head0.tegt", "layer1.head1.tegt"]


def test_dump_adjacency_needs_temporal_graph_layers(trained_dir, dataset_dir, tmp_path):
    code = main(["dump-adjacency", "--checkpoint", str(trained_dir / "checkpoint.tegc"),
                 "--data", str(dataset_dir / "manifest.jsonl"),
                 "--out", str(tmp_path / "adjacency")])
    assert code == 2
