"""Checkpoint round trips and corrupted-file behavior."""
import json
import struct

import numpy as np
import pytest

import tegraph.checkpoint
from tegraph import init
from tegraph.checkpoint import (
    load_checkpoint,
    network_from_checkpoint,
    restore_network,
    save_checkpoint,
)
from tegraph.errors import ConfigError, DataError
from tegraph.model import LayerSpec, ModelConfig, Network
from tegraph.tensor import Parameter, Tape
from tegraph.tensorio import write_tensor
from tegraph.training import TrainConfig, predict_logits, train


def make_network(seed=0, mode="both", relevance="feature-calculated"):
    config = ModelConfig(layers=[LayerSpec(3, 4, 1, "tc", 3), LayerSpec(4, 4, 1, mode, 3)],
                         num_classes=2, num_joints=3, fixed_length=4, max_bodies=1,
                         heads=2, relevance=relevance, graph="chain", seed=seed)
    return Network(config)


def trained_network(tmp_path):
    """A network whose params, bn buffers, and momentum are all non-trivial."""
    net = make_network()
    rng = np.random.default_rng(5)
    data = [(rng.normal(size=(3, 4, 3, 1)), i % 2) for i in range(4)]
    train(net, data, [], TrainConfig(learning_rate=0.05, decay_epochs=(),
                                     batch_size=2, total_epochs=2, seed=1))
    return net


def test_round_trip_restores_every_array(tmp_path):
    net = trained_network(tmp_path)
    momentum = {"layer1.sg.w0": np.full((3, 4), 0.25), "fc.weight": np.ones((4, 2))}
    path = tmp_path / "model.tegc"
    save_checkpoint(path, net, epoch=7, momentum=momentum,
                    extra={"note": "fixture"})
    fresh = make_network()
    manifest, tensors = load_checkpoint(path)
    assert manifest["epoch"] == 7
    assert manifest["extra"] == {"note": "fixture"}
    restored_momentum = restore_network(fresh, manifest, tensors)
    for a, b in zip(net.parameters(), fresh.parameters()):
        assert a.identifier == b.identifier
        np.testing.assert_array_equal(a.value.data, b.value.data)
    for bn_a, bn_b in zip(net.batchnorms(), fresh.batchnorms()):
        for (name_a, buf_a), (name_b, buf_b) in zip(bn_a.buffers(), bn_b.buffers()):
            assert name_a == name_b
            np.testing.assert_array_equal(buf_a, buf_b)
    assert set(restored_momentum) == set(momentum)
    for name in momentum:
        np.testing.assert_array_equal(restored_momentum[name], momentum[name])


def test_restored_network_reproduces_logits_bit_exactly(tmp_path):
    net = trained_network(tmp_path)
    path = tmp_path / "model.tegc"
    save_checkpoint(path, net, epoch=1)
    again, manifest, momentum = network_from_checkpoint(path)
    assert momentum == {}
    assert manifest["config"] == net.config.to_dict()
    x = np.random.default_rng(9).normal(size=(3, 4, 3, 1))
    net.set_training(False)
    again.set_training(False)
    np.testing.assert_array_equal(net.forward_sample(x).data,
                                  again.forward_sample(x).data)


def test_checkpoint_with_learned_head_row_biases_still_loads(tmp_path, monkeypatch):
    """Files saved while feature-learned heads had a (T, 1) row bias `tbias`
    carry one more param entry per head; loading ignores it."""
    net = make_network(relevance="feature-learned")
    rng = np.random.default_rng(3)
    for p in net.parameters():  # nonzero output maps, so the heads reach the logits
        p.assign(rng.normal(size=p.shape))
    biases = [Parameter(init.zeros((4, 1)), f"{head.identifier}.tbias")
              for head in net.layers[1].tgc.heads]
    params = net.parameters()
    with monkeypatch.context() as patch:
        patch.setattr(net, "parameters", lambda: params + biases)
        save_checkpoint(tmp_path / "model.tegc", net, epoch=1)
    _, tensors = load_checkpoint(tmp_path / "model.tegc")
    assert {(b.identifier, "param") for b in biases} <= set(tensors)
    again, _, _ = network_from_checkpoint(tmp_path / "model.tegc")
    x = rng.normal(size=(3, 4, 3, 1))
    np.testing.assert_array_equal(predict_logits(net, [x]), predict_logits(again, [x]))


def test_identical_states_serialize_to_identical_bytes(tmp_path):
    paths = []
    for name in ("a.tegc", "b.tegc"):
        net = make_network()
        path = tmp_path / name
        save_checkpoint(path, net, epoch=0)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_restore_rejects_config_mismatch(tmp_path):
    net = make_network()
    path = tmp_path / "model.tegc"
    save_checkpoint(path, net, epoch=0)
    other = Network(ModelConfig(layers=[LayerSpec(3, 4, 1, "tc", 3)], num_classes=2,
                                num_joints=3, fixed_length=4, graph="chain"))
    manifest, tensors = load_checkpoint(path)
    with pytest.raises(ConfigError, match="config"):
        restore_network(other, manifest, tensors)


def test_restore_rejects_missing_entries(tmp_path):
    net = make_network()
    path = tmp_path / "model.tegc"
    save_checkpoint(path, net, epoch=0)
    manifest, tensors = load_checkpoint(path)
    del tensors[("fc.weight", "param")]
    with pytest.raises(ConfigError, match="missing parameter fc.weight"):
        restore_network(make_network(), manifest, tensors)
    manifest2, tensors2 = load_checkpoint(path)
    buffer_keys = [k for k in tensors2 if k[1] == "buffer"]
    del tensors2[buffer_keys[0]]
    with pytest.raises(ConfigError, match="missing buffer"):
        restore_network(make_network(), manifest2, tensors2)


def test_load_rejects_truncations(tmp_path):
    net = make_network()
    path = tmp_path / "model.tegc"
    save_checkpoint(path, net, epoch=0)
    payload = path.read_bytes()
    short_header = tmp_path / "short_header.tegc"
    short_header.write_bytes(payload[:3])
    with pytest.raises(DataError, match="truncated checkpoint header"):
        load_checkpoint(short_header)
    (length,) = struct.unpack("<I", payload[:4])
    short_manifest = tmp_path / "short_manifest.tegc"
    short_manifest.write_bytes(payload[: 4 + length - 10])
    with pytest.raises(DataError, match="truncated checkpoint manifest"):
        load_checkpoint(short_manifest)
    short_tensors = tmp_path / "short_tensors.tegc"
    short_tensors.write_bytes(payload[:-17])
    with pytest.raises(DataError):
        load_checkpoint(short_tensors)


def test_load_rejects_garbage_manifest(tmp_path):
    bad_json = tmp_path / "bad_json.tegc"
    blob = b"{not json"
    bad_json.write_bytes(struct.pack("<I", len(blob)) + blob)
    with pytest.raises(DataError, match="bad checkpoint manifest"):
        load_checkpoint(bad_json)
    wrong_format = tmp_path / "wrong_format.tegc"
    blob = json.dumps({"format": "something-else"}).encode()
    wrong_format.write_bytes(struct.pack("<I", len(blob)) + blob)
    with pytest.raises(DataError, match="not a checkpoint"):
        load_checkpoint(wrong_format)


def test_load_rejects_shape_mismatch(tmp_path):
    net = make_network()
    path = tmp_path / "model.tegc"
    save_checkpoint(path, net, epoch=0)
    payload = bytearray(path.read_bytes())
    (length,) = struct.unpack("<I", payload[:4])
    manifest = json.loads(payload[4 : 4 + length])
    manifest["entries"][0]["shape"] = [1, 1]
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    lied = tmp_path / "lied.tegc"
    lied.write_bytes(struct.pack("<I", len(blob)) + blob + bytes(payload[4 + length:]))
    with pytest.raises(DataError, match="disagrees with manifest"):
        load_checkpoint(lied)


def test_checkpoint_preserves_training_progress(tmp_path):
    # resume-from-checkpoint: loading epoch N state and continuing must act
    # on the same numbers the original trainer held
    net = make_network(seed=2)
    rng = np.random.default_rng(7)
    data = [(rng.normal(size=(3, 4, 3, 1)), i % 2) for i in range(4)]
    path = tmp_path / "resume.tegc"
    train(net, data, [], TrainConfig(learning_rate=0.05, decay_epochs=(),
                                     batch_size=2, total_epochs=1, seed=3),
          checkpoint_path=path)
    resumed, manifest, _ = network_from_checkpoint(path)
    assert manifest["epoch"] == 0
    with Tape() as tape:
        loss_a = net.loss(net.forward_sample(data[0][0]), data[0][1])
    with Tape() as tape:
        loss_b = resumed.loss(resumed.forward_sample(data[0][0]), data[0][1])
    assert loss_a.item() == loss_b.item()


def test_failed_save_keeps_previous_checkpoint(tmp_path, monkeypatch):
    net = make_network()
    path = tmp_path / "checkpoint.tegc"
    save_checkpoint(path, net, epoch=0)
    before = path.read_bytes()
    written = []

    def write_then_fail(stream, arr):
        if written:
            raise OSError("disk full")
        written.append(arr)
        write_tensor(stream, arr)

    monkeypatch.setattr(tegraph.checkpoint, "write_tensor", write_then_fail)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, trained_network(tmp_path), epoch=1)
    assert written, "the failure must come after part of the payload was written"
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.tegc"]


def test_save_replaces_checkpoint_and_leaves_no_partial_file(tmp_path):
    path = tmp_path / "checkpoint.tegc"
    save_checkpoint(path, make_network(), epoch=0)
    save_checkpoint(str(path), make_network(seed=1), epoch=1)
    assert load_checkpoint(path)[0]["epoch"] == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.tegc"]
