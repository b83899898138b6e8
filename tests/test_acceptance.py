"""The acceptance gate: eight criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; each test enforces its stated tolerance and, where one is given, its
runtime budget.
"""
import contextlib
import json
import time

import numpy as np

from oracles import (
    feature_calculated_oracle,
    feature_learned_oracle,
    format_skeleton,
    permute_joints,
    sg_oracle,
    softmax_rows_oracle,
    tc_oracle,
    temporal_graph_conv_oracle,
)
from tegraph.blocks import SGBlock, TCBlock, _spatial_graph
from tegraph.cli import main
from tegraph.dataset import generate_synthetic, write_dataset
from tegraph.gradcheck import OP_NAMES, check_all_ops, grad_check
from tegraph.graph import (
    SkeletonGraph,
    adjacency,
    chain_graph,
    normalized_partitions,
    ntu_graph,
    partitions,
)
from tegraph.model import LayerSpec, ModelConfig, Network, fuse_streams
from tegraph.skeleton import (
    Body,
    RawClip,
    center_and_pad,
    filter_bodies,
    parse_skeleton_file,
    subsample_frames,
)
from tegraph.synth import synth_longrange_dataset
from tegraph.temporal import (
    MultiHeadTemporalConv,
    RelevanceHead,
    _calculated_heads,
    build_heads,
    feature_learned,
    temporal_graph_conv,
)
from tegraph.tensor import Tensor, softmax_rows, temporal_conv
from tegraph.training import TrainConfig, lr_at, softmax_distribution, train


@contextlib.contextmanager
def criterion(number, title, budget=None):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\n[criterion {number}] FAIL  {title}")
        raise
    elapsed = time.perf_counter() - started
    within = budget is None or elapsed < budget
    verdict = "PASS" if within else "FAIL"
    print(f"\n[criterion {number}] {verdict}  {title}  ({elapsed:.1f}s)")
    assert within, f"criterion {number} took {elapsed:.1f}s, budget {budget}s"


def random_tree(num_joints, rng):
    edges = tuple((int(rng.integers(0, i)), i) for i in range(1, num_joints))
    return SkeletonGraph(num_joints, edges, 0)


def randomize(params, rng, spread=1.0):
    for p in params:
        p.assign(rng.normal(0.0, spread, p.shape))


# ---------------------------------------------------------------------------


def test_criterion_1_oracle_equivalence():
    """The forwards the model runs match scalar brute force on 50 random
    instances each: the spatial stages' graph conv, the temporal conv that
    tc_forward and the residual projections record, and each head kind,
    feature-calculated heads through the helper the tgraph stage runs."""
    with criterion(1, "oracle equivalence at 1e-10 on 5 x 50 instances", budget=10.0):
        rng = np.random.default_rng(101)

        for i in range(50):
            t, j = int(rng.integers(1, 7)), int(rng.integers(1, 5))
            c_in, c_out = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            graph = random_tree(j, rng)
            block = SGBlock(c_in, c_out, normalized_partitions(graph), f"a1.sg{i}")
            randomize(block.weights + block.masks, rng)
            f = rng.normal(size=(c_in, t, j))
            conv, _ = _spatial_graph(Tensor(f), [w.value for w in block.weights],
                                     block.partitions, [m.value for m in block.masks])
            got = conv()
            want = sg_oracle([w.value.data for w in block.weights],
                             [m.value.data for m in block.masks],
                             block.partitions, f)
            assert np.abs(got - want).max() <= 1e-10

        for i in range(50):
            t, j, c = (int(rng.integers(1, 7)), int(rng.integers(1, 5)),
                       int(rng.integers(1, 5)))
            kernel_t = int(rng.choice([1, 3, 5]))
            stride = int(rng.integers(1, 3))
            block = TCBlock(c, kernel_t, stride, f"a1.tc{i}")
            randomize([block.kernel], rng)
            f = rng.normal(size=(c, t, j))
            got = temporal_conv(Tensor(f), block.kernel.value, block.stride, block.pad).data
            want = tc_oracle(block.kernel.value.data, f, stride)
            assert np.abs(got - want).max() <= 1e-10

        for i in range(50):
            t, j = int(rng.integers(1, 7)), int(rng.integers(1, 5))
            head = RelevanceHead("feature-calculated", 4, t, j, f"a1.fc{i}")
            randomize(head.parameters(), rng)
            f = rng.normal(size=(4, t, j))
            heads, _ = _calculated_heads(f.shape, [head.w_a.value], [head.w_b.value])
            got = heads(f)[0]
            want = softmax_rows_oracle(feature_calculated_oracle(head.w_a.value.data,
                                                                 head.w_b.value.data, f))
            assert np.abs(got - want).max() <= 1e-10

        for i in range(50):
            t, j, c = (int(rng.integers(1, 7)), int(rng.integers(1, 5)),
                       int(rng.integers(1, 5)))
            head = RelevanceHead("feature-learned", c, t, j, f"a1.fl{i}")
            randomize(head.parameters(), rng)
            f = rng.normal(size=(c, t, j))
            got = feature_learned(head, Tensor(f)).data
            want = feature_learned_oracle(head.c_conv.value.data,
                                          head.j_conv.value.data,
                                          head.t_conv.value.data, f)
            assert np.abs(got - want).max() <= 1e-10

        for i in range(50):
            t, j, c = (int(rng.integers(1, 7)), int(rng.integers(1, 5)),
                       int(rng.integers(1, 5)))
            heads = int(rng.integers(1, 4))
            mhc = MultiHeadTemporalConv(heads, "feature-learned", c, t, j, f"a1.mh{i}")
            randomize(mhc.output_maps, rng)
            adjacencies = [softmax_rows_like(rng.normal(size=(t, t)))
                           for _ in range(heads)]
            f = rng.normal(size=(c, t, j))
            got = temporal_graph_conv(mhc, Tensor(f),
                                      [Tensor(a) for a in adjacencies]).data
            want = temporal_graph_conv_oracle(adjacencies,
                                              [w.value.data for w in mhc.output_maps], f)
            assert np.abs(got - want).max() <= 1e-10


def softmax_rows_like(m):
    e = np.exp(m - m.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def test_criterion_2_gradient_suite():
    """Every op and two full 2-layer networks pass central finite differences."""
    with criterion(2, "finite-difference gradients at 1e-5", budget=60.0):
        results = dict(check_all_ops(seed=0))
        assert sorted(results) == sorted(OP_NAMES)
        for name, result in results.items():
            assert result.ok, f"{name}: {result}"
            assert result.max_rel_error <= 1e-5

        # end-to-end, one network per relevance kind.  Zero-initialized
        # output maps put the temporal stage exactly on relu kinks where
        # two-sided differences disagree with the analytic one-sided
        # convention, so the checks run at a generic point: every all-zero
        # parameter is nudged to small random values first.
        for relevance, mode, data_seed, check_seed in (
            ("feature-learned", "tgraph", 6, 2),
            ("feature-calculated", "both", 8, 3),
        ):
            config = ModelConfig(
                layers=[LayerSpec(3, 4, 1, "tc", 3), LayerSpec(4, 4, 1, mode, 3)],
                num_classes=3, num_joints=4, fixed_length=6, max_bodies=1,
                heads=2, relevance=relevance, graph="chain", seed=4)
            net = Network(config)
            nudge = np.random.default_rng(11)
            for p in net.parameters():
                if np.all(p.value.data == 0):
                    p.assign(nudge.normal(0.0, 0.1, p.shape))
            x = np.random.default_rng(data_seed).normal(size=(3, 6, 4, 1))
            result = grad_check(lambda: net.loss(net.forward_sample(x), 0),
                                net.parameters(), eps=1e-5, tol=1e-5,
                                max_elements=6, seed=check_seed)
            assert result.ok, f"{relevance}/{mode}: {result}"


def test_criterion_3_structural_invariants():
    """Adjacency stochasticity, partition identity, equivariances."""
    with criterion(3, "structural invariants (1e-6 / exact / 1e-6 / 1e-12)"):
        rng = np.random.default_rng(33)

        # temporal adjacency rows sum to one
        for kind in ("feature-calculated", "feature-learned"):
            mhc = MultiHeadTemporalConv(3, kind, 4, 5, 3, f"a3.{kind}")
            for head in mhc.heads:
                randomize(head.parameters(), rng)
            f = rng.normal(size=(4, 5, 3))
            if kind == "feature-learned":
                adjacencies = [adj.data for adj in build_heads(mhc, Tensor(f))]
            else:
                adjacencies = _calculated_heads(f.shape, [h.w_a.value for h in mhc.heads],
                                                [h.w_b.value for h in mhc.heads])[0](f)
            for adj in adjacencies:
                assert np.abs(adj.sum(axis=1) - 1.0).max() <= 1e-6

        # unnormalized partition subsets reassemble A + I exactly
        graphs = [ntu_graph(), chain_graph(4, 0)]
        graphs += [random_tree(int(rng.integers(2, 8)), rng) for _ in range(10)]
        for g in graphs:
            total = partitions(g).sum(axis=0)
            identity = adjacency(g) + np.eye(g.num_joints)
            assert np.array_equal(total, identity)

        # relabeling joints leaves end-to-end logits invariant
        config = ModelConfig(
            layers=[LayerSpec(3, 4, 1, "tc", 3), LayerSpec(4, 4, 1, "both", 3)],
            num_classes=3, num_joints=4, fixed_length=6, max_bodies=1,
            heads=2, relevance="feature-calculated", graph="chain", seed=0)
        perm = np.array([2, 0, 3, 1])
        p = np.zeros((4, 4))
        for old, new in enumerate(perm):
            p[new, old] = 1.0
        base = chain_graph(4, 0)
        net_a = Network(config, graph=base)
        net_b = Network(config, graph=permute_joints(base, perm))
        net_a.set_training(False)
        net_b.set_training(False)
        x = rng.normal(size=(3, 6, 4, 1))
        x_perm = np.einsum("ctjm,ij->ctim", x, p)
        delta = np.abs(net_a.forward_sample(x).data
                       - net_b.forward_sample(x_perm).data).max()
        assert delta <= 1e-6

        # adding a per-row constant to raw scores cannot move the softmax
        for _ in range(20):
            t = int(rng.integers(1, 8))
            raw = rng.normal(size=(t, t)) * 3.0
            shift = rng.normal(size=(t, 1)) * np.ones((1, t))
            base_rows = softmax_rows(Tensor(raw)).data
            shifted_rows = softmax_rows(Tensor(raw + shift)).data
            assert np.abs(base_rows - shifted_rows).max() <= 1e-12


def test_criterion_4_init_transparency():
    """Zero-initialized temporal-graph stages are bit-exact no-ops."""
    with criterion(4, "silent insertion leaves logits bit-identical"):
        def build(mode, heads):
            config = ModelConfig(
                layers=[LayerSpec(3, 4, 1, "tc", 3), LayerSpec(4, 4, 1, mode, 3)],
                num_classes=3, num_joints=4, fixed_length=6, max_bodies=1,
                heads=heads, relevance="feature-calculated", graph="chain", seed=0)
            net = Network(config)
            net.set_training(False)
            return net

        x = np.random.default_rng(44).normal(size=(3, 6, 4, 1))
        plain = build("tc", 2).forward_sample(x).data
        upgraded = build("both", 2).forward_sample(x).data
        assert np.array_equal(plain, upgraded)
        assert np.array_equal(build("both", 1).forward_sample(x).data,
                              build("both", 4).forward_sample(x).data)


def test_criterion_5_long_range_separability():
    """Temporal-graph mixing separates order-only classes; local convs cannot."""
    with criterion(5, "long-range corpus: tgraph >= 0.95, tc trails by >= 0.10",
                   budget=300.0):
        def build(mode):
            layers = [LayerSpec(3, 12, 1, "tc", 3),
                      LayerSpec(12, 12, 1, mode, 3)]
            config = ModelConfig(layers=layers, num_classes=2, num_joints=5,
                                 fixed_length=32, max_bodies=1, heads=2,
                                 relevance="feature-learned", graph="chain", seed=0)
            return Network(config)

        train_set = [(s.data, s.label) for s in synth_longrange_dataset(24, seed=100)]
        eval_set = [(s.data, s.label) for s in synth_longrange_dataset(24, seed=200)]
        tconf = TrainConfig(learning_rate=0.2, decay_epochs=(60, 85),
                            decay_factor=0.1, weight_decay=0.0, batch_size=4,
                            total_epochs=100, seed=0)
        best = {}
        for mode in ("tgraph", "tc"):
            history = train(build(mode), train_set, eval_set, tconf)
            best[mode] = max(m.eval_acc for m in history)
        print(f"  [criterion 5 detail] tgraph best {best['tgraph']:.4f}, "
              f"tc best {best['tc']:.4f}")
        assert best["tgraph"] >= 0.95
        assert best["tc"] <= best["tgraph"] - 0.10


def test_criterion_6_preprocessing_contracts():
    """Body filtering, translation invariance, centering and padding."""
    with criterion(6, "preprocessing pipeline contracts", budget=5.0):
        def dyadic_clip(offset=(0.0, 0.0, 0.0)):
            # all coordinates are small dyadic rationals, so translating and
            # re-centering are exact float operations with zero rounding
            offset = np.array(offset)
            frames = []
            for t in range(10):
                mover = np.zeros((4, 3))
                mover[:, 0] = np.arange(4) * 0.25
                mover[0, 0] += t * 0.125
                ghost = np.full((4, 3), 0.5)
                frames.append([Body("mover", mover + offset),
                               Body("ghost", ghost + offset)])
            return RawClip(frames, "fixture")

        # a planted zero-motion body is removed, the moving one kept
        kept = filter_bodies(dyadic_clip(), 0.1, 2.0)
        ids = {body.body_id for frame in kept.frames for body in frame}
        assert ids == {"mover"}

        def pipeline(clip):
            parsed = parse_skeleton_file(format_skeleton(clip))
            filtered = filter_bodies(parsed, 0.1, 2.0, max_bodies=2)
            thinned = subsample_frames(filtered, 4)
            return center_and_pad(thinned, 6, max_bodies=2)

        base = pipeline(dyadic_clip())
        shifted = pipeline(dyadic_clip(offset=(3.25, -17.5, 0.125)))
        assert np.array_equal(base.data, shifted.data)

        # centering anchor: primary body's spine joint sits at the origin
        # in the first frame; trailing frames and empty slots stay zero
        assert base.data.shape == (3, 6, 4, 2)
        np.testing.assert_array_equal(base.data[:, 0, 1, 0], 0.0)
        np.testing.assert_array_equal(base.data[:, 4:, :, :], 0.0)
        np.testing.assert_array_equal(base.data[..., 1], 0.0)


def test_criterion_7_schedule_and_fusion():
    """Exact decayed learning rates; fusing identical streams is a no-op."""
    with criterion(7, "lr schedule exact; 4-way self-fusion within 1e-12"):
        config = TrainConfig(learning_rate=0.1, decay_epochs=(40, 80, 120),
                             decay_factor=0.1)
        assert lr_at(config, 0) == 0.1
        assert lr_at(config, 40) == 0.01
        assert lr_at(config, 80) == 0.001
        assert lr_at(config, 120) == 0.0001

        rng = np.random.default_rng(77)
        for _ in range(20):
            stream = softmax_distribution(rng.normal(size=5) * 3.0)
            fused = fuse_streams([stream] * 4)
            assert np.abs(fused - stream).max() <= 1e-12


def test_criterion_8_single_thread_determinism(tmp_path):
    """Two identical `train` runs emit identical bytes."""
    with criterion(8, "byte-identical checkpoints and metrics across reruns"):
        spec = {"sets": [
            {"generator": "templates", "classes": 2, "samples_per_class": 3,
             "joints": 5, "frames": 8, "sigma": 0.05, "seed": 7,
             "split": "train", "prefix": "tr"},
            {"generator": "templates", "classes": 2, "samples_per_class": 2,
             "joints": 5, "frames": 8, "sigma": 0.05, "seed": 8,
             "split": "eval", "prefix": "ev"},
        ]}
        labeled, graph = generate_synthetic(spec)
        data_dir = tmp_path / "data"
        manifest = write_dataset(data_dir, labeled, graph)
        options = ["--set", "classes=2", "--set", "layers=3:8:1:tc:3",
                   "--set", "joints=5", "--set", "frames=8", "--set", "bodies=1",
                   "--set", "epochs=2", "--set", "lr=0.05",
                   "--set", "decay_epochs=", "--set", "weight_decay=0",
                   "--set", "batch_size=2", "--set", "seed=0"]
        outs = []
        for name in ("first", "second"):
            out = tmp_path / name
            code = main(["train", "--data", str(manifest), "--out", str(out), *options])
            assert code == 0
            outs.append(out)
        for artifact in ("metrics.jsonl", "checkpoint.tegc", "best.tegc"):
            a = (outs[0] / artifact).read_bytes()
            b = (outs[1] / artifact).read_bytes()
            assert a == b, f"{artifact} differs between identical runs"
        # and the metrics stream really is line-per-epoch JSON
        lines = (outs[0] / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 2
        assert all("wall_clock" not in json.loads(line) for line in lines)
