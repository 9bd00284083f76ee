"""Network assembly, loss closed forms and training reproducibility.

Gradient and overfit checks on the full-size network live in
test_acceptance; here a tiny-width variant keeps everything fast.
"""

import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geomatch import diffnet as dn
from geomatch import errors
from geomatch.dataset import generate_toy_dataset, load_records
from geomatch.geometry import (GeometryGraph, PointCloud, build_knn_graph,
                               knn_graph, normalize_adjacency)
from geomatch.inference import pair_inputs, rollout
from geomatch.model import (GeoMatchModel, ModelConfig, TrainingSample,
                            contact_distances, distance_scale, load_model,
                            read_loss_csv, save_model, train, write_loss_csv)
from losses import scalar_loss

TINY = ModelConfig(gcn_hidden=(6, 6, 6), gcn_out=8, proj_dim=4,
                   ar_hidden=(6, 6, 6))


def tiny_sample(rng, s_o=12, s_g=10, ee=None):
    """Synthetic sample over random clouds; maps built to be consistent."""
    from geomatch.contact_maps import build_contact_maps
    from geomatch.dataset import build_pincer
    obj = PointCloud(rng.normal(scale=0.03, size=(s_o, 3)))
    graph = knn_graph(obj, 3)
    ee = ee or build_pincer(s_g=s_g, seed=int(rng.integers(1 << 30)))
    kp_world = rng.normal(scale=0.03, size=(6, 3))
    maps = build_contact_maps(obj, kp_world, m=3, threshold=0.08)
    d = np.linalg.norm(obj.points[None] - kp_world[:, None], axis=2)
    gt = np.argmin(d, axis=1)
    return TrainingSample(object_id="o", ee_id="e", object_graph=graph,
                          ee=ee, pose=None, maps=maps,
                          keypoint_world=kp_world, gt_contacts=gt)


@pytest.fixture(scope="module")
def tiny_ee():
    from geomatch.dataset import build_pincer
    return build_pincer(s_g=10, seed=99)


class TestArchitecture:
    def test_default_widths(self):
        cfg = ModelConfig()
        assert cfg.gcn_hidden == (256, 256, 256)
        assert cfg.gcn_out == 512
        assert cfg.proj_dim == 64
        assert cfg.ar_hidden == (256, 256, 256)
        assert cfg.ar_input_dim == 64 + 64 + 5

    def test_parameter_set(self):
        model = GeoMatchModel(TINY, seed=0)
        names = model.store.names()
        assert "obj_proj.w" in names and "grip_proj.w" in names
        assert sum(1 for n in names if n.startswith("ar")) == 5 * 8
        # projections are bias-free
        assert not any(n.endswith("proj.b") for n in names)
        assert model.store["obj_proj.w"].data.shape == (8, 4)

    def test_five_heads_only(self):
        model = GeoMatchModel(TINY, seed=0)
        heads = {n.split(".")[0] for n in model.store.names()
                 if n.startswith("ar")}
        assert heads == {"ar1", "ar2", "ar3", "ar4", "ar5"}


class TestEncode:
    def test_output_shapes(self, rng_np, tiny_ee):
        model = GeoMatchModel(TINY, seed=0)
        s = tiny_sample(rng_np, ee=tiny_ee)
        v_o, v_kp = model.encode(s.object_graph, s.ee.rest_graph,
                                 s.ee.keypoint_vertices)
        assert v_o.data.shape == (12, 4)
        assert v_kp.data.shape == (6, 4)

    def test_permutation_equivariance(self, rng_np, tiny_ee):
        model = GeoMatchModel(TINY, seed=0)
        s = tiny_sample(rng_np, ee=tiny_ee)
        graph = s.object_graph
        size = graph.size
        edges = build_knn_graph(graph.cloud, 3)
        assert np.array_equal(normalize_adjacency(edges, size).w,
                              graph.normalized_adjacency.w)
        perm = rng_np.permutation(size)
        inv = np.argsort(perm)
        permuted = GeometryGraph(PointCloud(graph.cloud.points[perm]),
                                 normalize_adjacency(inv[edges], size))
        kp = s.ee.keypoint_vertices
        v_base, _ = model.encode(graph, s.ee.rest_graph, kp)
        v_perm, _ = model.encode(permuted, s.ee.rest_graph, kp)
        assert np.allclose(v_perm.data, v_base.data[perm], atol=1e-9)

    def test_halves_equal_the_full_call(self, rng_np, tiny_ee):
        model = GeoMatchModel(TINY, seed=0)
        s = tiny_sample(rng_np, ee=tiny_ee)
        kp = s.ee.keypoint_vertices
        v_o, v_kp = model.encode(s.object_graph, s.ee.rest_graph, kp)
        obj_half = model.encode(s.object_graph)
        kp_half = model.encode(gripper_graph=s.ee.rest_graph, keypoint_vertices=kp)
        assert obj_half[1] is None and kp_half[0] is None
        assert obj_half[0].data.tobytes() == v_o.data.tobytes()
        assert kp_half[1].data.tobytes() == v_kp.data.tobytes()
        assert model.encode() == (None, None)


def full_graph_keypoint_rows(model, graph, kp):
    """The gripper encoder run on every vertex, then the keypoint rows: the
    reference for the receptive-field path in `encode`."""
    pts = graph.cloud.points
    centered = pts - pts.mean(axis=0)
    h = dn.Tensor(centered / np.sqrt((centered ** 2).mean()))
    for i in range(len(model.config.gcn_hidden) + 1):
        h = dn.dense(dn.spmm(graph.normalized_adjacency, h),
                     model.store[f"grip_enc.w{i}"], model.store[f"grip_enc.b{i}"])
    return dn.gather_rows(dn.matmul(h, model.store["grip_proj.w"]), kp)


class TestKeypointReceptiveField:
    MID = ModelConfig(gcn_hidden=(16, 16, 16), gcn_out=24, proj_dim=8,
                      ar_hidden=(4, 4, 4))

    @given(st.integers(0, 2 ** 31 - 1), st.integers(8, 80), st.integers(1, 8),
           st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_matches_full_graph(self, seed, s, k, adjacent):
        # small clouds with large k put the whole graph in the receptive
        # field; a walk along edges makes neighbouring (or equal) keypoints
        rng = np.random.default_rng(seed)
        k = min(k, s - 1)
        grip = knn_graph(PointCloud(rng.normal(size=(s, 3))), k)
        if adjacent:
            nbrs = build_knn_graph(grip.cloud, k)[:, 1].reshape(s, k)
            kp = [int(rng.integers(s))]
            for _ in range(5):
                kp.append(int(nbrs[kp[-1], rng.integers(k)]))
            kp = np.array(kp)
        else:
            kp = rng.integers(0, s, size=6)
        model = GeoMatchModel(self.MID, seed=int(seed % 1000))
        obj = knn_graph(PointCloud(rng.normal(size=(12, 3))), 3)
        proj = dn.Tensor(rng.normal(size=(self.MID.proj_dim, 3)))

        def grip_grads(v_kp):
            dn.backward(scalar_loss(dn.matmul(v_kp, proj), square=True))
            grads = {n: p.grad for n, p in model.store.items()
                     if p.grad is not None}
            model.store.zero_grad()
            return grads

        _, v_kp = model.encode(obj, grip, kp)
        got = grip_grads(v_kp)
        ref = full_graph_keypoint_rows(model, grip, kp)
        want = grip_grads(ref)
        # the products run over fewer rows, so BLAS may round differently
        np.testing.assert_allclose(v_kp.data, ref.data, rtol=1e-13,
                                   atol=1e-13 * np.abs(ref.data).max())
        assert sorted(got) == sorted(want) == sorted(
            n for n in model.store.names() if n.startswith("grip_"))
        for name, g in want.items():
            np.testing.assert_allclose(got[name], g, rtol=1e-12,
                                       atol=1e-12 * np.abs(g).max())

    def test_keypoint_outside_gripper_graph(self, rng_np, tiny_ee):
        from types import SimpleNamespace
        model = GeoMatchModel(TINY, seed=0)
        s = tiny_sample(rng_np, ee=tiny_ee)
        for bad in (10, -1):
            kp = np.array([0, 1, 2, 3, 4, bad])
            with pytest.raises(errors.IndexOutOfRange):
                model.encode(s.object_graph, tiny_ee.rest_graph, kp)
            s.ee = SimpleNamespace(rest_graph=tiny_ee.rest_graph,
                                   keypoint_vertices=kp)
            with pytest.raises(errors.IndexOutOfRange):
                model.total_loss(s)


class TestScoreMap:
    def test_hand_case(self):
        model = GeoMatchModel(TINY, seed=0)
        v_o = dn.Tensor(np.array([[1.0, 0, 0, 0], [0, 2.0, 0, 0]]))
        v_kp = dn.Tensor(np.array([[3.0, 4.0, 0, 0]] + [[0.0, 0, 0, 0]] * 5))
        scores = model.score_map(v_o, v_kp)
        assert scores.data.shape == (2, 6)
        assert np.allclose(scores.data[:, 0], [3.0, 8.0])
        assert np.array_equal(scores.data[:, 1:], np.zeros((2, 5)))

    def test_bilinear_scaling(self, rng_np, tiny_ee):
        model = GeoMatchModel(TINY, seed=0)
        s = tiny_sample(rng_np, ee=tiny_ee)
        v_o, v_kp = model.encode(s.object_graph, s.ee.rest_graph,
                                 s.ee.keypoint_vertices)
        base = model.score_map(v_o, v_kp).data
        scaled = model.score_map(dn.Tensor(3.0 * v_o.data), v_kp).data
        assert np.allclose(scaled, 3.0 * base, atol=1e-12)


class TestArLogits:
    def test_distance_padding(self, rng_np, tiny_ee):
        model = GeoMatchModel(TINY, seed=0)
        s = tiny_sample(rng_np, ee=tiny_ee)
        v_o, v_kp = model.encode(s.object_graph, s.ee.rest_graph,
                                 s.ee.keypoint_vertices)
        # head 1: one real distance slot + 4 zero slots; verified by
        # comparing against a head evaluated on manually built features
        pts = s.object_graph.cloud.points
        heads = model.ar_logits(v_o, v_kp, [2, 5, 7, 1, 0], pts)
        assert [h.data.shape for h in heads] == [(12, 1)] * 5
        logits = heads[0]
        centered = pts - pts.mean(axis=0)
        scale = np.sqrt((centered ** 2).mean())
        dists = np.zeros((12, 5))
        dists[:, 0] = np.linalg.norm(pts - pts[2], axis=1) / scale
        feats = np.concatenate([v_o.data, np.tile(v_kp.data[1], (12, 1)), dists],
                               axis=1)
        for i in range(4):
            feats = feats @ model.store[f"ar1.w{i}"].data + model.store[f"ar1.b{i}"].data
            if i < 3:
                feats = np.maximum(feats, 0.0)
        assert np.allclose(logits.data, feats, atol=1e-12)

    def test_prefix_length_enforced(self, rng_np, tiny_ee):
        model = GeoMatchModel(TINY, seed=0)
        s = tiny_sample(rng_np, ee=tiny_ee)
        v_o, v_kp = model.encode(s.object_graph, s.ee.rest_graph,
                                 s.ee.keypoint_vertices)
        for contacts in ([1], [1, 2, 3, 4], [1] * 7):
            with pytest.raises(errors.SchemaError):
                model.ar_logits(v_o, v_kp, contacts, s.object_graph.cloud.points)

    def test_zero_distance_at_prev_contact(self, rng_np, tiny_ee):
        model = GeoMatchModel(TINY, seed=0)
        s = tiny_sample(rng_np, ee=tiny_ee)
        pts = s.object_graph.cloud.points
        centered = pts - pts.mean(axis=0)
        scale = np.sqrt((centered ** 2).mean())
        d = np.linalg.norm(pts - pts[4], axis=1) / scale
        assert d[4] == 0.0


class TestOneHeadForward:
    """Rollouts run the heads through `dn.forward_chains`, teacher-forced
    training through `dn.dense_chains`: the same logits, bit for bit."""

    CONFIGS = (TINY, TestKeypointReceptiveField.MID,
               ModelConfig(gcn_hidden=(6,), gcn_out=8, proj_dim=5,
                           ar_hidden=(9, 3, 7)),
               ModelConfig(gcn_hidden=(6,), gcn_out=8, proj_dim=3,
                           ar_hidden=(5,)))

    # the full-size heads on a one-layer encoder, which these tests skip
    FULL_HEADS = ModelConfig(gcn_hidden=(6,), gcn_out=8)

    @given(st.sampled_from(CONFIGS), st.integers(0, 2 ** 31 - 1),
           st.integers(2, 40))
    @settings(max_examples=60, deadline=None)
    def test_rollout_is_the_teacher_forced_argmax(self, tiny_ee, config,
                                                  seed, s):
        self.assert_teacher_forced_argmax(tiny_ee, config, seed, s)

    @pytest.mark.parametrize("seed", range(3))
    def test_rollout_is_the_teacher_forced_argmax_in_row_halves(self, tiny_ee,
                                                                seed):
        """At S = 2048 the heads run in two row halves, in training and in
        every rollout step, while `pair_inputs` forms the first layer's
        products over whole rows."""
        s = 2048
        weights = sum(w.data.size for w, _, _ in
                      GeoMatchModel(self.FULL_HEADS).head_layers(1))
        assert s * weights >= dn._HALVE_ELEMENTS
        self.assert_teacher_forced_argmax(tiny_ee, self.FULL_HEADS, seed, s)

    @staticmethod
    def assert_teacher_forced_argmax(tiny_ee, config, seed, s):
        """Each contact is the argmax of `ar_logits` teacher-forced on the
        rollout's contacts, and the score is c0's score-map entry plus the
        selected logits, added in order."""
        rng = np.random.default_rng(seed)
        model = GeoMatchModel(config, seed=seed % 1000)
        for name, p in model.store.items():     # biases start at zero
            if ".b" in name:
                p.data = rng.normal(size=p.data.shape)
        graph = knn_graph(PointCloud(
            rng.normal(scale=rng.uniform(0.01, 1.0), size=(s, 3))), 1)
        v_obj = dn.Tensor(rng.normal(size=(s, config.proj_dim)))
        v_kp = dn.Tensor(rng.normal(size=(6, config.proj_dim)))
        c0 = int(rng.integers(0, s))
        pair = pair_inputs(model, graph, tiny_ee, (v_obj, v_kp))
        prop = rollout(model, graph, tiny_ee, c0, pair=pair)
        assert prop.contacts[0] == c0
        heads = model.ar_logits(v_obj, v_kp, prop.contacts, graph.cloud.points)
        assert len(heads) == 5
        total = float(model.score_map(v_obj, v_kp).data[c0, 0])
        for n, logits in enumerate(heads, start=1):
            assert logits.shape == (s, 1)
            assert prop.contacts[n] == int(np.argmax(logits.data[:, 0]))
            total += float(logits.data[prop.contacts[n], 0])
        assert prop.score.hex() == total.hex()

    def test_contacts_out_of_range(self, rng_np):
        model = GeoMatchModel(TINY, seed=0)
        pts = rng_np.normal(size=(7, 3))
        v_obj, v_kp = dn.Tensor(rng_np.normal(size=(7, 4))), dn.Tensor(
            rng_np.normal(size=(6, 4)))
        for c in (7, -1):
            for at in range(5):
                contacts = [0] * 5
                contacts[at] = c
                with pytest.raises(errors.IndexOutOfRange):
                    model.ar_logits(v_obj, v_kp, contacts, pts)
            with pytest.raises(errors.IndexOutOfRange):
                contact_distances(pts, c, distance_scale(pts))


class TestTotalLoss:
    def test_zero_weight_closed_form(self, rng_np, tiny_ee):
        model = GeoMatchModel(TINY, seed=0)
        for name, p in model.store.items():
            p.data = np.zeros_like(p.data)
        s = tiny_sample(rng_np, ee=tiny_ee)
        # force co to all zeros via an all-zero cg
        from geomatch.contact_maps import ContactMapSet
        maps = ContactMapSet(prox=s.maps.prox, cg=np.zeros(6, dtype=np.int8),
                             co=np.zeros_like(s.maps.co), m=s.maps.m,
                             threshold=s.maps.threshold)
        s.maps = maps
        total, loss_f, loss_m = model.total_loss(s, alpha=0.5, beta=0.5)
        ln2 = np.log(2.0)
        assert loss_f.item() == pytest.approx(6 * ln2, rel=1e-12)
        assert loss_m.item() == pytest.approx(5 * ln2, rel=1e-12)
        assert total.item() == pytest.approx(0.5 * 6 * ln2 + 0.5 * 5 * ln2,
                                             rel=1e-12)

    def test_hyperparameter_defaults(self):
        from geomatch.model import (DEFAULT_ALPHA, DEFAULT_BETA,
                                    DEFAULT_EPOCHS, DEFAULT_LAMBDA_A,
                                    DEFAULT_LAMBDA_B, DEFAULT_LR)
        assert (DEFAULT_ALPHA, DEFAULT_BETA) == (0.5, 0.5)
        assert (DEFAULT_LAMBDA_A, DEFAULT_LAMBDA_B) == (500.0, 200.0)
        assert DEFAULT_LR == 1e-4
        assert DEFAULT_EPOCHS == 200

    def test_teacher_forcing_uses_ground_truth_prefixes(self, rng_np, tiny_ee):
        # the head loss conditions on gt_contacts, never on the model's own
        # rollout: corrupting gt prefixes changes the loss, recomputing with
        # the originals restores it exactly
        model = GeoMatchModel(TINY, seed=1)
        s = tiny_sample(rng_np, ee=tiny_ee)
        first = model.total_loss(s)[0].item()
        original = s.gt_contacts.copy()
        s.gt_contacts = (original + 3) % len(s.object_graph.cloud)
        corrupted = model.total_loss(s)[0].item()
        assert corrupted != first
        s.gt_contacts = original
        assert model.total_loss(s)[0].item() == first

    def test_tape_node_count(self, rng_np, tiny_ee):
        # one tape node per op: a GCN layer is spmm + dense, a head layer dense
        model = GeoMatchModel(TINY, seed=0)
        total, _, _ = model.total_loss(tiny_sample(rng_np, ee=tiny_ee))
        ops = Counter()
        seen, stack = set(), [total]
        while stack:
            node = stack.pop()
            if id(node) in seen or node._backward is None:
                continue
            seen.add(id(node))
            ops[node._backward.__qualname__.split(".")[0]] += 1
            stack.extend(node._parents)
        gcn_layers = 2 * (len(TINY.gcn_hidden) + 1)
        head_layers = 5 * (len(TINY.ar_hidden) + 1)
        assert ops["spmm"] == gcn_layers
        # `dense` and `dense_chains` both put a layer on the tape through
        # `_dense_node`
        assert ops["_dense_node"] == gcn_layers + head_layers
        # plus 2 projections; the keypoint rows' gather, score map transpose
        # and matmul; per head the keypoint's one-row gather (its first
        # dense layer takes the parts unconcatenated); one BCE over the
        # score map's columns and one over the heads' logits;
        # alpha * loss_f + beta * loss_m
        assert ops["gather_rows"] == 1 + 5
        assert ops["bce_with_pos_weight"] == 2
        assert ops["scale"] == 2 and ops["add"] == 1
        assert "concat_cols" not in ops
        assert sum(ops.values()) == (2 * gcn_layers + head_layers + 2 + 3
                                     + 5 + 2 + 3) == 51

    def test_gradient_check_tiny(self, rng_np, tiny_ee):
        model = GeoMatchModel(TINY, seed=2)
        s = tiny_sample(rng_np, ee=tiny_ee)
        loss, _, _ = model.total_loss(s)
        dn.backward(loss)
        grads = {name: p.grad.copy() for name, p in model.store.items()}
        model.store.zero_grad()
        # spot-check three parameters against central differences. The loss
        # is ~354, so rounding moves (up - down) / (2 eps) by ~1e-16 * 354 /
        # eps: ~2e-8 at eps = 1e-6, a 0.3% error on entries of ~7e-6. At
        # eps = 1e-4 rounding gives ~4e-10 and the O(eps^2) truncation error
        # stays far below rel 1e-4 too.
        eps = 1e-4
        for name in ("obj_enc.w0", "grip_proj.w", "ar3.w2"):
            p = model.store[name]
            flat = p.data.reshape(-1)
            idxs = rng_np.choice(flat.size, size=min(6, flat.size), replace=False)
            for i in idxs:
                old = flat[i]
                flat[i] = old + eps
                up = model.total_loss(s)[0].item()
                flat[i] = old - eps
                down = model.total_loss(s)[0].item()
                flat[i] = old
                fd = (up - down) / (2 * eps)
                assert grads[name].reshape(-1)[i] == pytest.approx(
                    fd, rel=1e-4, abs=1e-9)


# the full-size network's weight file: every parameter's name and shape, in
# file order; splitting a layer's input must not change it
FULL_SIZE_LAYOUT = [
    ("obj_enc.w0", (3, 256)), ("obj_enc.b0", (256,)),
    ("obj_enc.w1", (256, 256)), ("obj_enc.b1", (256,)),
    ("obj_enc.w2", (256, 256)), ("obj_enc.b2", (256,)),
    ("obj_enc.w3", (256, 512)), ("obj_enc.b3", (512,)),
    ("obj_proj.w", (512, 64)),
    ("grip_enc.w0", (3, 256)), ("grip_enc.b0", (256,)),
    ("grip_enc.w1", (256, 256)), ("grip_enc.b1", (256,)),
    ("grip_enc.w2", (256, 256)), ("grip_enc.b2", (256,)),
    ("grip_enc.w3", (256, 512)), ("grip_enc.b3", (512,)),
    ("grip_proj.w", (512, 64)),
    ("ar1.w0", (133, 256)), ("ar1.b0", (256,)), ("ar1.w1", (256, 256)),
    ("ar1.b1", (256,)), ("ar1.w2", (256, 256)), ("ar1.b2", (256,)),
    ("ar1.w3", (256, 1)), ("ar1.b3", (1,)),
    ("ar2.w0", (133, 256)), ("ar2.b0", (256,)), ("ar2.w1", (256, 256)),
    ("ar2.b1", (256,)), ("ar2.w2", (256, 256)), ("ar2.b2", (256,)),
    ("ar2.w3", (256, 1)), ("ar2.b3", (1,)),
    ("ar3.w0", (133, 256)), ("ar3.b0", (256,)), ("ar3.w1", (256, 256)),
    ("ar3.b1", (256,)), ("ar3.w2", (256, 256)), ("ar3.b2", (256,)),
    ("ar3.w3", (256, 1)), ("ar3.b3", (1,)),
    ("ar4.w0", (133, 256)), ("ar4.b0", (256,)), ("ar4.w1", (256, 256)),
    ("ar4.b1", (256,)), ("ar4.w2", (256, 256)), ("ar4.b2", (256,)),
    ("ar4.w3", (256, 1)), ("ar4.b3", (1,)),
    ("ar5.w0", (133, 256)), ("ar5.b0", (256,)), ("ar5.w1", (256, 256)),
    ("ar5.b1", (256,)), ("ar5.w2", (256, 256)), ("ar5.b2", (256,)),
    ("ar5.w3", (256, 1)), ("ar5.b3", (1,)),
]


class TestWeightFormat:
    def test_full_size_layout_pinned(self):
        store = GeoMatchModel(seed=None).store
        assert len(FULL_SIZE_LAYOUT) == 58
        assert [(n, p.data.shape) for n, p in store.items()] == FULL_SIZE_LAYOUT

    def test_written_layout_loads(self, tmp_path):
        # manifest and blob written by hand from the pinned layout: each
        # parameter a distinct run of values at contiguous byte offsets
        manifest, chunks, offset = [], [], 0
        for name, shape in FULL_SIZE_LAYOUT:
            size = int(np.prod(shape))
            manifest.append({"name": name, "shape": list(shape),
                             "byte_offset": 8 * offset})
            chunks.append(np.arange(offset, offset + size, dtype="<f8"))
            offset += size
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        (tmp_path / "weights.bin").write_bytes(np.concatenate(chunks).tobytes())
        model = GeoMatchModel(seed=None)
        dn.load_weights(model.store, tmp_path)
        for (name, shape), chunk in zip(FULL_SIZE_LAYOUT, chunks):
            assert np.array_equal(model.store[name].data, chunk.reshape(shape))
        save_model(model, tmp_path / "again")
        assert (tmp_path / "again" / "weights.bin").read_bytes() == \
            (tmp_path / "weights.bin").read_bytes()
        assert json.loads((tmp_path / "again" / "manifest.json").read_text()) \
            == manifest


class TestTraining:
    def make_set(self, tmp_path):
        man = generate_toy_dataset(seed=5, out_dir=tmp_path, s_o=32, s_g=32,
                                   object_ids=["sphere_small"])
        return load_records(man, split="all", m=5)

    def test_reproducible_loss_log(self, tmp_path):
        samples = self.make_set(tmp_path)
        h1 = train(GeoMatchModel(TINY, seed=3), samples, epochs=4, lr=1e-3, seed=9)
        h2 = train(GeoMatchModel(TINY, seed=3), samples, epochs=4, lr=1e-3, seed=9)
        assert h1 == h2

    def test_loss_decreases(self, tmp_path):
        samples = self.make_set(tmp_path)
        hist = train(GeoMatchModel(TINY, seed=3), samples, epochs=12, lr=1e-3,
                     seed=0)
        assert hist[-1]["loss_total"] < hist[0]["loss_total"]

    def test_empty_dataset(self):
        with pytest.raises(errors.EmptyDataset):
            train(GeoMatchModel(TINY, seed=0), [], epochs=1)

    def test_loss_csv_roundtrip(self, tmp_path):
        hist = [{"epoch": 1, "loss_total": 1.5, "loss_f": 1.0, "loss_m": 0.5},
                {"epoch": 2, "loss_total": 0.7, "loss_f": 0.4, "loss_m": 0.3}]
        write_loss_csv(hist, tmp_path / "loss.csv")
        assert read_loss_csv(tmp_path / "loss.csv") == hist

    def test_model_save_load_identical_outputs(self, tmp_path, rng_np, tiny_ee):
        model = GeoMatchModel(TINY, seed=4)
        s = tiny_sample(rng_np, ee=tiny_ee)
        save_model(model, tmp_path / "w")
        back = load_model(tmp_path / "w")
        a, _ = model.encode(s.object_graph, s.ee.rest_graph, s.ee.keypoint_vertices)
        b, _ = back.encode(s.object_graph, s.ee.rest_graph, s.ee.keypoint_vertices)
        assert np.array_equal(a.data, b.data)


    def test_load_model_holds_no_adam_moments(self, tmp_path):
        save_model(GeoMatchModel(TINY, seed=4), tmp_path / "w")
        back = load_model(tmp_path / "w")
        assert back.store._m == {} and back.store._v == {}

    def test_load_model_skips_random_init(self, tmp_path, monkeypatch):
        model = GeoMatchModel(TINY, seed=4)
        save_model(model, tmp_path / "w")
        monkeypatch.setattr(dn, "glorot_init",
                            lambda *a: pytest.fail("random init while loading"))
        back = load_model(tmp_path / "w")
        for name, p in model.store.items():
            assert np.array_equal(back.store[name].data, p.data)


class TestDeterminism:
    def test_same_seed_bit_identical_forward(self, rng_np, tiny_ee):
        s = tiny_sample(rng_np, ee=tiny_ee)
        a = GeoMatchModel(TINY, seed=8)
        b = GeoMatchModel(TINY, seed=8)
        kp = s.ee.keypoint_vertices
        va, _ = a.encode(s.object_graph, s.ee.rest_graph, kp)
        vb, _ = b.encode(s.object_graph, s.ee.rest_graph, kp)
        assert np.array_equal(va.data, vb.data)

    def test_different_seed_differs(self, rng_np, tiny_ee):
        s = tiny_sample(rng_np, ee=tiny_ee)
        a = GeoMatchModel(TINY, seed=8)
        b = GeoMatchModel(TINY, seed=9)
        kp = s.ee.keypoint_vertices
        va, _ = a.encode(s.object_graph, s.ee.rest_graph, kp)
        vb, _ = b.encode(s.object_graph, s.ee.rest_graph, kp)
        assert not np.array_equal(va.data, vb.data)
