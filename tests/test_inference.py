"""Keypoint-0 sampling and autoregressive rollout."""

import hashlib

import numpy as np
import pytest

from geomatch import diffnet as dn
from geomatch import errors
from geomatch.cli import main
from geomatch.dataset import generate_toy_dataset, load_records
from geomatch.geometry import (DEFAULT_KNN_K, GeometryGraph, PointCloud,
                               build_knn_graph, knn_graph, normalize_adjacency)
from geomatch.artifacts import read_jsonl
from geomatch.inference import (pair_inputs, propose_grasps,
                                proposal_from_dict, proposal_to_dict, rollout,
                                sample_keypoint0, save_proposals)
from geomatch.model import GeoMatchModel, ModelConfig, save_model

TINY = ModelConfig(gcn_hidden=(6, 6, 6), gcn_out=8, proj_dim=4,
                   ar_hidden=(6, 6, 6))


@pytest.fixture(scope="module")
def small_world(tmp_path_factory):
    out = tmp_path_factory.mktemp("infer")
    man = generate_toy_dataset(seed=21, out_dir=out, s_o=48, s_g=48,
                               object_ids=["sphere_small"])
    samples = load_records(man, split="all", m=8)
    model = GeoMatchModel(TINY, seed=6)
    return model, samples


class TestSampleKeypoint0:
    def test_rank_ordering(self):
        picked = sample_keypoint0(np.array([0.1, 0.9, 0.5]), [0, 1, 2])
        assert picked == [1, 2, 0]

    def test_tie_break_lowest_index(self):
        picked = sample_keypoint0(np.zeros(5), [0, 1])
        assert picked == [0, 1]

    def test_default_ranks(self):
        from geomatch.inference import DEFAULT_RANKS
        assert DEFAULT_RANKS == (0, 20, 50, 100)

    def test_clamping_warns(self, caplog):
        with caplog.at_level("WARNING"):
            picked = sample_keypoint0(np.array([3.0, 1.0, 2.0]), [0, 10])
        assert picked[1] == 1      # worst vertex after clamping to rank 2
        assert "clamped" in caplog.text

    def test_empty_scores(self):
        with pytest.raises(errors.EmptyScores):
            sample_keypoint0(np.array([]), [0])


class TestRollout:
    def test_deterministic(self, small_world):
        model, samples = small_world
        s = samples[0]
        a = rollout(model, s.object_graph, s.ee, 3)
        b = rollout(model, s.object_graph, s.ee, 3)
        assert np.array_equal(a.contacts, b.contacts)
        assert a.score == b.score

    def test_six_contacts_valid(self, small_world):
        model, samples = small_world
        s = samples[0]
        prop = rollout(model, s.object_graph, s.ee, 0)
        assert prop.contacts.shape == (6,)
        assert prop.contacts.min() >= 0
        assert prop.contacts.max() < len(s.object_graph.cloud)
        assert np.allclose(prop.contact_points,
                           s.object_graph.cloud.points[prop.contacts])

    def test_argmax_recomputation(self, small_world):
        # every c_n equals the literal argmax of its logit vector
        model, samples = small_world
        s = samples[0]
        prop = rollout(model, s.object_graph, s.ee, 5)
        v_o, v_kp = model.encode(s.object_graph, s.ee.rest_graph,
                                 s.ee.keypoint_vertices)
        heads = model.ar_logits(v_o, v_kp, prop.contacts,
                                s.object_graph.cloud.points)
        for n, logits in enumerate(heads, start=1):
            assert prop.contacts[n] == int(np.argmax(logits.data))

    def test_out_of_range_c0(self, small_world):
        model, samples = small_world
        with pytest.raises(errors.IndexOutOfRange):
            rollout(model, samples[0].object_graph, samples[0].ee, 48)

    @pytest.mark.parametrize("other_size", [30, 70])
    def test_embeddings_of_another_object(self, small_world, other_size):
        # a broadcast over mismatched rows must not pass as a result
        model, samples = small_world
        s = samples[0]
        other = knn_graph(PointCloud(np.random.default_rng(other_size).normal(
            scale=0.03, size=(other_size, 3))), 3)
        embeddings = model.encode(other, s.ee.rest_graph, s.ee.keypoint_vertices)
        with pytest.raises(errors.ShapeMismatch):
            rollout(model, s.object_graph, s.ee, 3,
                    pair=pair_inputs(model, s.object_graph, s.ee, embeddings))
        with pytest.raises((errors.ShapeMismatch, errors.IndexOutOfRange)):
            propose_grasps(model, s.object_graph, s.ee, ranks=(0, 5, 11),
                           embeddings=embeddings)


class TestProposeGrasps:
    def test_one_proposal_per_rank(self, small_world):
        model, samples = small_world
        s = samples[0]
        props = propose_grasps(model, s.object_graph, s.ee, ranks=(0, 5, 11),
                               object_id="obj")
        assert len(props) == 3
        assert [p.keypoint0_rank for p in props] == [0, 5, 11]
        assert all(p.object_id == "obj" for p in props)

    def test_one_encoder_pass(self, small_world, monkeypatch):
        model, samples = small_world
        s = samples[0]
        encode, calls = model.encode, []
        monkeypatch.setattr(model, "encode",
                            lambda *args: calls.append(args) or encode(*args))
        props = propose_grasps(model, s.object_graph, s.ee, ranks=(0, 5, 11))
        assert len(calls) == 1
        for p in props:     # rollout alone encodes for itself, same result
            alone = rollout(model, s.object_graph, s.ee, int(p.contacts[0]),
                            p.keypoint0_rank)
            assert np.array_equal(alone.contacts, p.contacts)
            assert alone.score == p.score
        assert len(calls) == 4

    def test_rollouts_of_a_pair_build_no_tensor(self, small_world, monkeypatch):
        model, samples = small_world
        s = samples[0]
        want = propose_grasps(model, s.object_graph, s.ee, ranks=(0, 5, 11))
        pair = pair_inputs(model, s.object_graph, s.ee)
        monkeypatch.setattr(dn.Tensor, "__init__",
                            lambda *a, **kw: pytest.fail("built a Tensor"))
        for p in want:
            got = rollout(model, s.object_graph, s.ee, int(p.contacts[0]),
                          p.keypoint0_rank, pair=pair)
            assert proposal_to_dict(got) == proposal_to_dict(p)

    def test_given_embeddings_equal_its_own_pass(self, small_world, monkeypatch):
        model, samples = small_world
        s = samples[0]
        v_obj, _ = model.encode(s.object_graph)
        _, v_kp = model.encode(gripper_graph=s.ee.rest_graph,
                               keypoint_vertices=s.ee.keypoint_vertices)
        want = propose_grasps(model, s.object_graph, s.ee, ranks=(0, 5, 11),
                              object_id="obj")
        monkeypatch.setattr(model, "encode",
                            lambda *a, **kw: pytest.fail("encoded again"))
        got = propose_grasps(model, s.object_graph, s.ee, ranks=(0, 5, 11),
                             object_id="obj", embeddings=(v_obj, v_kp))
        assert ([proposal_to_dict(p) for p in got]
                == [proposal_to_dict(p) for p in want])

    def test_single_rank_best_chain(self, small_world):
        model, samples = small_world
        s = samples[0]
        scores = model.score_map(*model.encode(
            s.object_graph, s.ee.rest_graph, s.ee.keypoint_vertices)).data
        best = int(np.lexsort((np.arange(scores.shape[0]), -scores[:, 0]))[0])
        props = propose_grasps(model, s.object_graph, s.ee, ranks=(0,))
        assert props[0].contacts[0] == best

    def test_permutation_consistency(self, small_world, rng_np):
        model, samples = small_world
        s = samples[0]
        graph = s.object_graph
        size = graph.size
        edges = build_knn_graph(graph.cloud, DEFAULT_KNN_K)
        assert np.array_equal(normalize_adjacency(edges, size).w,
                              graph.normalized_adjacency.w)
        perm = rng_np.permutation(size)
        inv = np.argsort(perm)
        permuted = GeometryGraph(PointCloud(graph.cloud.points[perm]),
                                 normalize_adjacency(inv[edges], size))
        base = propose_grasps(model, graph, s.ee, ranks=(0, 3))
        moved = propose_grasps(model, permuted, s.ee, ranks=(0, 3))
        for a, b in zip(base, moved):
            assert np.array_equal(perm[b.contacts], a.contacts)
            assert np.allclose(a.contact_points, b.contact_points)

    def test_jsonl_roundtrip(self, small_world, tmp_path):
        model, samples = small_world
        s = samples[0]
        props = propose_grasps(model, s.object_graph, s.ee, ranks=(0, 2),
                               object_id="sph")
        path = tmp_path / "proposals.jsonl"
        save_proposals(props, path)
        back = read_jsonl(path, proposal_from_dict)
        assert len(back) == 2
        for a, b in zip(props, back):
            assert np.array_equal(a.contacts, b.contacts)
            assert a.score == pytest.approx(b.score)
            assert a.keypoint0_rank == b.keypoint0_rank


class TestPinnedProposals:
    """`infer` on the shared toy dataset with a seeded tiny model. The
    digests are per OpenBLAS kernel (numpy 2.4, OpenBLAS 0.3.31, x86-64):
    the kernels round some products differently and pick other contacts."""

    DIGEST = {
        "SkylakeX": "d171e6efb2ff4d61d254405661fad41e96f573da32615257868771b1ad9cabf6",
        "Haswell": "2b6ad08ae7b985110b585bc1b649c67e6c80e41d21702f1b9da81e6d9693935d",
        "Sandybridge": "e6887e4dc620dc6f91d607416ecc828e5134697f0d34657da3bab3a184660756",
    }

    def test_proposals_unchanged(self, toy_dataset, tmp_path, blas_kernel):
        assert blas_kernel in self.DIGEST, f"no digest pinned for the {blas_kernel} kernel"
        save_model(GeoMatchModel(TINY, seed=6), tmp_path / "w")
        out = tmp_path / "proposals.jsonl"
        assert main(["infer", "--weights", str(tmp_path / "w"),
                     "--manifest", toy_dataset.base_dir, "--split", "all",
                     "--ranks", "0,5,11", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 36
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.DIGEST[blas_kernel]
