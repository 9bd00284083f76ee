"""Toy dataset generation, record loading and filtering."""

import json
import math

import numpy as np
import pytest

from geomatch import dataset, errors
from geomatch.contact_maps import gripper_contact_map
from geomatch.dataset import (PincerParams, _pincer_pose, filter_by_ee,
                              generate_toy_dataset, load_manifest,
                              load_records, surface_distance)
from geomatch.kinematics import keypoint_positions


class TestPincerClosure:
    def test_sphere_closed_form(self, pincer):
        # fingertips land exactly at +-r on the grasp axis; joint angle from
        # planar trigonometry: sin(phi) = (w - 2r) / (2L)
        params = PincerParams()
        r = 0.042
        pose, contacts = _pincer_pose(params, 2 * r, [1, 0, 0], [0, 0, -1],
                                      np.zeros(3))
        expected_phi = math.asin((params.finger_sep - 2 * r)
                                 / (2 * params.finger_len))
        assert pose.theta[0] == pytest.approx(expected_phi)
        assert pose.theta[1] == pytest.approx(-expected_phi)
        kp = keypoint_positions(pincer, pose)
        assert np.abs(kp[:2] - contacts).max() < 1e-9
        assert np.allclose(contacts[0], [-r, 0, 0], atol=1e-12)
        assert np.allclose(contacts[1], [r, 0, 0], atol=1e-12)

    def test_unreachable_width(self):
        with pytest.raises(errors.SchemaError):
            _pincer_pose(PincerParams(), 0.5, [1, 0, 0], [0, 0, -1], np.zeros(3))


class TestSurfaceDistance:
    def test_sphere(self):
        d = surface_distance("sphere", {"r": 0.05},
                             [[0.05, 0, 0], [0.07, 0, 0], [0, 0, 0]])
        assert np.allclose(d, [0.0, 0.02, 0.05])

    def test_box(self):
        d = surface_distance("box", {"half": (1.0, 1.0, 1.0)},
                             [[1.0, 0, 0], [2.0, 0, 0], [0, 0, 0], [1.5, 1.5, 0]])
        assert np.allclose(d, [0.0, 1.0, 1.0, math.sqrt(0.5)])

    def test_cylinder(self):
        d = surface_distance("cylinder", {"r": 1.0, "hh": 0.5},
                             [[1.0, 0, 0], [0, 0, 0.5], [0, 0, 0], [2.0, 0, 2.0]])
        assert np.allclose(d, [0.0, 0.0, 0.5, math.hypot(1.0, 1.5)])


class TestObjectSampling:
    def test_points_on_surface(self, rng_np):
        from geomatch.rng import Rng
        for obj_id, kind, shape in dataset.TOY_OBJECTS:
            cloud = dataset.sample_object(kind, shape, 100, Rng(5))
            d = surface_distance(kind, shape, cloud.points)
            assert d.max() < 1e-9, obj_id
            assert np.allclose(np.linalg.norm(cloud.normals, axis=1), 1.0)


class TestGenerateToyDataset:
    def test_manifest_contents(self, toy_dataset):
        man = toy_dataset
        assert len(man.objects) == 6
        assert set(man.end_effectors) == {"pincer", "claw"}
        # >= 4 grasps per gripper-object pair
        counts = {}
        for r in man.records:
            counts[(r.object_id, r.ee_id)] = counts.get((r.object_id, r.ee_id), 0) + 1
        assert all(v >= 4 for v in counts.values())
        assert len(counts) == 12

    def test_split_disjoint_and_80_20(self, toy_dataset):
        man = toy_dataset
        train, val = set(man.split["train"]), set(man.split["val"])
        assert not train & val
        assert train | val == set(man.objects)
        assert len(train) == 5 and len(val) == 1

    def test_every_record_contacts(self, toy_dataset):
        man = toy_dataset
        ees = dataset.load_ee_models(man)
        clouds = dataset.load_object_clouds(man)
        for r in man.records:
            kp = keypoint_positions(ees[r.ee_id], r.pose)
            cg = gripper_contact_map(clouds[r.object_id], kp, 0.04)
            assert cg.sum() >= 2

    def test_keypoints_near_surface_analytically(self, toy_dataset):
        shapes = {oid: (k, s) for oid, k, s in dataset.TOY_OBJECTS}
        ees = dataset.load_ee_models(toy_dataset)
        for r in toy_dataset.records:
            kind, shape = shapes[r.object_id]
            kp = keypoint_positions(ees[r.ee_id], r.pose)
            d = surface_distance(kind, shape, kp)
            assert (d < 0.04).sum() >= 2

    def test_deterministic_regeneration(self, tmp_path):
        a = generate_toy_dataset(seed=3, out_dir=tmp_path / "a", s_o=48, s_g=48,
                                 object_ids=["sphere_small"])
        b = generate_toy_dataset(seed=3, out_dir=tmp_path / "b", s_o=48, s_g=48,
                                 object_ids=["sphere_small"])
        ra = (tmp_path / "a" / "records.jsonl").read_text()
        rb = (tmp_path / "b" / "records.jsonl").read_text()
        assert ra == rb
        ca = (tmp_path / "a" / "objects" / "sphere_small.csv").read_text()
        cb = (tmp_path / "b" / "objects" / "sphere_small.csv").read_text()
        assert ca == cb

    def test_unknown_object_id(self, tmp_path):
        with pytest.raises(errors.SchemaError):
            generate_toy_dataset(seed=0, out_dir=tmp_path, object_ids=["nope"])


class TestLoadRecords:
    def test_samples_complete(self, toy_dataset):
        samples = load_records(toy_dataset, split="train", m=10)
        assert samples
        for s in samples[:8]:
            assert s.maps.prox.sum(axis=0).tolist() == [10] * 6
            assert s.gt_contacts.shape == (6,)
            assert s.keypoint_world.shape == (6, 3)
            # co columns are 0 or m ones depending on cg
            sums = s.maps.co.sum(axis=0)
            assert set(sums.tolist()) <= {0, 10}

    def test_far_record_skipped(self, toy_dataset, caplog):
        from geomatch.dataset import DatasetManifest, GraspRecord
        from geomatch.kinematics import Pose
        far = GraspRecord(
            object_id=next(iter(toy_dataset.objects)), ee_id="pincer",
            pose=Pose([5.0, 5.0, 5.0], [1, 0, 0, 0, 1, 0], [0.0, 0.0]))
        man = DatasetManifest(
            base_dir=toy_dataset.base_dir, objects=dict(toy_dataset.objects),
            end_effectors=dict(toy_dataset.end_effectors), records=[far],
            split=toy_dataset.split, s_o=toy_dataset.s_o, s_g=toy_dataset.s_g)
        with caplog.at_level("WARNING"):
            samples = load_records(man, split="all")
        assert samples == []
        assert "skipping" in caplog.text

    def test_split_selection(self, toy_dataset):
        train = load_records(toy_dataset, split="train", m=5)
        val = load_records(toy_dataset, split="val", m=5)
        train_objs = {s.object_id for s in train}
        val_objs = {s.object_id for s in val}
        assert train_objs <= set(toy_dataset.split["train"])
        assert val_objs <= set(toy_dataset.split["val"])
        assert not train_objs & val_objs

    @pytest.mark.parametrize("split", ["train", "val"])
    def test_graphs_built_for_split_objects_only(self, toy_dataset,
                                                 monkeypatch, split):
        built = []
        knn_graph = dataset.knn_graph

        def counting(cloud, k):
            built.append(knn_graph(cloud, k))
            return built[-1]

        monkeypatch.setattr(dataset, "knn_graph", counting)
        samples = load_records(toy_dataset, split=split)
        assert len(built) == len(toy_dataset.split[split])
        assert len(built) < len(toy_dataset.objects)
        assert {id(s.object_graph) for s in samples} <= {id(g) for g in built}


class TestManifestRoundtrip:
    def test_save_load(self, toy_dataset):
        man = load_manifest(toy_dataset.base_dir)
        assert man.objects == toy_dataset.objects
        assert man.split == toy_dataset.split
        assert len(man.records) == len(toy_dataset.records)
        for a, b in zip(man.records, toy_dataset.records):
            assert a.object_id == b.object_id and a.ee_id == b.ee_id
            assert np.allclose(a.pose.t, b.pose.t)
            assert np.allclose(a.pose.theta, b.pose.theta)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(errors.MissingFile):
            load_manifest(tmp_path / "nothing")

    def test_overlapping_split_rejected(self, toy_dataset, tmp_path):
        with open(f"{toy_dataset.base_dir}/manifest.json") as fh:
            doc = json.load(fh)
        doc["split"]["val"] = doc["split"]["train"][:1]
        bad = tmp_path / "manifest.json"
        bad.write_text(json.dumps(doc))
        (tmp_path / "records.jsonl").write_text("")
        with pytest.raises(errors.SchemaError):
            load_manifest(bad)


class TestFilterByEe:
    def test_single_gripper(self, toy_dataset):
        man = filter_by_ee(toy_dataset, ["pincer"])
        assert all(r.ee_id == "pincer" for r in man.records)
        assert man.objects == toy_dataset.objects
        expected = sum(1 for r in toy_dataset.records if r.ee_id == "pincer")
        assert len(man.records) == expected

    def test_identity(self, toy_dataset):
        man = filter_by_ee(toy_dataset, ["pincer", "claw"])
        assert len(man.records) == len(toy_dataset.records)

    def test_unknown(self, toy_dataset):
        with pytest.raises(errors.UnknownEe):
            filter_by_ee(toy_dataset, ["shadowhand"])


class TestScaleConstants:
    def test_toy_and_full_scale_constants(self):
        assert dataset.DEFAULT_TOY_POINTS == 256
        assert dataset.FULL_SCALE_POINTS_OBJECT == 2048
        assert dataset.FULL_SCALE_POINTS_GRIPPER == 1000
