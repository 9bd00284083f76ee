"""Toy dataset generation, record loading and filtering."""

import hashlib
import json
import math

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from geomatch import dataset, errors
from geomatch.contact_maps import gripper_contact_map
from geomatch.dataset import (PincerParams, _pincer_pose, filter_by_ee,
                              generate_toy_dataset, load_manifest,
                              load_records, surface_distance)
from geomatch.kinematics import keypoint_positions
from geomatch.rng import _LANE_MIN_DRAWS, Rng


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


# sha256 of the float64 points and normals bytes, pinned when each cloud was
# still sampled point by point; the 6000-point clouds draw in numpy lanes
OBJECT_PINS = {
    ("sphere_small", 128): ("9820e4a146afc93973c5cc21ecff5a12a9451114db05d94b3f12cc88df33a4ac",
        "932a5b69511b3f822f197d00fd1ffe1a3fc30870b62c9853883d47f557d795dc"),
    ("sphere_large", 128): ("b5bb00a1ee6d32ecd7fe8eaccad09a72e69a5ff250de1cc1f665963df6826ab5",
        "d1b681e867b90f58db425e1909c83cea11f2264c50eba8349a5c860c09e7e4be"),
    ("box_cube", 128): ("0a4ab7561745525891b3c6c334e669d9e083bfd6dabc5f8467cfe5492855ddf8",
        "1e6058f3b7913dac4953f58ff9de86db129993b1e04daee3eaed87f7877872ba"),
    ("box_flat", 128): ("97d0a67a77f86bc47e1e34489d7000ef3f559e0850b7906c386d6ed48446e990",
        "e2e8b936db861a4900d28101f14094ec7a1ed8360739a7d06cd62e03f275e24d"),
    ("cyl_slim", 128): ("35feae74ee2e5ba4909f9fc2f129da4927f10c7eb920868c5678ed1222217e7c",
        "b93d68c43d8191b612489d84e051eda6d4ceff58fc9871150bd207bbe111916d"),
    ("cyl_wide", 128): ("a942c57f364e9807d9f03775968afefc33b66652e440499c60d129c4bb886327",
        "00a3e597e72ff39809c718cb18d970fce601cc1605d68c12ec1c55c310e16df8"),
    ("sphere_small", 6000): ("aad39b50fd234149e7fee7e575cb13cb823f46d108f4ace5f54b1daf0d109221",
        "d147e2e550749c3667ec57b19e061f20aa9cac8fbf012f546b63ab444187ea7b"),
    ("sphere_large", 6000): ("da1555da5f9194f2b05d444cc255cdcf8e12e507f6344d438aaea90944f3dd29",
        "c0db9ff71d84377dd8d99841148916510a2a8c68e90415be7fb72a6fed9377af"),
    ("box_cube", 6000): ("1894ef9228eb3cc15b901e2a53ced7f91ca698b995dfa273623d873bb80b8e1d",
        "b0629e9e63475134df3aea9551bc94eef7cca91fc2cd14ca4c6fb10124529e16"),
    ("box_flat", 6000): ("e88edd744fe328f624308017734fb3ae73a7579cd545eeac404ac6bfd482b080",
        "80d6e4f8ff7f017a497bbf19568f5b966084817f9e2618acddf8e8706db2440f"),
    ("cyl_slim", 6000): ("0e135add9f6d701bfc0f14869989f019edc07d1a4322b967c2e2871841e83884",
        "1cdadfea306421fce85f6ef568923b634681c7e50689aa0f3895d7e34def33be"),
    ("cyl_wide", 6000): ("caaf97a1f51d09f0ca33e43c5cbab560ace2e3fd521d89887873bd0910cd6d0a",
        "130075ded038e0673b92d276d7d9e8c862780cbfdd7b75561d4165eb29a1bbc6"),
}

GRIPPER_PINS = {
    ("pincer", 256): ("f0bd8c385378d3013d01944a4915ed83b44a53780c0b3953f2d7d09d263dc2c1",
        "ecd908b6a2c173b815b9354cc037174ab8a632a538d7938c402cf7f465b26e50"),
    ("claw", 256): ("ce3d55eacbe681c167e2b11d9d16e98dc389f165b249861edc9d91c2536c8a4c",
        "8f91c4020f7ee09b7c10c7fa00725bde0fbfa3d5e1d864d34b2bb6919de0cfa8"),
    ("pincer", 6000): ("6043e691b8862bd74f7a0f83fb5aa301a3f90bb22a01eed55aa91de517107eae",
        "59bfe806ad5a26f795c6d213ace25ae2fe990b20a9e9d6ff713954976dc155a0"),
    ("claw", 6000): ("55d552c9434ab5c55f70684785906a2e707076aa428383c2da58e5c28a19ca23",
        "01c5721f8114492b541c91fd85cdc86892c5456cc6184303a2094684ef65f1b2"),
}


def loop_sample(kind: str, params: dict, count: int, rng: Rng):
    """The point-by-point samplers the array code replaced: the reference."""
    pts, nrm = np.empty((count, 3)), np.empty((count, 3))
    if kind == "box":
        a, b, c = params["half"]
        areas = np.array([b * c, b * c, a * c, a * c, a * b, a * b]) * 4.0
        cdf = np.cumsum(areas) / areas.sum()
        normals = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0],
                            [0, -1, 0], [0, 0, 1], [0, 0, -1]], dtype=np.float64)
    elif kind == "cylinder":
        r, hh = params["r"], params["hh"]
        cdf = np.cumsum([2.0 * math.pi * r * 2.0 * hh, math.pi * r * r, math.pi * r * r])
        cdf = cdf / cdf[-1]
    for i in range(count):
        if kind == "sphere":
            v = np.array([rng.normal(), rng.normal(), rng.normal()])
            nrm[i] = v / np.linalg.norm(v)
            pts[i] = params["r"] * nrm[i]
        elif kind == "box":
            f = min(int(np.searchsorted(cdf, rng.random(), side="right")), 5)
            u = (2.0 * rng.random() - 1.0)
            v = (2.0 * rng.random() - 1.0)
            if f < 2:
                pts[i] = [math.copysign(a, normals[f][0]), u * b, v * c]
            elif f < 4:
                pts[i] = [u * a, math.copysign(b, normals[f][1]), v * c]
            else:
                pts[i] = [u * a, v * b, math.copysign(c, normals[f][2])]
            nrm[i] = normals[f]
        else:
            pick = rng.random()
            phi = 2.0 * math.pi * rng.random()
            if pick <= cdf[0]:
                z = (2.0 * rng.random() - 1.0) * hh
                pts[i] = [r * math.cos(phi), r * math.sin(phi), z]
                nrm[i] = [math.cos(phi), math.sin(phi), 0.0]
            else:
                sign = 1.0 if pick <= cdf[1] else -1.0
                rad = r * math.sqrt(rng.random())
                pts[i] = [rad * math.cos(phi), rad * math.sin(phi), sign * hh]
                nrm[i] = [0.0, 0.0, sign]
    return pts, nrm


SIZES = st.floats(0.001, 10.0)
SHAPES = st.one_of(
    st.tuples(st.just("sphere"), st.fixed_dictionaries({"r": SIZES})),
    st.tuples(st.just("box"), st.fixed_dictionaries(
        {"half": st.tuples(SIZES, SIZES, SIZES)})),
    st.tuples(st.just("cylinder"), st.fixed_dictionaries({"r": SIZES, "hh": SIZES})))


def sha256(a: np.ndarray) -> str:
    return hashlib.sha256(a.astype("<f8").tobytes()).hexdigest()


class TestSampledBits:
    @pytest.mark.parametrize("obj_id, count", sorted(OBJECT_PINS))
    def test_object_pins(self, obj_id, count):
        i = [e[0] for e in dataset.TOY_OBJECTS].index(obj_id)
        _, kind, shape = dataset.TOY_OBJECTS[i]
        cloud = dataset.sample_object(kind, shape, count, Rng(100 + i))
        assert (sha256(cloud.points), sha256(cloud.normals)) == \
            OBJECT_PINS[obj_id, count]

    @pytest.mark.parametrize("name, s_g", sorted(GRIPPER_PINS))
    def test_gripper_surface_pins(self, monkeypatch, name, s_g):
        sampled, real = [], dataset.sample_surface

        def keep(*args):
            sampled.append(real(*args))
            return sampled[-1]

        monkeypatch.setattr(dataset, "sample_surface", keep)
        getattr(dataset, f"build_{name}")(s_g=s_g, seed=5)
        cloud, = sampled
        assert (sha256(cloud.points), sha256(cloud.normals)) == \
            GRIPPER_PINS[name, s_g]

    @given(shape=SHAPES, seed=st.integers(0, 2 ** 64 - 1),
           count=st.integers(1, 300) | st.sampled_from(
               [_LANE_MIN_DRAWS // 3, _LANE_MIN_DRAWS // 3 + 1]))
    @settings(max_examples=60, deadline=None)
    def test_matches_point_by_point_loop(self, shape, seed, count):
        kind, params = shape
        cloud = dataset.sample_object(kind, params, count, Rng(seed))
        pts, nrm = loop_sample(kind, params, count, Rng(seed))
        # bytes, so that a zero's sign counts too
        assert cloud.points.tobytes() == pts.tobytes()
        assert cloud.normals.tobytes() == nrm.tobytes()

    @pytest.mark.parametrize("count", [1, 2, 7, 100, _LANE_MIN_DRAWS // 3 + 1])
    @pytest.mark.parametrize("obj_id, kind, shape", dataset.TOY_OBJECTS)
    def test_stream_continues_as_after_scalar_draws(self, obj_id, kind, shape, count):
        # a sphere takes 3 normal() draws per point, the others 3 random()
        bulk, scalar = Rng(29), Rng(29)
        dataset.sample_object(kind, shape, count, bulk)
        draw = scalar.normal if kind == "sphere" else scalar.random
        for _ in range(3 * count):
            draw()
        assert bulk._s == scalar._s
        assert bulk._gauss_cache == scalar._gauss_cache
        assert bulk.normal() == scalar.normal()


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
