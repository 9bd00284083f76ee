"""Contact map construction against brute-force oracles."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geomatch import errors
from geomatch.contact_maps import (ContactMapSet, build_contact_maps,
                                   gripper_contact_map,
                                   object_contact_map, proximity_map,
                                   save_maps)
from geomatch.geometry import PointCloud, nearest_vertices


def brute_force_prox(points, keypoints, m):
    """Independent oracle: sort all vertices per keypoint, mark first m."""
    prox = np.zeros((len(points), len(keypoints)), dtype=np.int8)
    for i, k in enumerate(keypoints):
        order = sorted(range(len(points)),
                       key=lambda v: (float(np.sum((points[v] - k) ** 2)), v))
        for v in order[:m]:
            prox[v, i] = 1
    return prox


class TestProximityMap:
    def test_line_hand_case(self):
        pts = np.stack([np.arange(5.0), np.zeros(5), np.zeros(5)], axis=1)
        cloud = PointCloud(pts)
        kw = np.zeros((6, 3))
        prox = proximity_map(cloud, kw, m=2)
        assert np.array_equal(prox[:, 0], [1, 1, 0, 0, 0])

    def test_m_equals_s_minus_one(self):
        pts = np.arange(21.0).reshape(7, 3)
        prox = proximity_map(PointCloud(pts), np.zeros((6, 3)), m=6)
        assert (prox.sum(axis=0) == 6).all()

    def test_too_few_vertices(self):
        with pytest.raises(errors.TooFewVertices):
            proximity_map(PointCloud(np.zeros((5, 3))), np.zeros((6, 3)), m=5)

    def test_matches_oracle_random(self, rng_np):
        for _ in range(30):
            s = int(rng_np.integers(25, 300))
            m = int(rng_np.integers(1, 24))
            pts = rng_np.normal(size=(s, 3))
            kw = rng_np.normal(size=(6, 3))
            got = proximity_map(PointCloud(pts), kw, m)
            assert np.array_equal(got, brute_force_prox(pts, kw, m))
            assert (got.sum(axis=0) == m).all()


    @pytest.mark.parametrize("seed", range(6))
    def test_lattice_ties(self, seed):
        # keypoints at half-integer offsets from a shuffled integer lattice
        # are exactly as far from two or more vertices
        rng = np.random.default_rng(seed)
        grid = np.stack(np.meshgrid(*[np.arange(4.0)] * 3, indexing="ij"), axis=-1)
        pts = grid.reshape(-1, 3)[rng.permutation(64)]
        kw = rng.integers(0, 4, size=(6, 3)) + 0.5 * rng.integers(0, 2, size=(6, 3))
        d2 = np.sum((pts[None, :, :] - kw[:, None, :]) ** 2, axis=2)
        assert ((d2 == d2.min(axis=1, keepdims=True)).sum(axis=1) > 1).any()
        idx, _ = nearest_vertices(pts, kw)
        near = proximity_map(PointCloud(pts), kw, m=1)
        assert np.array_equal(near, brute_force_prox(pts, kw, 1))
        assert np.array_equal(near.argmax(axis=0), idx)
        for m in (5, 9):
            assert np.array_equal(proximity_map(PointCloud(pts), kw, m),
                                  brute_force_prox(pts, kw, m))


class TestGripperContactMap:
    def test_coincident_keypoint(self):
        pts = np.array([[0.0, 0, 0], [1, 0, 0]])
        kw = np.array([[0.0, 0, 0]] + [[5.0, 0, 0]] * 5)
        cg = gripper_contact_map(PointCloud(pts), kw, threshold=0.04)
        assert cg.tolist() == [1, 0, 0, 0, 0, 0]

    def test_far_keypoint_zero(self):
        pts = np.array([[0.0, 0, 0]])
        kw = np.tile([1.0, 0, 0], (6, 1))
        assert gripper_contact_map(PointCloud(pts), kw, 0.04).sum() == 0

    def test_squared_reading_switch(self):
        pts = np.array([[0.0, 0, 0]])
        kw = np.tile([0.1, 0, 0], (6, 1))   # distance 0.1, squared 0.01
        plain = gripper_contact_map(PointCloud(pts), kw, 0.04)
        squared = gripper_contact_map(PointCloud(pts), kw, 0.04, squared=True)
        assert plain.sum() == 0
        assert squared.sum() == 6

    @given(st.floats(0.001, 0.2), st.floats(0.001, 0.2),
           st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_monotone_in_threshold(self, a, b, seed):
        lo, hi = min(a, b), max(a, b)
        rng = np.random.default_rng(seed)
        cloud = PointCloud(rng.normal(scale=0.05, size=(30, 3)))
        kw = rng.normal(scale=0.05, size=(6, 3))
        cg_lo = gripper_contact_map(cloud, kw, lo)
        cg_hi = gripper_contact_map(cloud, kw, hi)
        assert np.all(cg_lo <= cg_hi)


class TestObjectContactMap:
    def test_all_ones_mask(self, rng_np):
        prox = (rng_np.uniform(size=(20, 6)) > 0.5).astype(np.int8)
        assert np.array_equal(object_contact_map(prox, np.ones(6)), prox)

    def test_all_zeros_mask(self, rng_np):
        prox = (rng_np.uniform(size=(20, 6)) > 0.5).astype(np.int8)
        assert object_contact_map(prox, np.zeros(6)).sum() == 0

    def test_alternating_mask(self, rng_np):
        prox = (rng_np.uniform(size=(20, 6)) > 0.5).astype(np.int8)
        cg = np.array([1, 0, 1, 0, 1, 0])
        co = object_contact_map(prox, cg)
        for i in range(6):
            if cg[i]:
                assert np.array_equal(co[:, i], prox[:, i])
            else:
                assert co[:, i].sum() == 0

    def test_shape_mismatch(self):
        with pytest.raises(errors.ShapeMismatch):
            object_contact_map(np.zeros((5, 4), dtype=np.int8), np.ones(6))


class TestContactMapSet:
    def test_build_and_invariants(self, rng_np):
        cloud = PointCloud(rng_np.normal(scale=0.03, size=(50, 3)))
        kw = rng_np.normal(scale=0.03, size=(6, 3))
        maps = build_contact_maps(cloud, kw, m=5, threshold=0.04)
        assert (maps.prox.sum(axis=0) == 5).all()
        assert np.array_equal(maps.co, maps.prox * maps.cg[None, :])

    def test_invalid_set_rejected(self):
        prox = np.zeros((10, 6), dtype=np.int8)
        prox[:3] = 1
        with pytest.raises(errors.SchemaError):
            ContactMapSet(prox=prox, cg=np.ones(6, dtype=np.int8),
                          co=np.zeros((10, 6), dtype=np.int8), m=3,
                          threshold=0.04)

    def test_json_roundtrip(self, tmp_path, rng_np):
        cloud = PointCloud(rng_np.normal(scale=0.03, size=(40, 3)))
        kw = rng_np.normal(scale=0.03, size=(6, 3))
        maps = build_contact_maps(cloud, kw, m=4, threshold=0.04)
        save_maps(maps, tmp_path / "maps.json")
        doc = json.loads((tmp_path / "maps.json").read_text())
        assert doc["m"] == 4
        assert doc["threshold"] == 0.04
        assert np.array_equal(doc["cg"], maps.cg)
        assert np.array_equal(doc["co"], maps.co)
