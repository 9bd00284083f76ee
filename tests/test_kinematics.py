"""Rotation codecs and forward kinematics against closed forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.transform import Rotation

from geomatch import errors
from geomatch.geometry import PointCloud
from geomatch.ik import LeastSquaresProblem, numeric_jacobian
from geomatch.kinematics import (EndEffectorModel, Joint, KinematicChain,
                                 Keypoint, Link, Palm, Pose,
                                 axis_angle_to_matrix, forward_kinematics,
                                 heuristic_init_pose, keypoint_jacobian,
                                 keypoint_positions, load_chain, load_ee_model,
                                 matrix_to_rot6d, pregrasp_targets,
                                 quat_to_matrix, rest_pose, rot6d_to_matrix,
                                 rotation_between, save_chain)

IDENTITY_Q = np.array([1.0, 0.0, 0.0, 0.0])


def planar_two_link(l1=1.0, l2=1.0):
    """Two revolute joints about +z, links along +x."""
    links = [
        Link("base", None, np.zeros(3), IDENTITY_Q),
        Link("upper", "base", np.zeros(3), IDENTITY_Q),
        Link("lower", "upper", np.array([l1, 0.0, 0.0]), IDENTITY_Q),
        Link("tip", "lower", np.array([l2, 0.0, 0.0]), IDENTITY_Q),
    ]
    joints = [
        Joint("q1", "revolute", "base", "upper", np.array([0, 0, 1.0]),
              (-math.pi, math.pi)),
        Joint("q2", "revolute", "upper", "lower", np.array([0, 0, 1.0]),
              (-math.pi, math.pi)),
        Joint("fix", "fixed", "lower", "tip", np.array([0, 0, 1.0]), (0.0, 0.0)),
    ]
    return KinematicChain(links, joints)


class TestRot6d:
    def test_identity(self):
        assert np.allclose(rot6d_to_matrix([1, 0, 0, 0, 1, 0]), np.eye(3))

    def test_scale_invariance(self):
        assert np.allclose(rot6d_to_matrix([2, 0, 0, 0, 3, 0]), np.eye(3))

    def test_encode_90_about_z(self):
        rot = Rotation.from_euler("z", 90, degrees=True).as_matrix()
        assert np.allclose(matrix_to_rot6d(rot), [0, 1, 0, -1, 0, 0])

    def test_roundtrip_1000_random(self):
        rots = Rotation.random(1000, rng=np.random.default_rng(0)).as_matrix()
        worst = 0.0
        for rot in rots:
            back = rot6d_to_matrix(matrix_to_rot6d(rot))
            worst = max(worst, np.linalg.norm(back - rot))
        assert worst < 1e-9

    def test_orthonormal_det_plus_one(self, rng_np):
        for _ in range(200):
            r6 = rng_np.normal(size=6)
            try:
                rot = rot6d_to_matrix(r6)
            except errors.DegenerateInput:
                continue
            assert np.abs(rot.T @ rot - np.eye(3)).max() < 1e-9
            assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-9)

    def test_scale_property(self, rng_np):
        for _ in range(50):
            r6 = rng_np.normal(size=6)
            a, b = rng_np.uniform(0.1, 10, 2)
            scaled = np.concatenate([a * r6[:3], b * r6[3:]])
            try:
                base = rot6d_to_matrix(r6)
            except errors.DegenerateInput:
                continue
            assert np.allclose(rot6d_to_matrix(scaled), base, atol=1e-9)

    def test_degenerate_inputs(self):
        with pytest.raises(errors.DegenerateInput):
            rot6d_to_matrix([0, 0, 0, 0, 1, 0])
        with pytest.raises(errors.DegenerateInput):
            rot6d_to_matrix([1, 0, 0, 2, 0, 0])

    def test_not_a_rotation(self):
        with pytest.raises(errors.NotARotation):
            matrix_to_rot6d(np.diag([1.0, 2.0, 1.0]))

    @pytest.mark.parametrize("field, at", [("t", 0), ("r6", 1), ("r6", 5),
                                           ("theta", 1)])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_pose_refuses_non_finite(self, field, at, bad):
        # NaN fails every comparison, so it would pass both rotation checks
        values = {"t": np.zeros(3), "r6": np.array([1.0, 0, 0, 0, 1, 0]),
                  "theta": np.zeros(2)}
        Pose(**values)
        values[field][at] = bad
        with pytest.raises(errors.SchemaError, match=f"pose {field}"):
            Pose(**values)


class TestAxisAngle:
    def test_matches_scipy(self, rng_np):
        for _ in range(300):
            w = rng_np.normal(size=3)
            w *= rng_np.uniform(0, 3 * math.pi) / np.linalg.norm(w)
            assert np.allclose(axis_angle_to_matrix(w),
                               Rotation.from_rotvec(w).as_matrix(), rtol=0, atol=1e-14)

    def test_below_1e_12(self, rng_np):
        for norm in (0.0, 1e-300, 1e-15, 9e-13):
            w = norm * Rotation.random(rng=rng_np).apply([1.0, 0.0, 0.0])
            assert np.allclose(axis_angle_to_matrix(w),
                               Rotation.from_rotvec(w).as_matrix(), rtol=0, atol=1e-15)

    def test_near_pi(self, rng_np):
        for norm in (math.pi - 1e-7, math.pi, math.pi + 1e-7):
            w = norm * Rotation.random(rng=rng_np).apply([1.0, 0.0, 0.0])
            assert np.allclose(axis_angle_to_matrix(w),
                               Rotation.from_rotvec(w).as_matrix(), rtol=0, atol=1e-14)


class TestRotationBetween:
    def test_aligned_identity(self):
        assert np.allclose(rotation_between([0, 0, 1], [0, 0, 1]), np.eye(3))

    def test_generic(self, rng_np):
        for _ in range(100):
            a = rng_np.normal(size=3)
            b = rng_np.normal(size=3)
            rot = rotation_between(a, b)
            a_u = a / np.linalg.norm(a)
            b_u = b / np.linalg.norm(b)
            assert np.allclose(rot @ a_u, b_u, atol=1e-12)

    def test_antiparallel(self):
        for a in ([1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0], [0.6, -0.48, 0.64]):
            rot = rotation_between(a, -np.asarray(a))
            a_u = np.asarray(a) / np.linalg.norm(a)
            assert np.allclose(rot @ a_u, -a_u, atol=1e-9)
            assert np.linalg.det(rot) == pytest.approx(1.0)


class TestForwardKinematics:
    def test_straight_arm(self):
        chain = planar_two_link()
        fk = forward_kinematics(chain, Pose(np.zeros(3), [1, 0, 0, 0, 1, 0],
                                            np.zeros(2)))
        assert np.allclose(fk["tip"][:3, 3], [2, 0, 0], atol=1e-12)

    def test_bent_arm(self):
        chain = planar_two_link()
        fk = forward_kinematics(chain, Pose(np.zeros(3), [1, 0, 0, 0, 1, 0],
                                            [math.pi / 2, 0.0]))
        assert np.allclose(fk["tip"][:3, 3], [0, 2, 0], atol=1e-12)

    def test_closed_form_grid(self):
        # tip = (l1 c1 + l2 c12, l1 s1 + l2 s12)
        chain = planar_two_link(1.3, 0.7)
        grid = np.linspace(-math.pi * 0.9, math.pi * 0.9, 7)
        for q1 in grid:
            for q2 in grid:
                fk = forward_kinematics(
                    chain, Pose(np.zeros(3), [1, 0, 0, 0, 1, 0], [q1, q2]))
                expected = [1.3 * math.cos(q1) + 0.7 * math.cos(q1 + q2),
                            1.3 * math.sin(q1) + 0.7 * math.sin(q1 + q2), 0.0]
                assert np.allclose(fk["tip"][:3, 3], expected, atol=1e-12)

    def test_fixed_chain_composes_origins(self):
        links = [Link("a", None, np.zeros(3), IDENTITY_Q),
                 Link("b", "a", np.array([0.1, 0.2, 0.3]), IDENTITY_Q),
                 Link("c", "b", np.array([1.0, 0.0, 0.0]), IDENTITY_Q)]
        joints = [Joint("j1", "fixed", "a", "b", np.array([0, 0, 1.0]), (0, 0)),
                  Joint("j2", "fixed", "b", "c", np.array([0, 0, 1.0]), (0, 0))]
        chain = KinematicChain(links, joints)
        fk = forward_kinematics(chain, Pose(np.zeros(3), [1, 0, 0, 0, 1, 0],
                                            np.zeros(0)))
        assert np.allclose(fk["c"][:3, 3], [1.1, 0.2, 0.3])

    def test_limit_violation_named(self):
        chain = planar_two_link()
        with pytest.raises(errors.LimitViolation, match="q2"):
            forward_kinematics(chain, Pose(np.zeros(3), [1, 0, 0, 0, 1, 0],
                                           [0.0, 4.0]))

    def test_root_composition_property(self, rng_np):
        # extra root transform T acts as T o FK(identity root)
        chain = planar_two_link()
        theta = rng_np.uniform(-1, 1, 2)
        rot = Rotation.random(rng=rng_np).as_matrix()
        t = rng_np.normal(size=3)
        fk_id = forward_kinematics(chain, Pose(np.zeros(3), [1, 0, 0, 0, 1, 0], theta))
        fk_T = forward_kinematics(chain, Pose(t, matrix_to_rot6d(rot), theta))
        for name in ("upper", "lower", "tip"):
            expected = rot @ fk_id[name][:3, 3] + t
            assert np.allclose(fk_T[name][:3, 3], expected, atol=1e-12)

    def test_prismatic(self):
        links = [Link("a", None, np.zeros(3), IDENTITY_Q),
                 Link("b", "a", np.zeros(3), IDENTITY_Q)]
        joints = [Joint("slide", "prismatic", "a", "b",
                        np.array([0, 0, 1.0]), (-1.0, 1.0))]
        chain = KinematicChain(links, joints)
        fk = forward_kinematics(chain, Pose(np.zeros(3), [1, 0, 0, 0, 1, 0], [0.25]))
        assert np.allclose(fk["b"][:3, 3], [0, 0, 0.25])


def homogeneous(rot, t):
    m = np.eye(4)
    m[:3, :3] = rot
    m[:3, 3] = t
    return m


def reference_fk(chain, pose):
    """FK that rebuilds every link origin from its quaternion on each call."""
    root = chain.link(chain.root)
    out = {root.name: homogeneous(pose.root_matrix(), pose.t)
           @ homogeneous(quat_to_matrix(root.origin_q), root.origin_t)}
    values = dict(zip((j.name for j in chain.actuated), pose.theta))
    pending = [l for l in chain.links if l.parent is not None]
    while pending:
        link = next(l for l in pending if l.parent in out)
        pending.remove(link)
        joint = next(j for j in chain.joints if j.child == link.name)
        value = values.get(joint.name, 0.0)
        motion = np.eye(4)
        if joint.type == "revolute":
            motion = homogeneous(axis_angle_to_matrix(joint.axis * value), np.zeros(3))
        elif joint.type == "prismatic":
            motion = homogeneous(np.eye(3), joint.axis * value)
        out[link.name] = (out[link.parent]
                          @ homogeneous(quat_to_matrix(link.origin_q), link.origin_t)
                          @ motion)
    return out


def random_pose(ee, rng):
    lo, hi = ee.chain.joint_limits()
    rot = Rotation.random(rng=rng).as_matrix()
    return Pose(rng.normal(size=3) * 0.1, matrix_to_rot6d(rot), rng.uniform(lo, hi))


class TestOriginCache:
    def test_fk_bit_identical_to_per_call_origins(self, pincer, claw, rng_np):
        # the claw's finger origins have non-identity quaternions
        assert any(abs(l.origin_q[0]) < 1.0 for l in claw.chain.links)
        for ee in (pincer, claw):
            for _ in range(25):
                pose = random_pose(ee, rng_np)
                fk, ref = forward_kinematics(ee.chain, pose), reference_fk(ee.chain, pose)
                assert fk.keys() == ref.keys()
                for name in ref:
                    assert np.array_equal(fk[name], ref[name]), name

    def test_matrix_form_same_bytes_as_pose(self, pincer, claw, rng_np):
        # (t, R, theta) is the form IK runs; the Pose path is checked
        # against reference_fk
        for ee in (pincer, claw, MIXED_HAND):
            for _ in range(25):
                pose = random_pose(ee, rng_np)
                fk = forward_kinematics(ee.chain, (pose.t, pose.root_matrix(), pose.theta))
                assert fk.keys() == forward_kinematics(ee.chain, pose).keys()
                assert (fk.stack.tobytes()
                        == forward_kinematics(ee.chain, pose).stack.tobytes())

    def test_matrix_form_checks_limits(self, claw):
        theta = np.zeros(claw.chain.dof)
        theta[0] = 10.0
        with pytest.raises(errors.LimitViolation):
            keypoint_jacobian(claw, (np.zeros(3), np.eye(3), theta))


def mixed_hand():
    """Prismatic, fixed and revolute joints in two two-level subtrees, with
    non-identity origin quaternions and non-unit joint axes."""
    q_tilt = np.array([0.9, 0.1, -0.2, 0.3])     # normalized on use
    q_roll = np.array([math.cos(0.4), math.sin(0.4), 0.0, 0.0])
    links = [
        Link("base", None, np.array([0.01, 0.0, 0.02]), q_tilt),
        Link("slider", "base", np.array([0.0, 0.02, 0.0]), IDENTITY_Q),
        Link("arm", "slider", np.array([0.05, 0.0, 0.01]), q_roll),
        Link("tip", "arm", np.array([0.04, 0.01, 0.0]), q_tilt),
        Link("wrist", "base", np.array([-0.03, 0.0, 0.02]), q_roll),
        Link("finger", "wrist", np.array([0.0, 0.0, 0.04]), IDENTITY_Q),
    ]
    joints = [
        Joint("slide", "prismatic", "base", "slider", np.array([0.0, 0.0, 2.0]),
              (-0.02, 0.03)),
        Joint("elbow", "revolute", "slider", "arm", np.array([0.3, -0.5, 0.8]) * 1.7,
              (-1.0, 1.2)),
        Joint("weld", "fixed", "arm", "tip", np.array([0.0, 0.0, 1.0]), (0.0, 0.0)),
        Joint("twist", "revolute", "base", "wrist", np.array([1.0, 0.0, 0.0]),
              (-2.0, 0.5)),
        Joint("curl", "revolute", "wrist", "finger", np.array([0.0, 0.5, 0.0]),
              (-0.7, 1.4)),
    ]
    chain = KinematicChain(links, joints)
    specs = [("base", [0.01, 0.02, 0.0]), ("slider", [0.0, 0.0, 0.01]),
             ("arm", [0.02, 0.0, -0.01]), ("tip", [0.01, 0.01, 0.01]),
             ("wrist", [0.0, 0.01, 0.0]), ("finger", [0.0, -0.01, 0.03])]
    fk = forward_kinematics(chain, rest_pose(chain))
    kp_world = [fk[link][:3, :3] @ off + fk[link][:3, 3] for link, off in specs]
    cloud = PointCloud(np.vstack([kp_world,
                                  np.random.default_rng(0).normal(size=(10, 3)) * 0.05]))
    keypoints = tuple(Keypoint(i, link, np.array(off, dtype=np.float64))
                      for i, (link, off) in enumerate(specs))
    return EndEffectorModel("mixed", chain, cloud, keypoints,
                            Palm("base", np.array([0.0, 0.0, 1.0]), np.zeros(3)),
                            knn_k=4)


MIXED_HAND = mixed_hand()


class TestKeypointJacobian:
    @given(ee_name=st.sampled_from(["pincer", "claw", "mixed"]),
           rot_kind=st.sampled_from(["identity", "random", "half_turn"]),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_finite_differences(self, pincer, claw, ee_name, rot_kind, seed):
        ee = {"pincer": pincer, "claw": claw, "mixed": MIXED_HAND}[ee_name]
        rng = np.random.default_rng(seed)
        lo, hi = ee.chain.joint_limits()
        axis = Rotation.random(rng=rng).apply([1.0, 0.0, 0.0])
        rot = {"identity": np.eye(3),
               "random": Rotation.random(rng=rng).as_matrix(),
               "half_turn": Rotation.from_rotvec(math.pi * axis).as_matrix()}[rot_kind]
        t, theta = rng.normal(size=3) * 0.1, rng.uniform(lo, hi)
        kp, jac = keypoint_jacobian(ee, (t, rot, theta))
        assert np.array_equal(kp, keypoint_positions(ee, (t, rot, theta)))
        assert jac.shape == (18, 6 + ee.chain.dof)
        # t and theta; the oracle's box only decides where differences are
        # one-sided
        oracle = LeastSquaresProblem(
            residual=lambda v: keypoint_positions(ee, (v[:3], rot, v[3:])).reshape(-1),
            lower=np.concatenate([np.full(3, -10.0), lo]),
            upper=np.concatenate([np.full(3, 10.0), hi]), x0=np.concatenate([t, theta]))
        fd = numeric_jacobian(oracle, oracle.x0)
        assert np.abs(jac[:, :3] - fd[:, :3]).max() < 1e-6
        assert np.abs(jac[:, 6:] - fd[:, 3:]).max() < 1e-6
        # delta: central differences of the keypoints at exp([+-eps e_k]x) R
        eps = 1e-7
        for k in range(3):
            plus, minus = (keypoint_positions(ee, (t, Rotation.from_rotvec(
                sign * eps * np.eye(3)[k]).as_matrix() @ rot, theta)) for sign in (1, -1))
            fd_k = (plus - minus).reshape(-1) / (2 * eps)
            assert np.abs(jac[:, 3 + k] - fd_k).max() < 1e-6

    def test_same_bytes_as_cross_form(self, pincer, claw, rng_np):
        # the cross products are written out; np.cross computes the same
        # products and differences, so every byte (zero signs too) matches
        def cross_form(ee, pose):
            chain = ee.chain
            fk = forward_kinematics(chain, pose)
            x = np.array([fk[kp.link][:3, :3] @ kp.offset + fk[kp.link][:3, 3]
                          for kp in ee.keypoints])
            cols = np.empty((6, 6 + chain.dof, 3))
            cols[:, :3] = np.eye(3)
            cols[:, 3:6] = np.cross(np.eye(3)[None], (x - pose[0])[:, None])
            child = np.array([fk[j.child] for j in chain.actuated])
            axes = np.einsum("jkl,jl->jk", child[:, :3, :3], chain._axes)
            swept = np.cross(axes[None], x[:, None] - child[None, :, :3, 3])
            moving = np.where(chain._revolute[None, :, None], swept, axes[None])
            on_path = np.array([chain._on_path[kp.link] for kp in ee.keypoints])
            cols[:, 6:] = moving * on_path[:, :, None]
            return x, cols.transpose(0, 2, 1).reshape(18, -1)

        for ee in (pincer, claw, MIXED_HAND):
            lo, hi = ee.chain.joint_limits()
            for _ in range(25):
                pose = (rng_np.normal(size=3) * 0.1,
                        Rotation.random(rng=rng_np).as_matrix(), rng_np.uniform(lo, hi))
                kp, jac = keypoint_jacobian(ee, pose)
                ref_kp, ref_jac = cross_form(ee, pose)
                assert kp.tobytes() == ref_kp.tobytes()
                assert jac.shape == ref_jac.shape
                assert jac.tobytes() == ref_jac.tobytes()

    def test_joint_columns_vanish_off_path(self):
        pose = (np.zeros(3), np.eye(3), rest_pose(MIXED_HAND.chain).theta)
        _, jac = keypoint_jacobian(MIXED_HAND, pose)
        joints = [j.name for j in MIXED_HAND.chain.actuated]
        on_path = {"base": set(), "slider": {"slide"}, "arm": {"slide", "elbow"},
                   "tip": {"slide", "elbow"}, "wrist": {"twist"},
                   "finger": {"twist", "curl"}}
        for i, kp in enumerate(MIXED_HAND.keypoints):
            for c, name in enumerate(joints):
                block = jac[3 * i:3 * i + 3, 6 + c]
                assert (np.abs(block).max() > 0) == (name in on_path[kp.link])


class TestRestPose:
    def test_midpoints(self):
        chain = planar_two_link()
        pose = rest_pose(chain)
        assert np.allclose(pose.theta, 0.0)
        assert np.allclose(pose.t, 0.0)
        assert np.allclose(pose.r6, [1, 0, 0, 0, 1, 0])

    def test_asymmetric_limits(self):
        links = [Link("a", None, np.zeros(3), IDENTITY_Q),
                 Link("b", "a", np.zeros(3), IDENTITY_Q)]
        joints = [Joint("j", "revolute", "a", "b", np.array([0, 0, 1.0]),
                        (0.0, math.pi))]
        pose = rest_pose(KinematicChain(links, joints))
        assert pose.theta[0] == pytest.approx(math.pi / 2)


class TestKeypoints:
    def test_rest_positions_match_cloud(self, pincer):
        pose = rest_pose(pincer.chain)
        kp = keypoint_positions(pincer, pose)
        expected = pincer.rest_cloud.points[pincer.keypoint_vertices]
        assert np.abs(kp - expected).max() < 1e-9

    def test_rigid_translation(self, pincer):
        pose = rest_pose(pincer.chain)
        t = np.array([0.3, -0.1, 0.2])
        moved = Pose(t, pose.r6, pose.theta)
        assert np.allclose(keypoint_positions(pincer, moved),
                           keypoint_positions(pincer, pose) + t, atol=1e-12)

    def test_pure_rotation(self, pincer, rng_np):
        pose = rest_pose(pincer.chain)
        rot = Rotation.random(rng=rng_np).as_matrix()
        rotated = Pose(np.zeros(3), matrix_to_rot6d(rot), pose.theta)
        assert np.allclose(keypoint_positions(pincer, rotated),
                           keypoint_positions(pincer, pose) @ rot.T, atol=1e-12)


class TestPregraspTargets:
    def test_offset_magnitude(self, rng_np):
        pts = rng_np.normal(size=(50, 3))
        nrm = rng_np.normal(size=(50, 3))
        nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
        cloud = PointCloud(pts, nrm)
        contacts = pts[:6]
        targets = pregrasp_targets(contacts, cloud)
        d = np.linalg.norm(targets - contacts, axis=1)
        assert np.allclose(d, 0.005, atol=1e-12)

    def test_planar_patch_lifts_z(self):
        pts = np.stack([np.linspace(-1, 1, 10), np.zeros(10), np.zeros(10)], axis=1)
        nrm = np.tile([0.0, 0.0, 1.0], (10, 1))
        cloud = PointCloud(pts, nrm)
        targets = pregrasp_targets(pts[:6], cloud)
        assert np.allclose(targets[:, 2], 0.005)
        assert np.allclose(targets[:, :2], pts[:6, :2])


class TestHeuristicInitPose:
    def sphere_cloud(self, n=80, r=0.05):
        i = np.arange(n)
        z = 1.0 - 2.0 * (i + 0.5) / n
        rad = np.sqrt(1.0 - z ** 2)
        phi = np.pi * (1.0 + np.sqrt(5.0)) * i
        dirs = np.stack([rad * np.cos(phi), rad * np.sin(phi), z], axis=1)
        return PointCloud(r * dirs, dirs)

    def test_palm_faces_surface(self, pincer):
        cloud = self.sphere_cloud()
        targets = np.tile(cloud.points[0], (6, 1))
        pose = heuristic_init_pose(pincer, cloud, targets)
        fk = forward_kinematics(pincer.chain, pose)
        palm_m = fk[pincer.palm.link]
        normal_world = palm_m[:3, :3] @ pincer.palm.normal
        assert np.allclose(normal_world, -cloud.normals[0], atol=1e-9)
        point_world = palm_m[:3, :3] @ pincer.palm.point + palm_m[:3, 3]
        gap = point_world - cloud.points[0]
        assert np.linalg.norm(gap) == pytest.approx(0.02, abs=1e-9)
        assert np.dot(gap, cloud.normals[0]) > 0

    def test_already_aligned_identity(self, pincer):
        # an object vertex whose normal opposes the rest palm normal (+z)
        cloud = PointCloud(np.array([[0.0, 0.0, 0.08]] * 2 + [[0, 0, 0.09]]),
                           np.array([[0.0, 0.0, -1.0]] * 3))
        pose = heuristic_init_pose(pincer, cloud, np.tile([0, 0, 0.08], (6, 1)))
        assert np.allclose(rot6d_to_matrix(pose.r6), np.eye(3), atol=1e-9)

    def test_antiparallel_handled(self, pincer):
        cloud = PointCloud(np.array([[0.0, 0.0, 0.08]] * 3),
                           np.array([[0.0, 0.0, 1.0]] * 3))
        pose = heuristic_init_pose(pincer, cloud, np.tile([0, 0, 0.08], (6, 1)))
        fk = forward_kinematics(pincer.chain, pose)
        normal_world = fk[pincer.palm.link][:3, :3] @ pincer.palm.normal
        assert np.allclose(normal_world, [0, 0, -1.0], atol=1e-9)


class TestChainFiles:
    def test_roundtrip(self, tmp_path, pincer):
        from geomatch.geometry import save_cloud_csv
        save_cloud_csv(pincer.rest_cloud, tmp_path / "pincer_cloud.csv")
        save_chain(tmp_path / "pincer.json", pincer.chain, pincer.palm,
                   pincer.keypoints, "pincer_cloud.csv")
        back = load_ee_model(tmp_path / "pincer.json", name="pincer")
        assert back.chain.dof == pincer.chain.dof
        assert np.array_equal(back.keypoint_vertices, pincer.keypoint_vertices)
        assert np.allclose(back.rest_cloud.points, pincer.rest_cloud.points)

    def test_schema_errors(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"links": [], "joints": []}')
        with pytest.raises(errors.SchemaError):
            doc = load_chain(bad)

    def test_two_roots_rejected(self):
        links = [Link("a", None, np.zeros(3), IDENTITY_Q),
                 Link("b", None, np.zeros(3), IDENTITY_Q)]
        with pytest.raises(errors.SchemaError):
            KinematicChain(links, [])

    def test_keypoint_offset_invariant_enforced(self, pincer):
        from geomatch.kinematics import Keypoint
        bad_kps = list(pincer.keypoints)
        bad_kps[0] = Keypoint(vertex=bad_kps[0].vertex, link=bad_kps[0].link,
                              offset=bad_kps[0].offset + 1e-6)
        with pytest.raises(errors.SchemaError):
            EndEffectorModel(name="x", chain=pincer.chain,
                             rest_cloud=pincer.rest_cloud,
                             keypoints=tuple(bad_kps), palm=pincer.palm)
