"""Wrench feasibility vs a nonnegative-least-squares oracle; diversity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import nnls

from geomatch import errors
from geomatch.dataset import load_ee_models, load_object_clouds
from geomatch.evaluation import (AXIS_DIRECTIONS, EvalConfig, diversity,
                                 evaluate_grasp, friction_cone_edges,
                                 nonnegative_combination_exists,
                                 tangent_basis, wrench_basis, wrench_feasible)
from geomatch.geometry import PointCloud
from geomatch.kinematics import Pose, keypoint_positions, rest_pose


def nnls_feasible(mat, rhs, tol=1e-7):
    """Oracle: residual of min ||A x - b|| with x >= 0 below tol."""
    _, residual = nnls(mat, rhs)
    return residual < tol


class TestSimplexFeasibility:
    def test_trivial_identity(self):
        assert nonnegative_combination_exists(np.eye(3), np.array([1, 2, 3.0]))
        assert not nonnegative_combination_exists(np.eye(3),
                                                  np.array([1, -2, 3.0]))

    def test_zero_rhs(self):
        assert nonnegative_combination_exists(np.ones((3, 2)), np.zeros(3))

    def test_matches_nnls_oracle_random(self, rng_np):
        agree = 0
        for _ in range(200):
            m = int(rng_np.integers(2, 7))
            n = int(rng_np.integers(1, 12))
            a = rng_np.normal(size=(m, n))
            if rng_np.uniform() < 0.5:
                # force feasible: b in the nonnegative span
                x = np.abs(rng_np.normal(size=n))
                b = a @ x
            else:
                b = rng_np.normal(size=m)
            # degenerate variants, where Bland's tie rules pick the pivots:
            # every column twice, zero columns, a zero row with zero rhs
            zero_row, b_zero_row = a.copy(), b.copy()
            zero_row[0] = 0.0
            b_zero_row[0] = 0.0
            zero_col = np.zeros((m, 1))
            for mat, rhs in ((a, b), (a[:, np.repeat(np.arange(n), 2)], b),
                             (np.hstack([zero_col, a, zero_col]), b),
                             (zero_row, b_zero_row)):
                got = nonnegative_combination_exists(mat, rhs)
                want = nnls_feasible(mat, rhs)
                assert got == want
                agree += 1
        assert agree == 800


def reference_combination_exists(mat, rhs, tol=1e-9):
    """The phase-1 simplex as one numpy call per step: Bland's entering
    column from flatnonzero, the ratio test by lexsort, the rank-1 update
    by np.outer. The reference for the pivot loop in the program."""
    a = np.asarray(mat, dtype=np.float64)
    b = np.asarray(rhs, dtype=np.float64).reshape(-1)
    m, n = a.shape
    flip = b < 0
    a = np.where(flip[:, None], -a, a)
    b = np.where(flip, -b, b)
    tableau = np.zeros((m + 1, n + m + 1))
    tableau[:m, :n] = a
    tableau[:m, n:n + m] = np.eye(m)
    tableau[:m, -1] = b
    tableau[m, :n] = -a.sum(axis=0)
    tableau[m, -1] = -b.sum()
    basis = np.arange(n, n + m)
    for _ in range(20000):
        eligible = np.flatnonzero(tableau[m, :n + m] < -tol)
        if eligible.size == 0:
            break
        entering = eligible[0]
        column = tableau[:m, entering]
        rows = np.flatnonzero(column > tol)
        if rows.size == 0:
            return False
        ratios = tableau[rows, -1] / column[rows]
        leaving = rows[np.lexsort((basis[rows], ratios))[0]]
        tableau[leaving] /= tableau[leaving, entering]
        factors = tableau[:, entering].copy()
        factors[leaving] = 0.0
        tableau -= np.outer(factors, tableau[leaving])
        basis[leaving] = entering
    else:
        raise AssertionError("reference simplex failed to terminate")
    return bool(-tableau[m, -1] <= tol * b.max(initial=0.0))


@st.composite
def contact_sets(draw):
    """Points, unit normals, friction and edge count of 1-6 contacts, with
    the degenerate kinds where Bland's tie rules pick the pivots."""
    c = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["random", "repeated", "coplanar", "axis"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pts = rng.normal(size=(c, 3)) * 0.05
    nrm = rng.normal(size=(c, 3))
    if kind == "repeated":          # some contacts twice, point and normal
        pick = rng.integers(0, max(1, c // 2), size=c)
        pts, nrm = pts[pick], nrm[pick]
    elif kind == "coplanar":        # normals and points in one plane
        nrm[:, 2] = 0.0
        nrm[np.abs(nrm).sum(axis=1) == 0.0, 0] = 1.0
        pts[:, 2] = 0.0
    elif kind == "axis":
        nrm = np.eye(3)[rng.integers(0, 3, size=c)] * rng.choice([-1.0, 1.0], (c, 1))
    nrm /= np.linalg.norm(nrm, axis=1)[:, None]
    mu = draw(st.sampled_from([0.2, 0.5, 1.0]))
    edges = draw(st.integers(3, 8))
    return pts, nrm, EvalConfig(friction_mu=mu, cone_edges=edges)


class TestSimplexAgainstReference:
    @given(contacts=contact_sets(), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_same_verdicts_on_cone_bases(self, contacts, seed):
        pts, nrm, cfg = contacts
        basis = wrench_basis(pts, nrm, cfg, np.zeros(3))
        rng = np.random.default_rng(seed)
        rhs = [-np.concatenate([d, np.zeros(3)]) for _, d in AXIS_DIRECTIONS]
        rhs += [rng.normal(size=6), np.zeros(6),
                basis @ np.abs(rng.normal(size=basis.shape[1]))]
        for b in rhs:
            assert (nonnegative_combination_exists(basis, b)
                    == reference_combination_exists(basis, b))


def reference_wrench_basis(points, normals, cfg, origin):
    """Per contact and per cone edge: np.linalg.norm and np.cross."""
    phis = 2.0 * math.pi * np.arange(cfg.cone_edges) / cfg.cone_edges
    cols = []
    for p, normal in zip(points, normals):
        n = normal / np.linalg.norm(normal)
        e = np.zeros(3)
        e[int(np.argmin(np.abs(n)))] = 1.0
        u = np.cross(e, n)
        u /= np.linalg.norm(u)
        v = np.cross(n, u)
        for c, s in zip(np.cos(phis), np.sin(phis)):
            f = n + cfg.friction_mu * (c * u + s * v)
            cols.append(np.concatenate([f, np.cross(p - origin, f)]))
    return np.stack(cols, axis=1)


class TestWrenchBasisBytes:
    @given(contacts=contact_sets(), tie=st.booleans(),
           scale=st.sampled_from([1e-3, 1.0, 7.5]))
    @settings(max_examples=300, deadline=None)
    def test_equals_per_contact_reference(self, contacts, tie, scale):
        pts, nrm, cfg = contacts
        nrm = nrm * scale           # the basis normalizes each normal
        if tie:                     # the two smallest |components| tie
            nrm[:, 1] = -nrm[:, 0]
            nrm[:, 2] += np.where(nrm[:, 2] >= 0, 1.0, -1.0)
        origin = np.array([0.01, -0.02, 0.003])
        got = wrench_basis(pts, nrm, cfg, origin)
        want = reference_wrench_basis(pts, nrm, cfg, origin)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_one_contact_calls_are_the_batched_rows(self, rng_np):
        nrm = rng_np.normal(size=(5, 3))
        u, v = tangent_basis(nrm)
        edges = friction_cone_edges(nrm, 0.5, 8)
        for k, n in enumerate(nrm):
            u1, v1 = tangent_basis(n)
            assert u1.tobytes() == u[k].tobytes() and v1.tobytes() == v[k].tobytes()
            assert friction_cone_edges(n, 0.5, 8).tobytes() == edges[k].tobytes()


class TestFrictionCones:
    def test_tangent_basis_orthonormal(self, rng_np):
        for _ in range(100):
            n = rng_np.normal(size=3)
            n /= np.linalg.norm(n)
            u, v = tangent_basis(n)
            for a, b in ((u, v), (u, n), (v, n)):
                assert abs(np.dot(a, b)) < 1e-12
            assert np.linalg.norm(u) == pytest.approx(1.0)
            assert np.allclose(np.cross(n, u), v)

    def test_edges_on_cone(self):
        n = np.array([0.0, 0.0, 1.0])
        edges = friction_cone_edges(n, mu=0.5, edges=8)
        assert edges.shape == (8, 3)
        # every edge: unit normal part, tangential magnitude mu
        assert np.allclose(edges @ n, 1.0)
        tangential = edges - np.outer(edges @ n, n)
        assert np.allclose(np.linalg.norm(tangential, axis=1), 0.5)


class TestWrenchFeasible:
    def antipodal_sphere(self, radius=0.05):
        pts = np.array([[radius, 0, 0], [-radius, 0, 0.0]])
        normals = np.array([[-1.0, 0, 0], [1.0, 0, 0]])  # inward
        return pts, normals

    def test_antipodal_resists_all_axes(self):
        pts, normals = self.antipodal_sphere()
        cfg = EvalConfig()
        for direction in np.vstack([np.eye(3), -np.eye(3)]):
            w = np.concatenate([0.05 * direction, np.zeros(3)])
            assert wrench_feasible(pts, normals, w, cfg, origin=np.zeros(3))

    def test_single_contact_pull_infeasible(self):
        pts = np.array([[0.05, 0, 0.0]])
        normals = np.array([[-1.0, 0, 0]])   # pressing toward -x
        cfg = EvalConfig()
        w = np.concatenate([[-0.05], np.zeros(5)])  # external force -x
        # balancing requires net contact force +x: outside the cone
        assert not wrench_feasible(pts, normals, w, cfg, origin=np.zeros(3))

    def test_rotation_invariance(self, rng_np):
        from scipy.spatial.transform import Rotation
        pts, normals = self.antipodal_sphere()
        cfg = EvalConfig()
        for _ in range(20):
            rot = Rotation.random(rng=rng_np).as_matrix()
            w = np.concatenate([rng_np.normal(size=3) * 0.05, np.zeros(3)])
            base = wrench_feasible(pts, normals, w, cfg, origin=np.zeros(3))
            rotated = wrench_feasible(pts @ rot.T, normals @ rot.T,
                                      np.concatenate([rot @ w[:3], rot @ w[3:]]),
                                      cfg, origin=np.zeros(3))
            assert base == rotated

    def test_pinch_with_torque_arm(self):
        # antipodal pinch must also balance the torque of an offset wrench
        pts, normals = self.antipodal_sphere()
        cfg = EvalConfig()
        w = np.array([0.0, 0.0, 0.049, 0.0, 0.0, 0.0])
        assert wrench_feasible(pts, normals, w, cfg, origin=np.zeros(3))


class TestEvaluateGrasp:
    def test_no_contacts_fails(self, pincer):
        cloud = PointCloud(np.tile([10.0, 0, 0], (4, 1)),
                           np.tile([1.0, 0, 0], (4, 1)))
        outcome = evaluate_grasp(cloud, pincer, rest_pose(pincer.chain))
        assert not outcome.success
        assert outcome.active_contacts == ()

    def test_analytic_antipodal_pincer(self, pincer):
        # place a dense sphere of the matched radius at the rest-pose grasp
        # center so both fingertips touch it
        from geomatch.dataset import sample_object, _pincer_grasps, PincerParams
        from geomatch.rng import Rng
        params = PincerParams()
        cloud = sample_object("sphere", {"r": 0.042}, 256, Rng(3))
        pose, contacts = _pincer_grasps(params, "sphere", {"r": 0.042})[0]
        outcome = evaluate_grasp(cloud, pincer, pose, EvalConfig())
        assert len(outcome.active_contacts) >= 2
        assert outcome.success


def oracle_contacts(cloud, ee, pose, cfg):
    """Snapped contacts and inward normals, one keypoint at a time."""
    points, normals = [], []
    for k in keypoint_positions(ee, pose):
        d = np.linalg.norm(cloud.points - k, axis=1)
        j = int(np.argmin(d))
        if d[j] <= cfg.snap_radius:
            points.append(cloud.points[j])
            normals.append(-cloud.normals[j])
    return points, normals


def oracle_resisted(points, normals, origin, cfg):
    """Edge wrenches built one cone edge at a time, decided by NNLS."""
    cols = [np.concatenate([f, np.cross(p - origin, f)])
            for p, n in zip(points, normals)
            for f in friction_cone_edges(n, cfg.friction_mu, cfg.cone_edges)]
    return {tag: bool(cols) and nnls_feasible(
                np.stack(cols, axis=1), -np.concatenate([d, np.zeros(3)]))
            for tag, d in AXIS_DIRECTIONS}


class TestEvaluateGraspOracle:
    def test_every_toy_record_matches_nnls(self, toy_dataset):
        cfg = EvalConfig()
        clouds = load_object_clouds(toy_dataset)
        ees = load_ee_models(toy_dataset)
        seen, contacted = set(), 0
        for r in toy_dataset.records:
            cloud, ee = clouds[r.object_id], ees[r.ee_id]
            points, normals = oracle_contacts(cloud, ee, r.pose, cfg)
            want = oracle_resisted(points, normals, cloud.centroid(), cfg)
            outcome = evaluate_grasp(cloud, ee, r.pose, cfg)
            assert outcome.resisted == want, (r.object_id, r.ee_id)
            assert len(outcome.active_contacts) == len(points)
            seen.add((r.object_id, r.ee_id))
            if not points:
                continue
            contacted += 1
            # a unit push decides the verdict for every push size
            for c in (1e-3, 1.0, 1e3):
                for tag, d in AXIS_DIRECTIONS:
                    w = c * np.concatenate([d, np.zeros(3)])
                    assert wrench_feasible(points, normals, w, cfg,
                                           cloud.centroid()) == want[tag]
        assert len(seen) == 12 and contacted > 0


class TestScaleFreeVerdict:
    SCALES = 10.0 ** np.arange(-6, 7)

    def test_toy_grasp_verdicts_ignore_push_size(self, toy_dataset):
        """Each grasp's one wrench basis gives one verdict per direction
        for every push size from 1e-6 to 1e6."""
        cfg = EvalConfig()
        clouds = load_object_clouds(toy_dataset)
        ees = load_ee_models(toy_dataset)
        decided = 0
        for r in toy_dataset.records:
            cloud = clouds[r.object_id]
            points, normals = oracle_contacts(cloud, ees[r.ee_id], r.pose, cfg)
            if not points:
                continue
            basis = wrench_basis(points, normals, cfg, cloud.centroid())
            for tag, d in AXIS_DIRECTIONS:
                rhs = -np.concatenate([d, np.zeros(3)])
                verdicts = {nonnegative_combination_exists(basis, c * rhs)
                            for c in self.SCALES}
                assert len(verdicts) == 1, (r.object_id, r.ee_id, tag)
                decided += 1
        assert decided > 0

    def test_random_systems_ignore_rhs_size(self, rng_np):
        for _ in range(100):
            a = rng_np.normal(size=(6, 12))
            b = (a @ np.abs(rng_np.normal(size=12)) if rng_np.uniform() < 0.5
                 else rng_np.normal(size=6))
            want = nonnegative_combination_exists(a, b)
            assert want == nnls_feasible(a, b)
            for c in self.SCALES:
                assert nonnegative_combination_exists(a, c * b) == want


class TestDiversity:
    def p(self, theta):
        return Pose(np.zeros(3), [1, 0, 0, 0, 1, 0], np.atleast_1d(theta))

    def test_identical_zero(self):
        assert diversity([self.p([0.3, 0.4])] * 5) == 0.0

    def test_hand_computed(self):
        assert diversity([self.p(0.0), self.p(2.0)]) == pytest.approx(1.0)

    def test_order_invariant(self, rng_np):
        poses = [self.p(rng_np.uniform(-1, 1, 3)) for _ in range(6)]
        a = diversity(poses)
        b = diversity(poses[::-1])
        assert a == pytest.approx(b)

    def test_shift_invariant(self, rng_np):
        thetas = rng_np.uniform(-1, 1, size=(6, 3))
        poses = [self.p(t) for t in thetas]
        shifted = [self.p(t + [0.5, 0, 0]) for t in thetas]
        assert diversity(poses) == pytest.approx(diversity(shifted))

    def test_too_few(self):
        with pytest.raises(errors.TooFewPoses):
            diversity([self.p(0.0)])


class TestZeroWrench:
    def test_zero_wrench_trivially_feasible(self):
        pts = np.array([[0.04, 0, 0], [-0.04, 0, 0.0]])
        normals = np.array([[-1.0, 0, 0], [1.0, 0, 0]])
        assert wrench_feasible(pts, normals, np.zeros(6), EvalConfig(),
                               origin=np.zeros(3))
