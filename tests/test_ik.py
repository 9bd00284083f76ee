"""Bounded least-squares solver and grasp IK."""

import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import least_squares
from scipy.spatial.transform import Rotation

from geomatch import errors, ik, kinematics
from geomatch.geometry import PointCloud
from geomatch.ik import (LeastSquaresProblem, STATUS_CONVERGED,
                         STATUS_MAX_ITERATIONS, STATUS_SMALL_STEP,
                         numeric_jacobian, solve_ik, solve_trf)
from geomatch.kinematics import (PREGRASP_OFFSET, Pose, keypoint_positions,
                                 matrix_to_rot6d)
from geomatch.rng import Rng


def unbounded(fn, x0):
    d = len(x0)
    return LeastSquaresProblem(residual=fn, lower=np.full(d, -np.inf),
                               upper=np.full(d, np.inf), x0=np.asarray(x0))


class TestNumericJacobian:
    def test_identity(self):
        p = unbounded(lambda q: q.copy(), [1.0, -2.0, 0.5])
        assert np.allclose(numeric_jacobian(p, p.x0), np.eye(3), atol=1e-8)

    def test_powers(self):
        p = unbounded(lambda q: np.array([q[0] ** 2, q[1] ** 3]), [1.0, 2.0])
        jac = numeric_jacobian(p, p.x0)
        assert np.allclose(jac, np.diag([2.0, 12.0]), rtol=1e-5)

    def test_planar_arm_analytic(self):
        l1, l2 = 1.1, 0.6

        def fk(q):
            return np.array([l1 * np.cos(q[0]) + l2 * np.cos(q[0] + q[1]),
                             l1 * np.sin(q[0]) + l2 * np.sin(q[0] + q[1])])

        q = np.array([0.4, -0.7])
        jac = numeric_jacobian(unbounded(fk, q), q)
        s1, s12 = np.sin(q[0]), np.sin(q.sum())
        c1, c12 = np.cos(q[0]), np.cos(q.sum())
        analytic = np.array([[-l1 * s1 - l2 * s12, -l2 * s12],
                             [l1 * c1 + l2 * c12, l2 * c12]])
        assert np.abs(jac - analytic).max() / np.abs(analytic).max() < 1e-5

    def test_one_sided_at_bound(self):
        p = LeastSquaresProblem(residual=lambda q: q ** 2, lower=np.array([0.0]),
                                upper=np.array([1.0]), x0=np.array([0.0]))
        jac = numeric_jacobian(p, np.array([0.0]))
        assert abs(jac[0, 0]) < 1e-6   # derivative of q^2 at 0

    def test_nonfinite_raises(self):
        p = unbounded(lambda q: np.array([np.nan]), [0.0])
        with pytest.raises(errors.NonFiniteResidual):
            numeric_jacobian(p, p.x0)

    @pytest.mark.parametrize("q", [2.5e-8, 1e-8, 4.9e-8, 0.0, 5e-8])
    def test_probes_stay_in_a_box_narrower_than_the_step(self, q):
        # the step is 1e-7: neither side of [0, 5e-8] has room for it, so the
        # difference is one-sided toward the wider side, the step cut to fit
        probes = []

        def fn(v):
            probes.append(v[0])
            return np.array([v[0] ** 2 + 3.0 * v[0]])

        p = LeastSquaresProblem(residual=fn, lower=np.array([0.0]),
                                upper=np.array([5e-8]), x0=np.array([q]))
        jac = numeric_jacobian(p, np.array([q]))
        assert all(0.0 <= v <= 5e-8 for v in probes)
        assert len(set(probes)) == 2
        assert jac[0, 0] == pytest.approx(2.0 * q + 3.0, abs=1e-7)


def random_subproblem(rng, kind: str, m: int, n: int):
    """A Jacobian of the given kind and a residual for it."""
    if kind == "full":
        jac = rng.normal(size=(m, n))
    elif kind == "low-rank":     # rank k < min(m, n): tiny, nonzero singular values
        k = int(rng.integers(0, min(m, n)))
        jac = rng.normal(size=(m, k)) @ rng.normal(size=(k, n))
    elif kind == "zero-lines":   # zero columns and rows: exact zero singular values
        jac = rng.normal(size=(m, n))
        jac[:, rng.random(n) < 0.4] = 0.0
        jac[rng.random(m) < 0.3] = 0.0
    else:                        # singular values spread over 10 decades
        u = np.linalg.qr(rng.normal(size=(m, m)))[0]
        v = np.linalg.qr(rng.normal(size=(n, n)))[0]
        sv = 10.0 ** rng.uniform(-6, 4, size=min(m, n))
        jac = (u[:, :sv.size] * sv) @ v[:sv.size]
    return jac, rng.normal(size=m) * 10.0 ** rng.uniform(-3, 3)


class TestTrustRegionSubproblem:
    @given(kind=st.sampled_from(["full", "low-rank", "zero-lines", "spread"]),
           m=st.integers(1, 12), n=st.integers(1, 8),
           scale=st.floats(0.01, 3.0), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_against_dense_oracle(self, kind, m, n, scale, seed):
        rng = np.random.default_rng(seed)
        jac, r = random_subproblem(rng, kind, m, n)
        s_gn = -np.linalg.pinv(jac, rcond=1e-10) @ r     # minimum-norm Gauss-Newton
        norm_gn = np.linalg.norm(s_gn)
        if norm_gn == 0.0:
            radius = scale
        elif abs(scale - 1.0) < 1e-3:   # keep clear of the interior/boundary tie
            radius = 2.0 * norm_gn
        else:
            radius = scale * norm_gn
        calls = [0]
        secular = ik._secular

        def counted(*args):
            calls[0] += 1
            return secular(*args)

        with mock.patch.object(ik, "_secular", counted):
            s, on_boundary = ik._solve_tr_subproblem(ik._svd_terms(jac, r), radius)
        assert calls[0] <= 20
        assert on_boundary == (norm_gn > radius)
        if not on_boundary:
            assert calls[0] == 0
            assert np.allclose(s, s_gn, rtol=1e-8, atol=1e-10 * max(1.0, norm_gn))
            return
        assert abs(np.linalg.norm(s) - radius) <= 1e-10 * radius
        # s = -(J^T J + lam I)^-1 J^T r for the lam that fits it best, lam >= 0
        gram, g = jac.T @ jac, jac.T @ r
        lam = -s @ (gram @ s + g) / (s @ s)
        scale_g = np.linalg.norm(gram, 2) * radius + np.linalg.norm(g)
        assert lam >= -1e-10 * scale_g / radius
        assert np.linalg.norm(gram @ s + lam * s + g) <= 1e-9 * scale_g


class TestSolveTrf:
    def test_linear_matches_normal_equations(self, rng_np):
        for _ in range(10):
            a = rng_np.normal(size=(8, 4))
            b = rng_np.normal(size=8)
            p = unbounded(lambda q, a=a, b=b: a @ q - b, np.zeros(4))
            res = solve_trf(p)
            expected = np.linalg.lstsq(a, b, rcond=None)[0]
            assert np.abs(res.x - expected).max() < 1e-8
            assert res.status == STATUS_CONVERGED

    def test_active_bound_1d(self):
        p = LeastSquaresProblem(residual=lambda q: q - 5.0,
                                lower=np.array([0.0]), upper=np.array([1.0]),
                                x0=np.array([0.5]))
        res = solve_trf(p)
        assert res.x[0] == pytest.approx(1.0, abs=1e-6)

    def test_rosenbrock(self):
        def rosen(q):
            return np.array([1.0 - q[0], 10.0 * (q[1] - q[0] ** 2)])

        res = solve_trf(unbounded(rosen, [-1.2, 1.0]), max_iter=100)
        assert res.residual_norm < 1e-6
        assert res.iterations <= 100

    def test_strict_feasibility_and_monotonicity(self, rng_np):
        # bounded random quadratic-ish residuals; every accepted iterate
        # strictly inside, costs non-increasing
        for trial in range(10):
            d = int(rng_np.integers(2, 6))
            a = rng_np.normal(size=(2 * d, d))
            b = rng_np.normal(size=2 * d)
            lo = rng_np.uniform(-2, -0.5, d)
            hi = rng_np.uniform(0.5, 2, d)

            def fn(q, a=a, b=b):
                return a @ q - b + 0.3 * np.sin(q).repeat(2)

            p = LeastSquaresProblem(residual=fn, lower=lo, upper=hi,
                                    x0=np.zeros(d))
            res = solve_trf(p)
            for x in res.x_history:
                assert np.all(lo < x) and np.all(x < hi)
            costs = np.array(res.cost_history)
            assert np.all(np.diff(costs) <= 1e-15)

    def test_radius_follows_scaled_step(self):
        # in a +-1e3 box the Coleman-Li factor d is about 32, so a radius
        # taken from the unscaled step p = d s grows after every rejection
        # and no step is ever accepted from the classic start
        p = LeastSquaresProblem(
            residual=lambda q: np.array([1.0 - q[0], 10.0 * (q[1] - q[0] ** 2)]),
            lower=np.full(2, -1e3), upper=np.full(2, 1e3), x0=np.array([-1.2, 1.0]))
        res = solve_trf(p)
        assert res.status == STATUS_CONVERGED
        assert res.residual_norm < 1e-6
        assert res.iterations <= 50

    def test_rejected_step_reuses_the_decomposition(self):
        # after a rejected step x, r and the Jacobian are unchanged, so only
        # the secular solve reruns at the new radius: one SVD per iterate
        p = LeastSquaresProblem(
            residual=lambda q: np.array([1.0 - q[0], 10.0 * (q[1] - q[0] ** 2)]),
            lower=np.full(2, -1e3), upper=np.full(2, 1e3), x0=np.array([-1.2, 1.0]))
        svd, calls = np.linalg.svd, []
        with mock.patch.object(np.linalg, "svd",
                               lambda *a, **kw: calls.append(1) or svd(*a, **kw)):
            res = solve_trf(p)
        assert res.iterations > len(res.x_history)      # some steps rejected
        assert 0 < len(calls) <= len(res.x_history)

    def test_matches_scipy_on_interior_linear_problems(self):
        rng = np.random.default_rng(2718)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(n, 2 * n + 3))
            a, b = rng.normal(size=(m, n)), rng.normal(size=m)
            lo, hi = np.full(n, -1e3), np.full(n, 1e3)
            assert np.abs(np.linalg.lstsq(a, b, rcond=None)[0]).max() < 1e3
            x0 = rng.uniform(-1.0, 1.0, n)
            ours = solve_trf(LeastSquaresProblem(
                lambda q, a=a, b=b: a @ q - b, lo, hi, x0, jacobian=lambda q, a=a: a))
            ref = least_squares(lambda q: a @ q - b, x0, jac=lambda q: a,
                                bounds=(lo, hi), method="trf")
            assert 0.5 * ours.residual_norm ** 2 <= ref.cost * (1 + 1e-6) + 1e-12

    def test_start_on_bound_nudged(self):
        p = LeastSquaresProblem(residual=lambda q: q - 0.5,
                                lower=np.array([0.0]), upper=np.array([1.0]),
                                x0=np.array([0.0]))
        res = solve_trf(p)
        assert res.x[0] == pytest.approx(0.5, abs=1e-8)

    def test_supplied_jacobian_matches_numeric_path(self, rng_np):
        a = rng_np.normal(size=(6, 3))

        def fn(q):
            return a @ q - 1.0 + 0.2 * np.sin(q).repeat(2)

        def jac(q):
            return a + 0.2 * np.diag(np.cos(q)).repeat(2, axis=0)

        lo, hi = np.full(3, -0.4), np.full(3, 0.6)
        numeric = solve_trf(LeastSquaresProblem(fn, lo, hi, np.zeros(3)))
        exact = solve_trf(LeastSquaresProblem(fn, lo, hi, np.zeros(3), jacobian=jac))
        assert np.allclose(exact.x, numeric.x, atol=1e-6)
        assert exact.status == numeric.status

    def test_recenter_folds_each_accepted_step(self):
        # a point on the unit circle at angle base + x: each accepted x is
        # folded into base, so every iterate after the start is x = 0
        base, target, calls = [0.0], 2.5, [0]

        def residual(q):
            angle = base[0] + q[0]
            return np.array([np.cos(angle) - np.cos(target), np.sin(angle) - np.sin(target)])

        def recenter(q):
            calls[0] += 1
            base[0] += q[0]
            return np.zeros(1)

        res = solve_trf(LeastSquaresProblem(residual, [-np.inf], [np.inf], [0.0],
                                            recenter=recenter))
        assert res.status == STATUS_CONVERGED
        assert base[0] == pytest.approx(target, abs=1e-6)
        assert calls[0] == len(res.x_history) - 1 > 1
        assert all(x[0] == 0.0 for x in res.x_history) and res.x[0] == 0.0

    def test_nonfinite_jacobian_raises(self):
        p = LeastSquaresProblem(residual=lambda q: q - 1.0, lower=np.array([-2.0]),
                                upper=np.array([2.0]), x0=np.array([0.0]),
                                jacobian=lambda q: np.array([[np.nan]]))
        with pytest.raises(errors.NonFiniteResidual):
            solve_trf(p)

    def test_statuses_are_named(self):
        p = unbounded(lambda q: np.array([q[0] - 1.0]), [0.0])
        res = solve_trf(p, max_iter=1)
        assert res.status in (STATUS_CONVERGED, STATUS_MAX_ITERATIONS,
                              STATUS_SMALL_STEP)


class TestSolveIk:
    def random_reachable_pose(self, ee, rng: Rng):
        lo, hi = ee.chain.joint_limits()
        theta = np.array([lo[i] + (hi[i] - lo[i]) * rng.random()
                          for i in range(len(lo))])
        axis = np.array([rng.normal() for _ in range(3)])
        axis /= np.linalg.norm(axis)
        angle = rng.random() * 2.6
        rot = Rotation.from_rotvec(angle * axis).as_matrix()
        t = np.array([rng.uniform(-0.2, 0.2) for _ in range(3)])
        return Pose(t=t, r6=matrix_to_rot6d(rot), theta=theta)

    def synthetic_object(self, targets):
        center = targets.mean(axis=0)
        dirs = targets - center
        norms = np.linalg.norm(dirs, axis=1, keepdims=True)
        norms[norms < 1e-12] = 1.0
        return PointCloud(targets, dirs / norms)

    def test_inverse_crime_single(self, pincer):
        rng = Rng(2024)
        pose = self.random_reachable_pose(pincer, rng)
        targets = keypoint_positions(pincer, pose)
        res = solve_ik(pincer, targets, self.synthetic_object(targets),
                       offset=0.0)
        assert res.per_keypoint.max() < 1e-3

    def test_translation_equivariance(self, pincer):
        rng = Rng(5)
        pose = self.random_reachable_pose(pincer, rng)
        targets = keypoint_positions(pincer, pose)
        delta = np.array([0.11, -0.07, 0.05])
        obj = self.synthetic_object(targets)
        obj_shifted = PointCloud(obj.points + delta, obj.normals)
        r1 = solve_ik(pincer, targets, obj, offset=0.0)
        r2 = solve_ik(pincer, targets + delta, obj_shifted, offset=0.0)
        if r1.per_keypoint.max() < 1e-4 and r2.per_keypoint.max() < 1e-4:
            assert np.allclose(r2.pose.t - r1.pose.t, delta, atol=1e-3)
            assert np.allclose(r2.pose.theta, r1.pose.theta, atol=1e-3)

    def test_statuses_never_silent(self, pincer, claw):
        rng = Rng(77)
        for ee in (pincer, claw):
            for _ in range(5):
                pose = self.random_reachable_pose(ee, rng)
                targets = keypoint_positions(ee, pose)
                res = solve_ik(ee, targets, self.synthetic_object(targets),
                               offset=0.0)
                assert res.status in (STATUS_CONVERGED, STATUS_MAX_ITERATIONS,
                                      STATUS_SMALL_STEP)

    def test_fk_budget(self, claw, monkeypatch):
        # one FK pass per iteration gives residual and Jacobian; finite
        # differences would take 2 * (6 + 9) + 1 passes per iteration
        calls = [0]
        fk = kinematics.forward_kinematics

        def counted(*args):
            calls[0] += 1
            return fk(*args)

        monkeypatch.setattr(kinematics, "forward_kinematics", counted)
        rng = Rng(31)
        for offset in (0.0, 0.005):
            for _ in range(4):
                targets = keypoint_positions(claw, self.random_reachable_pose(claw, rng))
                calls[0] = 0
                res = solve_ik(claw, targets, self.synthetic_object(targets),
                               offset=offset)
                assert 0 < calls[0] <= 2 * res.iterations + 2

    def test_offset_requires_cloud(self, pincer):
        with pytest.raises(errors.SchemaError):
            solve_ik(pincer, np.zeros((6, 3)), None, offset=0.005)

    @pytest.mark.parametrize("shape", [(1, 3), (2, 3), (5, 3), (7, 3), (18,), (6, 2)])
    def test_targets_must_be_one_per_keypoint(self, pincer, shape):
        # a single row would broadcast against all six keypoints
        targets = keypoint_positions(pincer, self.random_reachable_pose(pincer, Rng(9)))
        with pytest.raises(errors.SchemaError, match="targets"):
            solve_ik(pincer, np.resize(targets, shape), self.synthetic_object(targets))


def solution_digest(res) -> str:
    """sha256 of a solve's pose vector (t, r6, theta), its per-keypoint
    misses and its residual norm."""
    pose = res.pose
    parts = (pose.t, pose.r6, pose.theta, res.per_keypoint, [res.residual_norm])
    return hashlib.sha256(b"".join(np.asarray(v).tobytes() for v in parts)).hexdigest()


def history_digest(trf) -> str:
    """sha256 of a solve's accepted iterates and their costs, in order."""
    parts = (trf.x_history, trf.cost_history)
    return hashlib.sha256(b"".join(np.asarray(v).tobytes() for v in parts)).hexdigest()


def pinned_solves(pincer, claw):
    """(name, ee, targets, cloud, offset, max_iter) of the pinned IK solves:
    reachable targets for each gripper at both offsets, a start at a half
    turn and solves cut off by max_iter."""
    helper, rng, out = TestSolveIk(), Rng(4242), []
    for ee in (pincer, claw):
        for offset in (0.0, PREGRASP_OFFSET):
            for i in range(2):
                targets = keypoint_positions(ee, helper.random_reachable_pose(ee, rng))
                out.append((f"{ee.name}-{offset}-{i}", ee, targets,
                            helper.synthetic_object(targets), offset, 100))
        targets = keypoint_positions(ee, helper.random_reachable_pose(ee, rng))
        # every normal along the rest palm normal: the heuristic start turns
        # the palm by pi about x
        flipped = PointCloud(targets, np.tile([0.0, 0.0, 1.0], (6, 1)))
        out.append((f"{ee.name}-bound", ee, targets, flipped, 0.0, 100))
        out.append((f"{ee.name}-cut", ee, targets, helper.synthetic_object(targets),
                    0.0, 3))
    return out


# status and iterations of each pinned solve, and its solution_digest and
# history_digest per OpenBLAS kernel (numpy 2.4, OpenBLAS 0.3.31, x86-64):
# the kernels round some products differently, and only the digests differ
# between them
PINNED_SOLVES = {
    "pincer-0.0-0": (STATUS_CONVERGED, 7),
    "pincer-0.0-1": (STATUS_CONVERGED, 9),
    "pincer-0.005-0": (STATUS_CONVERGED, 9),
    "pincer-0.005-1": (STATUS_CONVERGED, 7),
    "pincer-bound": (STATUS_CONVERGED, 8),
    "pincer-cut": (STATUS_MAX_ITERATIONS, 3),
    "claw-0.0-0": (STATUS_CONVERGED, 5),
    "claw-0.0-1": (STATUS_CONVERGED, 6),
    "claw-0.005-0": (STATUS_CONVERGED, 6),
    "claw-0.005-1": (STATUS_CONVERGED, 11),
    "claw-bound": (STATUS_CONVERGED, 14),
    "claw-cut": (STATUS_MAX_ITERATIONS, 3),
}
PINNED_DIGESTS = {
    "SkylakeX": {
        "pincer-0.0-0":
            "ddc6f8dacf04ae4dd4fcb17ecdca1e9bb80801c250b1642f968fb3e150f10acb",
        "pincer-0.0-1":
            "ac3766d22065c31e7db1083a7b23d8e1f0c54e7b7c47992229fad6e8c4001b32",
        "pincer-0.005-0":
            "ecf78a6d5a959db928b051a67bbf9d4ed26da702d6a7876f8a8b3a419d4a0adc",
        "pincer-0.005-1":
            "029a0ccd136b1fe8043885150cd5fafe33443f538d3b9fc77b5044c1fedc69e1",
        "pincer-bound":
            "e2f7ea352d6786e0ad348106217a3d34ff073aa930c90e94e17d0b39347f046c",
        "pincer-cut":
            "f47486d07b3b509bd723a51b314e585f01d74cd350275944a7c6b10262074edf",
        "claw-0.0-0":
            "c38571390e87f580b9c52246f81be23c46b2868e903bba2fc7d572aa8e93722d",
        "claw-0.0-1":
            "4c13df6edac2a50816d6608ac326bbfbab1dd24f2906b271190f953fffa7f0bf",
        "claw-0.005-0":
            "dc676b902c87da7ecbfd9f7a5e472feb872a8b5dcdf15ca6df1746667dee4199",
        "claw-0.005-1":
            "87ca8955f9f524d523fa374e2467bf2898bcd024381eb9ec1672e5f5e7eed55d",
        "claw-bound":
            "ca71497a338987a565e68be7bffa4115e86c39cdf79201cd19818ebcfdfef0c8",
        "claw-cut":
            "d9f6f2eea391d1237002ad724c6b6c3be12a57cdbccabcde2741232d5da0bbf9",
    },
    "Haswell": {
        "pincer-0.0-0":
            "63dca4f5c4593dbca5af391aecfab40e43eff8b0143094b2f77ec6ec2501ddd7",
        "pincer-0.0-1":
            "1e7865de841b8cdc7e2ac49331f756853846b38821dc1b0a03b7a91a21ca439d",
        "pincer-0.005-0":
            "68ae9cc1c47dd6a41abda68dc93f651eb288e8d24cd634146e4a6f5813a788c1",
        "pincer-0.005-1":
            "5121448be6e8eb67ea16fcac28a461f6f5d9f02e6554dd171e7c4bb84d4f7c71",
        "pincer-bound":
            "52049885e2ff7a19ef30bd5bf4c959d2d92347c2ac4c08a4bf1a44925b5722ef",
        "pincer-cut":
            "930038cc93d35f2e92c947116b67df44caac4a741b74a7cdee0cada8d944a333",
        "claw-0.0-0":
            "05c0d2802ef74aca144f7a0433ca6a9fde90240922b9cc9d7db37471037e0416",
        "claw-0.0-1":
            "724f26d0698105d9529fc76f4e78787194e06cd1474aec43c5490cfd68b4b86d",
        "claw-0.005-0":
            "a6894134e1b2b0a49227fdb8feaea1fee13e753646f27a024073e725051c45f4",
        "claw-0.005-1":
            "615f34926afe7e32603cd460ed46e1169040614ec227958c24e583a4863ea276",
        "claw-bound":
            "7d8c92531ec709c0a00bd63804bf73e5a147d8742c3fb210c3e560b4d2db028d",
        "claw-cut":
            "1992f1283a1df0448939e11e1b26019979f71026e2eec0b4db703eea188df557",
    },
    "Sandybridge": {
        "pincer-0.0-0":
            "88ea2838718d943f07b321f25264aa54578d07fe73bd0d8b5ea8edfa9ac4648b",
        "pincer-0.0-1":
            "68b68ee9df88afa9bc48d93b01d8a49b6938933745843816f7b80da265e0d81c",
        "pincer-0.005-0":
            "784f8bf28ef40f322d4ebb1173579ff752c84eb46e5580022b7dc700e5d43443",
        "pincer-0.005-1":
            "df069cd9f65d09adc6f9a09a7565c9ce12357d291219362ae3456656c10ab9be",
        "pincer-bound":
            "e682474b8e9af3c8fbfae65cc9b3bc8a659d25970fa1e19ba168c182508428c6",
        "pincer-cut":
            "68aeefbcef52d8d1b0ebbf3d66f0345a52c251a7c4cf8e5b9930252ccfadb530",
        "claw-0.0-0":
            "3c802200d84aeab728965e0b1bab0f46d4619ff8513f71b43a470c1f9ef918d9",
        "claw-0.0-1":
            "a2cdf764659814771e49cf0b1d2db2288df02b1e55cd6fb85375345100c6b432",
        "claw-0.005-0":
            "854ae468f222b255379d21745a38c685e542820c4e4e1a9b97121121fc9f9bfe",
        "claw-0.005-1":
            "59b1c7ae1a26335ddf48889968b8cf4a26c3dfe38a57e48ffea0d2de99bb7581",
        "claw-bound":
            "2081a9c309d2a62a34b9fe6c8a9bf4ee083f054ea59b5ff4924b46ebe289254d",
        "claw-cut":
            "fcfea36b30cbef7915e4076c766df0743fc73807fb906de618e7823f50872112",
    },
}

PINNED_HISTORY_DIGESTS = {
    "SkylakeX": {
        "pincer-0.0-0":
            "4d81f1e7ff326e4da30abe7b477448be23f4ab2af3a2b80d6c9eff0a2d193e10",
        "pincer-0.0-1":
            "203a7a6415aee6d9ab107a95c2a08357bd9ac6fea0a27d34e24d37595b3f9b72",
        "pincer-0.005-0":
            "cb604d4818b965547a0d6e76a6368f219532e57a7a6fdaa24f51711527aca340",
        "pincer-0.005-1":
            "dce381c28d41981a2454fccc28bbd24c13e748fea509ffc552b3e6a0fb0c3ea0",
        "pincer-bound":
            "5f01e019c06918b6cfff03085a697c81f62f47d0cfa38b1e5cdb7b03034ab53e",
        "pincer-cut":
            "d7cdee02a1c9c23468a4a60b1cb490fdc3ff99c695722e739cec92bb4234b5f9",
        "claw-0.0-0":
            "583b8997a8b310737503941269ea57a97a50fbc2da8e9f3e99650a81d2f889c0",
        "claw-0.0-1":
            "63372837f1ce0541392e987b1236b6cdbd6266e8a68a216f81a444d418ebc2a5",
        "claw-0.005-0":
            "23f52f0fa9480debe6213b8872f41cdbb43a8026caacc995d1e5a5f3edc3ce47",
        "claw-0.005-1":
            "7480166d26b1482d3562b02445cdccc11196407a2bbadf6e73590059e510f930",
        "claw-bound":
            "26afaeaddfe685926d56d4bb96fb88de37e793df94e5aad353a21c8b37ec2082",
        "claw-cut":
            "1ce80871a6a3b0bafbbd294633f4fd23d8ea67f74b1736626e5667c911f80877",
    },
    "Haswell": {
        "pincer-0.0-0":
            "ae76b5fc4b36ec0909a54d2c6c973fe63bbd3ab0d244d4c1b2427d04f252c482",
        "pincer-0.0-1":
            "cfec9a528623ef75675e7240c0bbfd2c710624341ded0d7debbabafa460948d8",
        "pincer-0.005-0":
            "f6eb8d797e4fcf56f27dc856e6d67d145f01e3573aa388f5fbec8e3ce8eea460",
        "pincer-0.005-1":
            "efe98797f46591799d9452d90ad671b94052b00a1e9d3f728d2c3146e90b6b84",
        "pincer-bound":
            "854bc605de74584d7ed37d5501bbb44321fa897eaa14ebc07b2df016797615c8",
        "pincer-cut":
            "95063a8470ef0194cedd01fdcc0cff081ff95a7b9ab1e946272545f875079a07",
        "claw-0.0-0":
            "18033b677ae1483ebbb966ef0f9b5f11851c18958c913cee370927518a99384a",
        "claw-0.0-1":
            "44d974babaa3db8d4ea768aaf9173bd445e911aa7b8c1cf3f60f19d0db02c0e2",
        "claw-0.005-0":
            "64d0cc402c886f5cef92f3d3bc4f8231ae2e576a735342a79a431b5c1cd2ad63",
        "claw-0.005-1":
            "c379d29f0d56f25b11c9ef9a8d7be381281ab00c4bf9f55c7d22680423a9f44a",
        "claw-bound":
            "966436128c473abcd353d90484ae59d833ade38da783e10a388ec97ee0f94f74",
        "claw-cut":
            "9c01109653f2e34d2f9a1417f41c7d5a804f7f1fc13073e945111bb27ede9624",
    },
    "Sandybridge": {
        "pincer-0.0-0":
            "3f9dc0937ce17d244da607f6cdc01f05fc1e662a651a1150e52b382e6fbcf144",
        "pincer-0.0-1":
            "b5698ab74310b512075e96caa3547852b4851b40ddf6aed41c105b9c1dfb059b",
        "pincer-0.005-0":
            "51f611ccb1bbaadf3387b3cd405bcc5167a13b443b2fca9c8421b4255850f94e",
        "pincer-0.005-1":
            "909e1239454b06ec9949ea6a9f6d26331dba31e69586b64a3ee95deb2abeb897",
        "pincer-bound":
            "1208b87c2f511cc0969a86f1cd2844e893d5133f72e025c624ff0a13a33e8c83",
        "pincer-cut":
            "3051c7f6b017abe8e176ef0e639c64a16edf79031d96166a8416b9c3071a0575",
        "claw-0.0-0":
            "1aaff35a0e191b3d2ce13fbfcfc8ba4432081f50bde7db6bc417533758f5680d",
        "claw-0.0-1":
            "0e85d508a3b5c612740a478aaf8e4430a4e39c38a691c63eee1e3bacb14fab09",
        "claw-0.005-0":
            "9bedc106daf792dad93a6ac911899cfcfbc2707df985699da537a4c8e7b59767",
        "claw-0.005-1":
            "8bce356c9c8c3fc905e10949c5397aef38aeabaa7098c19ed3aee79d9133a689",
        "claw-bound":
            "c323a148c7e5a7b289e6f6390ebf0e303358e0827ac38650f62e046322e1787d",
        "claw-cut":
            "4c022a7ed86f73a976b8b4c05a70cb4c4f81c7a2ee1a3d7c5844e9159edd9bc7",
    },
}


class TestPinnedSolves:
    def test_iterates_unchanged(self, pincer, claw, blas_kernel, monkeypatch):
        assert blas_kernel in PINNED_DIGESTS, f"no digests pinned for the {blas_kernel} kernel"
        # each solve's TrfResult, for the iterates on the way to the pose
        trf = []
        solve = ik.solve_trf
        monkeypatch.setattr(ik, "solve_trf",
                            lambda *args, **kw: trf.append(solve(*args, **kw)) or trf[-1])
        got = {}
        for name, ee, targets, cloud, offset, max_iter in pinned_solves(pincer, claw):
            if name.endswith("bound"):
                # trace 1 + 2 cos(angle) = -1: the start is a half turn
                start = kinematics.heuristic_init_pose(ee, cloud, targets)
                assert abs(np.trace(start.root_matrix()) + 1.0) < 1e-12
            res = solve_ik(ee, targets, cloud, offset=offset, max_iter=max_iter)
            got[name] = (res.status, res.iterations, solution_digest(res),
                         history_digest(trf[-1]))
        assert got == {name: (*PINNED_SOLVES[name], PINNED_DIGESTS[blas_kernel][name],
                              PINNED_HISTORY_DIGESTS[blas_kernel][name])
                       for name in PINNED_SOLVES}
