"""Bounded nonlinear least squares and grasp inverse kinematics.

The solver is a dense trust-region method of the reflective family:
Gauss-Newton steps inside a trust region, Coleman-Li diagonal scaling from
the distance to the active box bounds, and single reflection of steps that
would cross a bound. Iterates stay strictly inside the box. Problem sizes
here are tiny (a dozen unknowns), so subproblems are solved exactly through
an SVD. A problem may supply its Jacobian; otherwise it comes from finite
differences. Grasp IK supplies the analytic keypoint Jacobian, computed in
the same forward-kinematics pass as the residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InfeasibleStart, NonFiniteResidual, SchemaError
from .geometry import PointCloud
from .kinematics import (EndEffectorModel, Pose, PREGRASP_OFFSET,
                         axis_angle_to_matrix, heuristic_init_pose,
                         keypoint_jacobian, keypoint_positions,
                         matrix_to_axis_angle, matrix_to_rot6d,
                         pregrasp_targets)

STATUS_CONVERGED = "Converged"
STATUS_MAX_ITERATIONS = "MaxIterations"
STATUS_SMALL_STEP = "SmallStep"
STATUS_FAILED = "Failed"

_STRICT_NUDGE = 1e-10   # fraction of the bound range used to leave a bound
_INTERIOR = 0.995       # fraction of the distance to a bound a step may take
_FTOL = 1e-8            # relative cost drop that counts as converged
_XTOL = 1e-8            # step, relative to ||x||, that counts as small
_GTOL = 1e-8            # scaled gradient that counts as converged
_FD_STEP = 1e-7         # finite-difference step, relative to max(1, |q_j|)


@dataclass
class LeastSquaresProblem:
    residual: Callable[[np.ndarray], np.ndarray]
    lower: np.ndarray
    upper: np.ndarray
    x0: np.ndarray
    # d residual / dx; None means numeric_jacobian
    jacobian: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        self.lower = np.asarray(self.lower, dtype=np.float64).reshape(-1)
        self.upper = np.asarray(self.upper, dtype=np.float64).reshape(-1)
        self.x0 = np.asarray(self.x0, dtype=np.float64).reshape(-1)
        if not (self.lower.shape == self.upper.shape == self.x0.shape):
            raise SchemaError("bounds and x0 must share one dimension")
        if not (self.lower < self.upper).all():
            raise SchemaError("need lower < upper componentwise")


@dataclass
class TrfResult:
    x: np.ndarray
    residual_norm: float
    iterations: int
    status: str
    # accepted iterates and costs, index 0 is the start point
    x_history: list = field(default_factory=list)
    cost_history: list = field(default_factory=list)


def _check_finite(r: np.ndarray, where: str) -> np.ndarray:
    r = np.asarray(r, dtype=np.float64).reshape(-1)
    if not np.isfinite(r).all():
        raise NonFiniteResidual(f"residual non-finite {where}")
    return r


def numeric_jacobian(problem: LeastSquaresProblem, q: np.ndarray) -> np.ndarray:
    """Finite-difference Jacobian: central inside, one-sided at a bound."""
    q = np.asarray(q, dtype=np.float64).reshape(-1)
    r0 = _check_finite(problem.residual(q), "at the expansion point")
    jac = np.empty((r0.size, q.size))
    for j in range(q.size):
        h = _FD_STEP * max(1.0, abs(q[j]))
        hi_ok = q[j] + h <= problem.upper[j]
        lo_ok = q[j] - h >= problem.lower[j]
        qp, qm = q.copy(), q.copy()
        if hi_ok and lo_ok:
            qp[j] += h
            qm[j] -= h
            rp = _check_finite(problem.residual(qp), f"probing +{j}")
            rm = _check_finite(problem.residual(qm), f"probing -{j}")
            jac[:, j] = (rp - rm) / (2.0 * h)
        elif hi_ok:
            qp[j] += h
            rp = _check_finite(problem.residual(qp), f"probing +{j}")
            jac[:, j] = (rp - r0) / h
        else:
            qm[j] -= h
            rm = _check_finite(problem.residual(qm), f"probing -{j}")
            jac[:, j] = (r0 - rm) / h
    return jac


def _jacobian(problem: LeastSquaresProblem, x: np.ndarray) -> np.ndarray:
    if problem.jacobian is None:
        return numeric_jacobian(problem, x)
    jac = np.asarray(problem.jacobian(x), dtype=np.float64)
    if not np.isfinite(jac).all():
        raise NonFiniteResidual("Jacobian non-finite")
    return jac


def _solve_tr_subproblem(jac: np.ndarray, r: np.ndarray, radius: float):
    """argmin ||J s + r|| subject to ||s|| <= radius, via SVD.

    Returns (s, hit_boundary).
    """
    u, sv, vt = np.linalg.svd(jac, full_matrices=False)
    zeta = u.T @ r
    good = sv > max(sv[0] if sv.size else 0.0, 1.0) * 1e-14
    coef = np.zeros_like(sv)
    coef[good] = zeta[good] / sv[good]
    s_gn = -vt.T @ coef
    norm_gn = np.linalg.norm(s_gn)
    if norm_gn <= radius:
        return s_gn, False

    def step_norm(lam: float) -> float:
        c = sv * zeta / (sv ** 2 + lam)
        return float(np.linalg.norm(c))

    lo, hi = 0.0, 1.0
    g_norm = np.linalg.norm(jac.T @ r)
    hi = max(g_norm / radius, 1e-12)
    while step_norm(hi) > radius:
        hi *= 2.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if step_norm(mid) > radius:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14 * max(1.0, hi):
            break
    lam = hi
    coef = sv * zeta / (sv ** 2 + lam)
    return -vt.T @ coef, True


def _max_feasible_stride(x, p, lower, upper) -> tuple[float, np.ndarray]:
    """Largest tau with x + tau p inside the box, plus the hit mask."""
    with np.errstate(divide="ignore", invalid="ignore"):
        toward_hi = np.where(p > 0, (upper - x) / p, np.inf)
        toward_lo = np.where(p < 0, (lower - x) / p, np.inf)
    tau_all = np.minimum(toward_hi, toward_lo)
    tau = float(tau_all.min()) if tau_all.size else np.inf
    hit = tau_all <= tau * (1 + 1e-12)
    return tau, hit


def _clip_strict(x, lower, upper):
    out = np.array(x, dtype=np.float64)
    for j in range(out.size):
        lo, hi = lower[j], upper[j]
        if math.isfinite(lo) and math.isfinite(hi):
            eps = _STRICT_NUDGE * (hi - lo)
        else:
            finite = [abs(b) for b in (lo, hi) if math.isfinite(b)]
            eps = _STRICT_NUDGE * max(1.0, *finite) if finite else _STRICT_NUDGE
        if out[j] <= lo:
            out[j] = lo + eps
        elif out[j] >= hi:
            out[j] = hi - eps
    return out


def solve_trf(problem: LeastSquaresProblem, max_iter: int = 100) -> TrfResult:
    """Minimize 0.5 ||r(q)||^2 over a box, keeping iterates strictly inside.

    Accepted steps never increase the objective. Termination: `_GTOL` on the
    scaled gradient or `_FTOL` on the relative cost drop report Converged; a
    step below `_XTOL` reports SmallStep; otherwise MaxIterations.
    """
    lower, upper = problem.lower, problem.upper
    x = _clip_strict(problem.x0, lower, upper)
    if not ((lower < x) & (x < upper)).all():
        raise InfeasibleStart("could not nudge the start strictly inside")
    r = _check_finite(problem.residual(x), "at the start")
    cost = 0.5 * float(r @ r)
    result = TrfResult(x=x, residual_norm=math.sqrt(2 * cost), iterations=0,
                       status=STATUS_MAX_ITERATIONS,
                       x_history=[x.copy()], cost_history=[cost])
    radius = max(1.0, float(np.linalg.norm(x)))
    jac = None      # recomputed only where x moved

    for it in range(1, max_iter + 1):
        result.iterations = it
        if jac is None:
            jac = _jacobian(problem, x)
        grad = jac.T @ r

        # Coleman-Li scaling: distance to the bound the gradient pushes toward
        v = np.ones_like(x)
        neg = (grad < 0) & np.isfinite(upper)
        pos = (grad > 0) & np.isfinite(lower)
        v[neg] = upper[neg] - x[neg]
        v[pos] = x[pos] - lower[pos]
        if np.max(np.abs(grad * v), initial=0.0) < _GTOL:
            result.status = STATUS_CONVERGED
            break
        d = np.sqrt(v)

        jac_scaled = jac * d[None, :]
        s, _ = _solve_tr_subproblem(jac_scaled, r, radius)
        p = d * s

        candidates = []

        def add_candidate(step_vec):
            trial = x + step_vec
            if ((lower < trial) & (trial < upper)).all():
                model_cost = 0.5 * float(np.sum((jac @ step_vec + r) ** 2))
                candidates.append((model_cost, step_vec))

        tau, hit = _max_feasible_stride(x, p, lower, upper)
        if tau >= 1.0:
            add_candidate(p)
        else:
            stride = _INTERIOR * tau
            add_candidate(stride * p)
            # reflect the crossing components once, then clip
            reflected = p.copy()
            reflected[hit] = -reflected[hit]
            x_wall = x + stride * p
            tau2, _ = _max_feasible_stride(x_wall, reflected, lower, upper)
            beta = min(1.0 - tau, _INTERIOR * tau2)
            if beta > 0:
                add_candidate(stride * p + beta * reflected)
        # scaled steepest-descent fallback keeps progress available
        g_scaled = d * grad
        gn = np.linalg.norm(g_scaled)
        if gn > 0:
            p_grad = -d * g_scaled * (radius / gn)
            tau_g, _ = _max_feasible_stride(x, p_grad, lower, upper)
            add_candidate(min(1.0, _INTERIOR * tau_g) * p_grad)

        if not candidates:
            result.status = STATUS_SMALL_STEP
            break
        model_cost, p_best = min(candidates, key=lambda c: c[0])
        predicted = cost - model_cost

        x_trial = x + p_best
        r_trial = _check_finite(problem.residual(x_trial), "at a trial point")
        cost_trial = 0.5 * float(r_trial @ r_trial)
        actual = cost - cost_trial
        rho = actual / predicted if predicted > 0 else -1.0

        step_norm = float(np.linalg.norm(p_best))
        if actual > 0:
            x, r, cost, jac = x_trial, r_trial, cost_trial, None
            result.x_history.append(x.copy())
            result.cost_history.append(cost)
            if actual <= _FTOL * max(cost, 1e-300) and predicted <= _FTOL * max(cost, 1e-300):
                result.status = STATUS_CONVERGED
                break
            if cost <= 1e-300:
                result.status = STATUS_CONVERGED
                break
        if step_norm <= _XTOL * (_XTOL + float(np.linalg.norm(x))):
            result.status = STATUS_SMALL_STEP if actual <= 0 else STATUS_CONVERGED
            break
        if rho < 0.25:
            radius = 0.25 * step_norm
        elif rho > 0.75:
            radius = max(radius, 2.0 * step_norm)
        if radius < 1e-14 * max(1.0, float(np.linalg.norm(x))):
            result.status = STATUS_SMALL_STEP
            break

    result.x = x
    result.residual_norm = math.sqrt(2 * cost)
    return result


# ---------------------------------------------------------------------------
# grasp IK
# ---------------------------------------------------------------------------

TRANSLATION_BOUND = 10.0    # meters; an effectively free root translation


@dataclass(frozen=True)
class IKResult:
    pose: Pose
    residual_norm: float
    iterations: int
    status: str
    per_keypoint: np.ndarray    # meters, distance to each target


def _pose_from_vector(q: np.ndarray) -> Pose:
    rot = axis_angle_to_matrix(q[3:6])
    return Pose(t=q[:3], r6=matrix_to_rot6d(rot), theta=q[6:])


def solve_ik(ee: EndEffectorModel, targets, object_cloud: PointCloud | None = None,
             offset: float = PREGRASP_OFFSET, max_iter: int = 100) -> IKResult:
    """Fit the gripper pose so its keypoints reach the given contacts.

    The decision vector is (t, root axis-angle, theta) with the translation
    in a [-10, 10] m box, the axis-angle components in [-pi, pi] and theta
    inside the joint limits. Targets are first pushed `offset` meters along
    the object normals (pass offset=0 to aim at the contacts directly). The
    start point is the palm-alignment heuristic, so the cloud is required.
    """
    targets = np.asarray(targets, dtype=np.float64).reshape(-1, 3)
    if not np.isfinite(targets).all():
        raise SchemaError("targets must be finite")
    if object_cloud is None:
        raise SchemaError("an object cloud is required for the heuristic start")
    effective = (pregrasp_targets(targets, object_cloud, offset)
                 if offset != 0.0 else targets)
    init_pose = heuristic_init_pose(ee, object_cloud, targets)

    lo_theta, hi_theta = ee.chain.joint_limits()
    lower = np.concatenate([np.full(3, -TRANSLATION_BOUND),
                            np.full(3, -math.pi), lo_theta])
    upper = np.concatenate([np.full(3, TRANSLATION_BOUND),
                            np.full(3, math.pi), hi_theta])
    x0 = np.concatenate([init_pose.t,
                         matrix_to_axis_angle(init_pose.root_matrix()),
                         init_pose.theta])

    # the residual and its Jacobian at the last point, from one FK pass; an
    # accepted trial point is where solve_trf asks for the next Jacobian
    last = {"q": None}

    def at(q: np.ndarray) -> dict:
        if last["q"] is None or not np.array_equal(q, last["q"]):
            kp, jac = keypoint_jacobian(ee, q)
            last.update(q=q.copy(), r=(kp - effective).reshape(-1), jac=jac)
        return last

    problem = LeastSquaresProblem(residual=lambda q: at(q)["r"],
                                  jacobian=lambda q: at(q)["jac"],
                                  lower=lower, upper=upper, x0=x0)
    res = solve_trf(problem, max_iter=max_iter)
    pose = _pose_from_vector(res.x)
    per_kp = np.linalg.norm(keypoint_positions(ee, pose) - effective, axis=1)
    return IKResult(pose=pose, residual_norm=res.residual_norm,
                    iterations=res.iterations, status=res.status,
                    per_keypoint=per_kp)


def ik_result_to_dict(result: IKResult) -> dict:
    from .kinematics import pose_to_dict
    return {"status": result.status, "iterations": int(result.iterations),
            "residual_norm": float(result.residual_norm),
            "per_keypoint_mm": [float(v * 1000.0) for v in result.per_keypoint],
            "pose": pose_to_dict(result.pose)}
