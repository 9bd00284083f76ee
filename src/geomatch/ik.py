"""Bounded nonlinear least squares and grasp inverse kinematics.

The solver is a dense trust-region method of the reflective family:
Gauss-Newton steps inside a trust region, Coleman-Li diagonal scaling from
the distance to the active box bounds, and single reflection of steps that
would cross a bound. Iterates stay strictly inside the box. Problem sizes
here are tiny (a dozen unknowns), so subproblems are solved exactly through
an SVD; a step on the trust-region boundary takes its Levenberg-Marquardt
parameter from Newton steps on the secular equation over that SVD (More,
1978). The radius bounds the scaled step s = p / d and is updated from
||s|| (Branch, Coleman & Li, 1999). A problem may supply its Jacobian;
otherwise it comes from finite differences. Grasp IK supplies the analytic
keypoint Jacobian, computed in the same forward-kinematics pass as the
residual, and solves for a rotation increment that it folds into the root
rotation after each accepted step.

An iteration is mostly small numpy calls, so the loop makes few of them.
What depends on the point alone (the scaling, the SVD terms with the
Gauss-Newton step, the scaled descent direction, the room to each bound)
is computed once per accepted point and reused by every step tried from
it. Componentwise box work runs on Python lists. Every reduction stays
the numpy call whose bits it has (norms as v.dot(v), np.add.reduce, the
BLAS products), so each iterate is the same, bit for bit.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InfeasibleStart, NonFiniteResidual, SchemaError
from .geometry import PointCloud
from .kinematics import (EndEffectorModel, N_KEYPOINTS, Pose, PREGRASP_OFFSET,
                         _norm, _rotations, heuristic_init_pose,
                         keypoint_jacobian, keypoint_positions, matrix_to_rot6d,
                         pose_to_dict, pregrasp_targets)

STATUS_CONVERGED = "Converged"
STATUS_MAX_ITERATIONS = "MaxIterations"
STATUS_SMALL_STEP = "SmallStep"

_STRICT_NUDGE = 1e-10   # fraction of the bound range used to leave a bound
_INTERIOR = 0.995       # fraction of the distance to a bound a step may take
_FTOL = 1e-8            # relative cost drop that counts as converged
_XTOL = 1e-8            # step, relative to ||x||, that counts as small
_GTOL = 1e-8            # scaled gradient that counts as converged
_FD_STEP = 1e-7         # finite-difference step, relative to max(1, |q_j|)
_SECULAR_STEPS = 50     # cap on Newton steps for the secular equation


@dataclass
class LeastSquaresProblem:
    residual: Callable[[np.ndarray], np.ndarray]
    lower: np.ndarray
    upper: np.ndarray
    x0: np.ndarray
    # d residual / dx; None means numeric_jacobian
    jacobian: Callable[[np.ndarray], np.ndarray] | None = None
    # maps each accepted x to a point with the same residual, where the next
    # Jacobian is taken (a manifold increment folded into its base point)
    recenter: Callable[[np.ndarray], np.ndarray] | None = None

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
    """Finite-difference Jacobian: central inside, one-sided at a bound;
    every probe stays in the box."""
    q = np.asarray(q, dtype=np.float64).reshape(-1)
    r0 = _check_finite(problem.residual(q), "at the expansion point")
    jac = np.empty((r0.size, q.size))
    for j in range(q.size):
        h = _FD_STEP * max(1.0, abs(q[j]))
        hi_ok = q[j] + h <= problem.upper[j]
        lo_ok = q[j] - h >= problem.lower[j]
        if not (hi_ok or lo_ok):
            # no room for h on either side: one-sided toward the side with
            # more room, the step cut to fit
            hi_ok = problem.upper[j] - q[j] >= q[j] - problem.lower[j]
            h = problem.upper[j] - q[j] if hi_ok else q[j] - problem.lower[j]
        qp, qm = q.copy(), q.copy()
        qp[j] = min(q[j] + h, problem.upper[j])
        qm[j] = max(q[j] - h, problem.lower[j])
        if hi_ok and lo_ok:
            rp = _check_finite(problem.residual(qp), f"probing +{j}")
            rm = _check_finite(problem.residual(qm), f"probing -{j}")
            jac[:, j] = (rp - rm) / (2.0 * h)
        elif hi_ok:
            rp = _check_finite(problem.residual(qp), f"probing +{j}")
            jac[:, j] = (rp - r0) / h
        else:
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


def _secular(a2: np.ndarray, sv2: np.ndarray, lam: float) -> tuple[float, float]:
    """||p(lam)||^2 = sum a^2 / (sv^2 + lam)^2 and sum a^2 / (sv^2 + lam)^3.

    w and t have the bits of 1.0 / (sv2 + lam) and a2 * w * w."""
    w = np.reciprocal(sv2 + lam)
    t = a2 * w
    t *= w
    return float(np.add.reduce(t)), float(t.dot(w))


def _svd_terms(jac: np.ndarray, r: np.ndarray):
    """What `_solve_tr_subproblem` needs of J and r at any radius, from the
    SVD of J: singular values and zeta = U^T r as lists, -V, and the
    Gauss-Newton step with its norm."""
    u, sv, vt = np.linalg.svd(jac, full_matrices=False)
    sv, zeta, neg_v = sv.tolist(), (u.T @ r).tolist(), -vt.T
    cut = max(sv[0] if sv else 0.0, 1.0) * 1e-14
    s_gn = neg_v @ [z / s if s > cut else 0.0 for z, s in zip(zeta, sv)]
    return sv, zeta, neg_v, s_gn, _norm(s_gn)


def _solve_tr_subproblem(terms, radius: float):
    """argmin ||J s + r|| subject to ||s|| <= radius, from `_svd_terms`.

    Returns (s, hit_boundary). On the boundary s = -(J^T J + lam I)^-1 J^T r,
    with lam from Newton steps on the secular equation 1/radius - 1/||p(lam)||
    over the SVD (More & Sorensen, 1983). 1/||p|| is concave in lam, so from
    lam = 0, where ||p|| > radius, the iterates rise to the root without
    overshooting it.
    """
    sv, zeta, neg_v, s_gn, gn_norm = terms
    if gn_norm <= radius:
        return s_gn, False

    a = list(map(operator.mul, sv, zeta))
    # a term with a = 0 adds nothing to p
    a2 = np.array([c * c for c in a if c])
    sv2 = np.array([s * s for c, s in zip(a, sv) if c])
    lam = 0.0
    for _ in range(_SECULAR_STEPS):
        norm2, slope = _secular(a2, sv2, lam)
        norm = math.sqrt(norm2)
        if norm - radius <= 1e-12 * radius:
            break
        lam += (norm - radius) / radius * norm2 / slope
    coef = [c / (s * s + lam) if c else 0.0 for c, s in zip(a, sv)]
    return neg_v @ coef, True


def _max_feasible_stride(p, room_hi, room_lo) -> tuple[float, list]:
    """Largest tau with x + tau p inside the box and each component's own,
    on lists, from the room to the bounds: room_hi = upper - x and
    room_lo = lower - x."""
    taus = [hi / c if c > 0 else lo / c if c < 0 else math.inf
            for c, hi, lo in zip(p, room_hi, room_lo)]
    return min(taus, default=math.inf), taus


def _inside(x, lower, upper) -> bool:
    """lower < x < upper componentwise, on lists."""
    return all(map(operator.lt, lower, x)) and all(map(operator.lt, x, upper))


def _clip_strict(x, lower, upper):
    out = []
    for xj, lo, hi in zip(x.tolist(), lower.tolist(), upper.tolist()):
        if math.isfinite(lo) and math.isfinite(hi):
            eps = _STRICT_NUDGE * (hi - lo)
        else:
            finite = [abs(b) for b in (lo, hi) if math.isfinite(b)]
            eps = _STRICT_NUDGE * max(1.0, *finite) if finite else _STRICT_NUDGE
        out.append(lo + eps if xj <= lo else hi - eps if xj >= hi else xj)
    return np.array(out)


def _residual(problem: LeastSquaresProblem, x: np.ndarray, where: str):
    """r(x) as a float vector and its cost 0.5 ||r||^2. A finite r @ r shows
    every component finite; otherwise they are checked one by one."""
    r = np.asarray(problem.residual(x), dtype=np.float64).reshape(-1)
    rr = float(r @ r)
    if not math.isfinite(rr):
        _check_finite(r, where)
    return r, 0.5 * rr


def solve_trf(problem: LeastSquaresProblem, max_iter: int = 100) -> TrfResult:
    """Minimize 0.5 ||r(q)||^2 over a box, keeping iterates strictly inside.

    Accepted steps never increase the objective; each accepted point is
    replaced by `problem.recenter(point)` where the problem has one.
    Termination: `_GTOL` on the scaled gradient or `_FTOL` on the relative
    cost drop report Converged; a step below `_XTOL` reports SmallStep;
    otherwise MaxIterations.
    """
    lower, upper = problem.lower, problem.upper
    x = _clip_strict(problem.x0, lower, upper)
    if not ((lower < x) & (x < upper)).all():
        raise InfeasibleStart("could not nudge the start strictly inside")
    r, cost = _residual(problem, x, "at the start")
    result = TrfResult(x=x, residual_norm=math.sqrt(2 * cost), iterations=0,
                       status=STATUS_MAX_ITERATIONS,
                       x_history=[x.copy()], cost_history=[cost])
    x_norm = _norm(x)
    radius = max(1.0, x_norm)
    # recomputed only where x moved: after a rejected step x, r and the
    # Jacobian are the same, so is everything derived from them
    jac = None
    # componentwise work runs on lists: on a dozen unknowns Python floats
    # cost less than numpy calls, and each operation gives the same bits
    lo_l, up_l = lower.tolist(), upper.tolist()
    box = list(zip(lo_l, up_l, map(math.isfinite, lo_l), map(math.isfinite, up_l)))

    for it in range(1, max_iter + 1):
        result.iterations = it
        if jac is None:
            jac = _jacobian(problem, x)
            grad = jac.T @ r
            # Coleman-Li scaling: distance to the bound the gradient pushes to
            x_l, g_l = x.tolist(), grad.tolist()
            v = [hi - xi if g < 0 and has_hi else xi - lo if g > 0 and has_lo
                 else 1.0 for xi, g, (lo, hi, has_lo, has_hi) in zip(x_l, g_l, box)]
            if max(map(abs, map(operator.mul, g_l, v)), default=0.0) < _GTOL:
                result.status = STATUS_CONVERGED
                break
            d = np.sqrt(v)
            terms = _svd_terms(jac * d, r)
            g_scaled = d * grad
            gn = _norm(g_scaled)
            # the scaled steepest descent direction, before its scale
            descent = list(map(operator.mul, map(operator.neg, d.tolist()),
                               g_scaled.tolist()))
            room_hi = list(map(operator.sub, up_l, x_l))
            room_lo = list(map(operator.sub, lo_l, x_l))
        s, _ = _solve_tr_subproblem(terms, radius)

        # candidate steps: p, stepped back from the box if it leaves it, and
        # reflected off the bound it crosses
        p_l = (d * s).tolist()
        tau, taus = _max_feasible_stride(p_l, room_hi, room_lo)
        if tau >= 1.0:
            steps = [p_l]
        else:
            stride = list(map((_INTERIOR * tau).__mul__, p_l))
            steps = [stride]
            # reflect the crossing components once, then clip
            hit = tau * (1 + 1e-12)
            reflected = [-c if t <= hit else c for c, t in zip(p_l, taus)]
            wall = list(map(operator.add, x_l, stride))
            tau2, _ = _max_feasible_stride(reflected, list(map(operator.sub, up_l, wall)),
                                           list(map(operator.sub, lo_l, wall)))
            beta = min(1.0 - tau, _INTERIOR * tau2)
            if beta > 0:
                steps.append(list(map(operator.add, stride, map(beta.__mul__, reflected))))
        # scaled steepest-descent fallback keeps progress available
        if gn > 0:
            p_grad = list(map((radius / gn).__mul__, descent))
            tau_g, _ = _max_feasible_stride(p_grad, room_hi, room_lo)
            steps.append(list(map(min(1.0, _INTERIOR * tau_g).__mul__, p_grad)))

        # the least model cost wins among the candidates strictly inside the
        # box, the first on a tie; each row's jac @ step and sum of squares
        # are those of a single step
        p_all = np.array(steps)
        model = np.add.reduce(((jac @ p_all[:, :, None])[:, :, 0] + r) ** 2, axis=1).tolist()
        for best in sorted(range(len(steps)), key=model.__getitem__):
            x_trial = list(map(operator.add, x_l, steps[best]))
            if _inside(x_trial, lo_l, up_l):
                break
        else:
            result.status = STATUS_SMALL_STEP
            break
        predicted = cost - 0.5 * model[best]
        p_best, x_trial = p_all[best], np.array(x_trial)

        r_trial, cost_trial = _residual(problem, x_trial, "at a trial point")
        actual = cost - cost_trial
        rho = actual / predicted if predicted > 0 else -1.0

        step_norm = _norm(p_best)
        if actual > 0:
            x, r, cost, jac = x_trial, r_trial, cost_trial, None
            if problem.recenter is not None:
                x = problem.recenter(x)
            x_norm = _norm(x)
            result.x_history.append(x.copy())
            result.cost_history.append(cost)
            if actual <= _FTOL * max(cost, 1e-300) and predicted <= _FTOL * max(cost, 1e-300):
                result.status = STATUS_CONVERGED
                break
            if cost <= 1e-300:
                result.status = STATUS_CONVERGED
                break
        if step_norm <= _XTOL * (_XTOL + x_norm):
            result.status = STATUS_SMALL_STEP if actual <= 0 else STATUS_CONVERGED
            break
        # the radius bounds the scaled step s = p / d, so it follows ||s||
        # (Branch, Coleman & Li, 1999)
        if rho < 0.25:
            radius = 0.25 * _norm(p_best / d)
        elif rho > 0.75:
            radius = max(radius, 2.0 * _norm(p_best / d))
        if radius < 1e-14 * max(1.0, x_norm):
            result.status = STATUS_SMALL_STEP
            break

    result.x = x
    result.residual_norm = math.sqrt(2 * cost)
    return result


# ---------------------------------------------------------------------------
# grasp IK
# ---------------------------------------------------------------------------

TRANSLATION_BOUND = 10.0    # meters; an effectively free root translation
# the bound on each of t and delta
_ROOT_BOX = np.array([TRANSLATION_BOUND] * 3 + [np.inf] * 3)


@dataclass(frozen=True)
class IKResult:
    pose: Pose
    residual_norm: float
    iterations: int
    status: str
    per_keypoint: np.ndarray    # meters, distance to each target


def solve_ik(ee: EndEffectorModel, targets, object_cloud: PointCloud | None = None,
             offset: float = PREGRASP_OFFSET, max_iter: int = 100) -> IKResult:
    """Fit the gripper pose so its keypoints reach the given contacts.

    The decision vector is (t, delta, theta): the translation in a
    [-10, 10] m box, an unbounded rotation increment delta that turns the
    root rotation R_k to exp([delta]x) R_k, and theta inside the joint
    limits. Each accepted step folds delta into R_k and sets it back to 0,
    so every Jacobian is taken at delta = 0 (Sola, Deray & Atchuthan, "A
    micro Lie theory for state estimation in robotics", 2018). Targets are
    first pushed `offset` meters along the object normals (pass offset=0 to
    aim at the contacts directly). The start point is the palm-alignment
    heuristic, so the cloud is required.
    """
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape != (N_KEYPOINTS, 3):
        raise SchemaError(f"targets must be ({N_KEYPOINTS}, 3), got {targets.shape}")
    if not np.isfinite(targets).all():
        raise SchemaError("targets must be finite")
    if object_cloud is None:
        raise SchemaError("an object cloud is required for the heuristic start")
    effective = (pregrasp_targets(targets, object_cloud, offset)
                 if offset != 0.0 else targets)
    init_pose = heuristic_init_pose(ee, object_cloud, targets)

    lo_theta, hi_theta = ee.chain.joint_limits()
    lower = np.concatenate([-_ROOT_BOX, lo_theta])
    upper = np.concatenate([_ROOT_BOX, hi_theta])
    x0 = np.concatenate([init_pose.t, np.zeros(3), init_pose.theta])

    # "base" is R_k; the rest is the last point q's root rotation
    # exp([delta]x) R_k, residual and Jacobian, from one FK pass. solve_trf
    # recenters an accepted trial point right after evaluating it, so that
    # point is the last, and its Jacobian is the one at delta = 0 about the
    # new R_k, which solve_trf asks for next
    last = {"base": init_pose.root_matrix(), "q": None}

    def at(q: np.ndarray) -> dict:
        key = q.tobytes()
        if key != last["q"]:
            rot = _rotations(q[None, 3:6])[0] @ last["base"]
            kp, jac = keypoint_jacobian(ee, (q[:3], rot, q[6:]))
            last.update(q=key, rot=rot, r=(kp - effective).reshape(-1), jac=jac)
        return last

    def recenter(q: np.ndarray) -> np.ndarray:
        last["base"] = at(q)["rot"]
        q = q.copy()
        q[3:6] = 0.0
        last["q"] = q.tobytes()
        return q

    problem = LeastSquaresProblem(residual=lambda q: at(q)["r"],
                                  jacobian=lambda q: at(q)["jac"],
                                  lower=lower, upper=upper, x0=x0, recenter=recenter)
    res = solve_trf(problem, max_iter=max_iter)
    pose = Pose(t=res.x[:3], r6=matrix_to_rot6d(last["base"]), theta=res.x[6:])
    per_kp = np.linalg.norm(keypoint_positions(ee, pose) - effective, axis=1)
    return IKResult(pose=pose, residual_norm=res.residual_norm,
                    iterations=res.iterations, status=res.status,
                    per_keypoint=per_kp)


def ik_result_to_dict(result: IKResult) -> dict:
    return {"status": result.status, "iterations": int(result.iterations),
            "residual_norm": float(result.residual_norm),
            "per_keypoint_mm": [float(v * 1000.0) for v in result.per_keypoint],
            "pose": pose_to_dict(result.pose)}
