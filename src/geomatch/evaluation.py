"""Quasi-static grasp assessment.

A grasp succeeds if, for a unit force pushed along each of the six axis
directions in turn, nonnegative combinations of linearized friction-cone
edge forces at the active contacts can balance it, and at least two
keypoints actually touch the object. Balance is cone membership, so the
verdict does not depend on the size of the push. This is a desk-scale
stand-in for running the grasp in a physics simulator; success percentages
from simulator-based protocols are not comparable.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, SchemaError, TooFewPoses
from .geometry import PointCloud, nearest_vertices
from .kinematics import EndEffectorModel, Pose, keypoint_positions

AXIS_DIRECTIONS = (
    ("px", np.array([1.0, 0.0, 0.0])), ("nx", np.array([-1.0, 0.0, 0.0])),
    ("py", np.array([0.0, 1.0, 0.0])), ("ny", np.array([0.0, -1.0, 0.0])),
    ("pz", np.array([0.0, 0.0, 1.0])), ("nz", np.array([0.0, 0.0, -1.0])),
)


@dataclass(frozen=True)
class EvalConfig:
    friction_mu: float = 0.5
    cone_edges: int = 8
    snap_radius: float = 0.01       # keypoint-to-surface contact tolerance

    def __post_init__(self):
        if self.friction_mu <= 0:
            raise SchemaError("friction coefficient must be positive")
        if self.cone_edges < 3:
            raise SchemaError("need at least 3 cone edges")


@dataclass(frozen=True)
class GraspOutcome:
    success: bool
    resisted: dict                  # direction tag -> bool
    keypoints: np.ndarray           # (6, 3) solved keypoint positions
    active_contacts: tuple[int, ...]


# ---------------------------------------------------------------------------
# linear feasibility by a two-phase (phase-1) simplex
# ---------------------------------------------------------------------------

_SIMPLEX_TOL = 1e-9     # pivot tolerance; also bounds the optimum / max|rhs|


def nonnegative_combination_exists(mat: np.ndarray, rhs: np.ndarray) -> bool:
    """True iff some x >= 0 satisfies mat @ x = rhs.

    Phase-1 simplex with Bland's rule: minimize the sum of artificial
    slacks; the optimum is zero exactly when the system is feasible.
    Scaling rhs scales every ratio test and the optimum alike, so the
    optimum is compared against `_SIMPLEX_TOL` times the largest |rhs| entry and
    the verdict does not depend on the size of rhs.
    """
    a = np.asarray(mat, dtype=np.float64)
    b = np.asarray(rhs, dtype=np.float64).reshape(-1)
    m, n = a.shape
    if b.shape[0] != m:
        raise SchemaError("rhs length must match the row count")
    flip = b < 0
    a = np.where(flip[:, None], -a, a)
    b = np.where(flip, -b, b)

    # tableau: columns [x (n) | artificials (m) | rhs]
    tableau = np.zeros((m + 1, n + m + 1))
    tableau[:m, :n] = a
    tableau[:m, n:n + m] = np.eye(m)
    tableau[:m, -1] = b
    # objective row for min sum(artificials), basis = artificials
    tableau[m, :n] = -a.sum(axis=0)
    tableau[m, -1] = -b.sum()
    basis = np.arange(n, n + m)

    for _ in range(20000):
        eligible = np.flatnonzero(tableau[m, :n + m] < -_SIMPLEX_TOL)
        if eligible.size == 0:
            break
        entering = eligible[0]      # Bland: smallest eligible index
        column = tableau[:m, entering]
        rows = np.flatnonzero(column > _SIMPLEX_TOL)
        if rows.size == 0:
            return False            # unbounded phase-1: cannot happen, bail out
        ratios = tableau[rows, -1] / column[rows]
        # smallest ratio, ties to the smallest basic index
        leaving = rows[np.lexsort((basis[rows], ratios))[0]]
        tableau[leaving] /= tableau[leaving, entering]
        # a row with a zero factor keeps its values: x - 0 * y == x
        factors = tableau[:, entering].copy()
        factors[leaving] = 0.0
        tableau -= np.outer(factors, tableau[leaving])
        basis[leaving] = entering
    else:
        raise NumericalError("simplex failed to terminate")

    return bool(-tableau[m, -1] <= _SIMPLEX_TOL * b.max(initial=0.0))


def tangent_basis(normal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic (u, v) with u, v, normal orthonormal.

    The seed axis is the canonical axis with the smallest |component| of
    the normal (lowest index on ties), so the basis never degenerates.
    """
    n = np.asarray(normal, dtype=np.float64)
    n = n / np.linalg.norm(n)
    j = int(np.argmin(np.abs(n)))
    e = np.zeros(3)
    e[j] = 1.0
    u = np.cross(e, n)
    u /= np.linalg.norm(u)
    v = np.cross(n, u)
    return u, v


def friction_cone_edges(normal: np.ndarray, mu: float, edges: int) -> np.ndarray:
    """(E, 3) linearized cone edge directions around the contact normal."""
    u, v = tangent_basis(normal)
    n = np.asarray(normal, dtype=np.float64) / np.linalg.norm(normal)
    phis = 2.0 * math.pi * np.arange(edges) / edges
    return n[None, :] + mu * (np.cos(phis)[:, None] * u[None, :]
                              + np.sin(phis)[:, None] * v[None, :])


def wrench_basis(contact_points, contact_normals, cfg: EvalConfig,
                 origin) -> np.ndarray:
    """(6, C*E) wrenches of the cone edges, torques about `origin`.

    Column c*E + e is edge e at contact c: its force over its torque.
    """
    pts = np.asarray(contact_points, dtype=np.float64).reshape(-1, 3)
    nrm = np.asarray(contact_normals, dtype=np.float64).reshape(-1, 3)
    if pts.shape[0] == 0:
        raise SchemaError("need at least one contact")
    if pts.shape != nrm.shape:
        raise SchemaError("points and normals must align")
    forces = np.stack([friction_cone_edges(n, cfg.friction_mu, cfg.cone_edges)
                       for n in nrm])
    arms = pts - np.asarray(origin, dtype=np.float64)
    torques = np.cross(arms[:, None, :], forces)
    return np.concatenate([forces, torques], axis=2).reshape(-1, 6).T


def wrench_feasible(contact_points, contact_normals, wrench, cfg: EvalConfig,
                    origin) -> bool:
    """Can cone-edge forces at the contacts balance the external wrench?

    Feasible iff nonnegative coefficients on the edge forces produce the
    net wrench -w, torques taken about `origin`.
    """
    w = np.asarray(wrench, dtype=np.float64).reshape(6)
    return nonnegative_combination_exists(
        wrench_basis(contact_points, contact_normals, cfg, origin), -w)


# ---------------------------------------------------------------------------
# grasp-level metrics
# ---------------------------------------------------------------------------

def evaluate_grasp(object_cloud: PointCloud, ee: EndEffectorModel,
                   solved_pose: Pose,
                   cfg: EvalConfig = EvalConfig()) -> GraspOutcome:
    """Wrench-feasibility test along all six axis directions.

    Keypoints within the snap radius of the object become contacts at their
    nearest vertex, pressing along that vertex's inward normal. Torques are
    taken about the object centroid. Success requires every direction
    resisted and at least two active contacts.
    """
    if object_cloud.normals is None:
        raise SchemaError("object cloud lacks normals")
    kp = keypoint_positions(ee, solved_pose)
    idx, dist = nearest_vertices(object_cloud.points, kp)
    active = np.flatnonzero(dist <= cfg.snap_radius)
    if active.size:
        basis = wrench_basis(object_cloud.points[idx[active]],
                             -object_cloud.normals[idx[active]], cfg,
                             object_cloud.centroid())
        resisted = {tag: nonnegative_combination_exists(
                        basis, -np.concatenate([direction, np.zeros(3)]))
                    for tag, direction in AXIS_DIRECTIONS}
    else:
        resisted = {tag: False for tag, _ in AXIS_DIRECTIONS}
    success = all(resisted.values()) and active.size >= 2
    return GraspOutcome(success=success, resisted=resisted, keypoints=kp,
                        active_contacts=tuple(int(i) for i in active))


def diversity(successful_poses: list[Pose]) -> float:
    """Mean over joints of the per-joint population std of joint values."""
    if len(successful_poses) < 2:
        raise TooFewPoses("diversity needs at least 2 poses")
    thetas = np.stack([p.theta for p in successful_poses])
    if thetas.ndim != 2:
        raise TooFewPoses("poses must share one joint dimension")
    return float(thetas.std(axis=0, ddof=0).mean())


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

EVAL_CSV_HEADER = ["object", "ee", "rank", "success", "active_contacts",
                   "mean_contact_error_mm"] + [f"resisted_{tag}" for tag, _ in
                                               AXIS_DIRECTIONS]


def write_eval_csv(rows: list[dict], path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(EVAL_CSV_HEADER)
        for row in rows:
            w.writerow([row[k] for k in EVAL_CSV_HEADER])


def write_eval_summary(rows: list[dict], poses_by_ee: dict, path) -> None:
    """Success rate and joint-angle diversity per end-effector."""
    summary = {"per_ee": {}, "overall": {}}
    by_ee: dict[str, list[dict]] = {}
    for row in rows:
        by_ee.setdefault(row["ee"], []).append(row)
    for ee_id, ee_rows in sorted(by_ee.items()):
        n = len(ee_rows)
        wins = sum(1 for r in ee_rows if r["success"])
        entry = {"grasps": n, "success_pct": 100.0 * wins / n}
        good_poses = poses_by_ee.get(ee_id, [])
        entry["diversity_rad"] = (diversity(good_poses)
                                  if len(good_poses) >= 2 else None)
        summary["per_ee"][ee_id] = entry
    total = len(rows)
    summary["overall"] = {
        "grasps": total,
        "success_pct": (100.0 * sum(1 for r in rows if r["success"]) / total
                        if total else 0.0)}
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
