"""Quasi-static grasp assessment.

A grasp succeeds if, for a unit acceleration pushed along each of the six
axis directions in turn, nonnegative combinations of linearized
friction-cone edge forces at the active contacts can balance the resulting
wrench, and at least two keypoints actually touch the object. This is a
desk-scale stand-in for running the grasp in a physics simulator; success
percentages from simulator-based protocols are not comparable.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, SchemaError, TooFewPoses
from .geometry import PointCloud
from .kinematics import (EndEffectorModel, N_KEYPOINTS, Pose,
                         keypoint_positions)

AXIS_DIRECTIONS = (
    ("px", np.array([1.0, 0.0, 0.0])), ("nx", np.array([-1.0, 0.0, 0.0])),
    ("py", np.array([0.0, 1.0, 0.0])), ("ny", np.array([0.0, -1.0, 0.0])),
    ("pz", np.array([0.0, 0.0, 1.0])), ("nz", np.array([0.0, 0.0, -1.0])),
)


@dataclass(frozen=True)
class EvalConfig:
    friction_mu: float = 0.5
    cone_edges: int = 8
    mass: float = 0.1               # kg; scales the test wrench only
    acceleration: float = 0.5       # m/s^2, applied along each axis
    snap_radius: float = 0.01       # keypoint-to-surface contact tolerance

    def __post_init__(self):
        if self.friction_mu <= 0:
            raise SchemaError("friction coefficient must be positive")
        if self.cone_edges < 3:
            raise SchemaError("need at least 3 cone edges")
        if self.mass <= 0:
            raise SchemaError("mass must be positive")


@dataclass(frozen=True)
class GraspOutcome:
    success: bool
    resisted: dict                  # direction tag -> bool
    contact_errors: np.ndarray      # (6,) keypoint distance to nearest vertex
    active_contacts: tuple[int, ...]


# ---------------------------------------------------------------------------
# linear feasibility by a two-phase (phase-1) simplex
# ---------------------------------------------------------------------------

def nonnegative_combination_exists(mat: np.ndarray, rhs: np.ndarray,
                                   tol: float = 1e-9) -> bool:
    """True iff some x >= 0 satisfies mat @ x = rhs.

    Phase-1 simplex with Bland's rule: minimize the sum of artificial
    slacks; the optimum is zero exactly when the system is feasible.
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
    basis = list(range(n, n + m))

    for _ in range(20000):
        reduced = tableau[m, :n + m]
        entering = -1
        for j in range(n + m):     # Bland: smallest eligible index
            if reduced[j] < -tol:
                entering = j
                break
        if entering < 0:
            break
        ratios = []
        for i in range(m):
            if tableau[i, entering] > tol:
                ratios.append((tableau[i, -1] / tableau[i, entering],
                               basis[i], i))
        if not ratios:
            return False            # unbounded phase-1: cannot happen, bail out
        _, _, leaving = min(ratios, key=lambda t: (t[0], t[1]))
        pivot = tableau[leaving, entering]
        tableau[leaving] /= pivot
        for i in range(m + 1):
            if i != leaving and tableau[i, entering] != 0.0:
                tableau[i] -= tableau[i, entering] * tableau[leaving]
        basis[leaving] = entering
    else:
        raise NumericalError("simplex failed to terminate")

    return bool(-tableau[m, -1] <= tol)


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


def wrench_feasible(contact_points, contact_normals, wrench,
                    cfg: EvalConfig = EvalConfig(),
                    origin=None) -> bool:
    """Can cone-edge forces at the contacts balance the external wrench?

    Feasible iff nonnegative coefficients on the edge forces produce the
    net wrench -w, torques taken about `origin` (the contact centroid by
    default; grasp evaluation passes the object centroid).
    """
    pts = np.asarray(contact_points, dtype=np.float64).reshape(-1, 3)
    nrm = np.asarray(contact_normals, dtype=np.float64).reshape(-1, 3)
    w = np.asarray(wrench, dtype=np.float64).reshape(6)
    if pts.shape[0] == 0:
        raise SchemaError("need at least one contact")
    if pts.shape != nrm.shape:
        raise SchemaError("points and normals must align")
    origin = pts.mean(axis=0) if origin is None else np.asarray(origin, dtype=np.float64)
    cols = []
    for p, n in zip(pts, nrm):
        arm = p - origin
        for f in friction_cone_edges(n, cfg.friction_mu, cfg.cone_edges):
            cols.append(np.concatenate([f, np.cross(arm, f)]))
    mat = np.stack(cols, axis=1)
    return nonnegative_combination_exists(mat, -w)


# ---------------------------------------------------------------------------
# grasp-level metrics
# ---------------------------------------------------------------------------

def contact_error(ee: EndEffectorModel, solved_pose: Pose,
                  proposal_points) -> np.ndarray:
    """(6,) distance between each solved keypoint and its proposed contact."""
    targets = np.asarray(proposal_points, dtype=np.float64).reshape(-1, 3)
    kp = keypoint_positions(ee, solved_pose)
    return np.linalg.norm(kp - targets, axis=1)


def evaluate_grasp(object_cloud: PointCloud, ee: EndEffectorModel,
                   solved_pose: Pose,
                   cfg: EvalConfig = EvalConfig()) -> GraspOutcome:
    """Wrench-feasibility test along all six axis directions.

    Keypoints within the snap radius of the object become contacts at their
    nearest vertex, pressing along that vertex's inward normal. Success
    requires every direction resisted and at least two active contacts.
    """
    if object_cloud.normals is None:
        raise SchemaError("object cloud lacks normals")
    kp = keypoint_positions(ee, solved_pose)
    dists = np.empty(N_KEYPOINTS)
    active, points, normals = [], [], []
    for i in range(N_KEYPOINTS):
        d = np.linalg.norm(object_cloud.points - kp[i], axis=1)
        j = int(np.argmin(d))
        dists[i] = d[j]
        if d[j] <= cfg.snap_radius:
            active.append(i)
            points.append(object_cloud.points[j])
            normals.append(-object_cloud.normals[j])
    resisted = {}
    centroid = object_cloud.centroid()
    magnitude = cfg.mass * cfg.acceleration
    for tag, direction in AXIS_DIRECTIONS:
        if not active:
            resisted[tag] = False
            continue
        wrench = np.concatenate([magnitude * direction, np.zeros(3)])
        resisted[tag] = wrench_feasible(points, normals, wrench, cfg,
                                        origin=centroid)
    success = all(resisted.values()) and len(active) >= 2
    return GraspOutcome(success=success, resisted=resisted,
                        contact_errors=dists, active_contacts=tuple(active))


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
