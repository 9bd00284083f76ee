"""Synthetic dataset: parametric grippers, primitive objects and grasps.

The generator emits a 2-finger pincer and a 3-finger claw plus spheres,
boxes and cylinders at varied scales, then solves antipodal / radial
closures in closed form so every record carries fingertips exactly on the
object surface. Each cloud takes its 3 uniforms (or normals) per point from
one bulk draw and is computed as arrays, with each point's float operations
in the order of point-by-point sampling, so the bits are the same. Records
are stored as JSON lines and tied together by a manifest with an
object-level train/val split.
"""

from __future__ import annotations

import math
import os
import logging
from dataclasses import dataclass

import numpy as np

from .artifacts import parsing, read_json, read_jsonl, write_json, write_jsonl
from .contact_maps import DEFAULT_M, DEFAULT_THRESHOLD, build_contact_maps
from .errors import IoError, MissingFile, NumericalError, SchemaError, UnknownEe
from .geometry import (DEFAULT_KNN_K, PointCloud, TriangleMesh, knn_graph,
                       load_cloud, nearest_vertices, sample_surface,
                       save_cloud_csv, unit)
from .kinematics import (EndEffectorModel, Joint, Keypoint, KinematicChain,
                         Link, Palm, Pose, forward_kinematics,
                         keypoint_positions, load_ee_model, matrix_to_rot6d,
                         pose_from_dict, pose_to_dict, rest_pose,
                         rotation_between, save_chain)
from .model import TrainingSample
from .rng import Rng

log = logging.getLogger(__name__)

DEFAULT_TOY_POINTS = 256        # S_O = S_G for the toy dataset
FULL_SCALE_POINTS_OBJECT = 2048   # full-scale object cloud size
FULL_SCALE_POINTS_GRIPPER = 1000  # full-scale gripper surface samples
TRAIN_FRACTION = 0.8


@dataclass(frozen=True)
class GraspRecord:
    object_id: str
    ee_id: str
    pose: Pose


@dataclass
class DatasetManifest:
    base_dir: str
    objects: dict[str, str]             # id -> cloud path (relative)
    end_effectors: dict[str, str]       # id -> chain path (relative)
    records: list[GraspRecord]
    split: dict[str, list[str]]         # {"train": [...], "val": [...]}
    s_o: int = DEFAULT_TOY_POINTS
    s_g: int = DEFAULT_TOY_POINTS
    seed: int = 0

    def object_path(self, object_id: str) -> str:
        return os.path.join(self.base_dir, self.objects[object_id])

    def ee_path(self, ee_id: str) -> str:
        return os.path.join(self.base_dir, self.end_effectors[ee_id])

    def records_for_split(self, split: str) -> list[GraspRecord]:
        if split == "all":
            return list(self.records)
        if split not in self.split:
            raise SchemaError(f"unknown split '{split}'")
        chosen = set(self.split[split])
        return [r for r in self.records if r.object_id in chosen]


# ---------------------------------------------------------------------------
# primitive objects
# ---------------------------------------------------------------------------

# sized so that closures keep every keypoint (palm included) within a few
# millimeters of the surface: consistent 6-target IK problems
TOY_OBJECTS = (
    ("sphere_small", "sphere", {"r": 0.042}),
    ("sphere_large", "sphere", {"r": 0.046}),
    ("box_cube", "box", {"half": (0.032, 0.032, 0.028)}),
    ("box_flat", "box", {"half": (0.027, 0.035, 0.026)}),
    ("cyl_slim", "cylinder", {"r": 0.032, "hh": 0.030}),
    ("cyl_wide", "cylinder", {"r": 0.036, "hh": 0.026}),
)

PALM_CLEARANCE = 0.005      # target palm-to-surface gap in a closure


def _sample_sphere(r: float, count: int, rng: Rng):
    nrm = unit(rng.normals(3 * count).reshape(count, 3))
    return r * nrm, nrm


_BOX_NORMALS = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0],
                         [0, -1, 0], [0, 0, 1], [0, 0, -1]], dtype=np.float64)
_TANGENT_AXES = np.array([[1, 2], [0, 2], [0, 1]])   # per face axis


def _sample_box(half, count: int, rng: Rng):
    half = np.asarray(half, dtype=np.float64)
    a, b, c = half
    areas = np.array([b * c, b * c, a * c, a * c, a * b, a * b]) * 4.0
    cdf = np.cumsum(areas) / areas.sum()
    draws = rng.randoms(3 * count).reshape(count, 3)
    face = np.minimum(np.searchsorted(cdf, draws[:, 0], side="right"), 5)
    nrm = _BOX_NORMALS[face]
    pts = nrm * half            # +-half on the face axis
    tangent = _TANGENT_AXES[face // 2]
    np.put_along_axis(pts, tangent, (2.0 * draws[:, 1:] - 1.0) * half[tangent],
                      axis=1)
    return pts, nrm


def _sample_cylinder(r: float, hh: float, count: int, rng: Rng):
    lateral = 2.0 * math.pi * r * 2.0 * hh
    cap = math.pi * r * r
    cdf = np.cumsum([lateral, cap, cap])
    cdf = cdf / cdf[-1]
    pick, u, w = rng.randoms(3 * count).reshape(count, 3).T
    phi = 2.0 * math.pi * u
    cos, sin = np.cos(phi), np.sin(phi)
    side = pick <= cdf[0]
    sign = np.where(pick <= cdf[1], 1.0, -1.0)
    rad = np.where(side, r, r * np.sqrt(w))
    z = np.where(side, (2.0 * w - 1.0) * hh, sign * hh)
    pts = np.stack([rad * cos, rad * sin, z], axis=1)
    nrm = np.where(side[:, None], np.stack([cos, sin, np.zeros(count)], axis=1),
                   np.stack([np.zeros(count), np.zeros(count), sign], axis=1))
    return pts, nrm


def sample_object(kind: str, params: dict, count: int, rng: Rng) -> PointCloud:
    if kind == "sphere":
        pts, nrm = _sample_sphere(params["r"], count, rng)
    elif kind == "box":
        pts, nrm = _sample_box(params["half"], count, rng)
    elif kind == "cylinder":
        pts, nrm = _sample_cylinder(params["r"], params["hh"], count, rng)
    else:
        raise SchemaError(f"unknown object kind {kind}")
    return PointCloud(pts, nrm)


def surface_distance(kind: str, params: dict, points) -> np.ndarray:
    """Unsigned distance from each point to the primitive's surface."""
    p = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if kind == "sphere":
        return np.abs(np.linalg.norm(p, axis=1) - params["r"])
    if kind == "box":
        q = np.abs(p) - np.asarray(params["half"])
        outside = np.linalg.norm(np.maximum(q, 0.0), axis=1)
        inside = np.minimum(q.max(axis=1), 0.0)
        return np.abs(outside + inside)
    if kind == "cylinder":
        dr = np.hypot(p[:, 0], p[:, 1]) - params["r"]
        dz = np.abs(p[:, 2]) - params["hh"]
        outside = np.hypot(np.maximum(dr, 0.0), np.maximum(dz, 0.0))
        inside = np.minimum(np.maximum(dr, dz), 0.0)
        return np.abs(outside + inside)
    raise SchemaError(f"unknown object kind {kind}")


# ---------------------------------------------------------------------------
# toy grippers
# ---------------------------------------------------------------------------

IDENTITY_Q = np.array([1.0, 0.0, 0.0, 0.0])


def _box_mesh(lo, hi) -> TriangleMesh:
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    corners = np.array([[x, y, z] for x in (lo[0], hi[0])
                        for y in (lo[1], hi[1]) for z in (lo[2], hi[2])])
    # index: bit0 z, bit1 y, bit2 x over (lo, hi)
    faces = [
        (0, 1, 3, 2),   # -x
        (4, 6, 7, 5),   # +x
        (0, 4, 5, 1),   # -y
        (2, 3, 7, 6),   # +y
        (0, 2, 6, 4),   # -z
        (1, 5, 7, 3),   # +z
    ]
    tris = [t for a, b, c, d in faces for t in ((a, b, c), (a, c, d))]
    return TriangleMesh(corners, np.array(tris))


def _transform_mesh(mesh: TriangleMesh, rot: np.ndarray, t: np.ndarray) -> TriangleMesh:
    return TriangleMesh(mesh.vertices @ rot.T + t, mesh.triangles)


def _merge_meshes(meshes) -> TriangleMesh:
    verts, tris, offset = [], [], 0
    for m in meshes:
        verts.append(m.vertices)
        tris.append(m.triangles + offset)
        offset += m.vertices.shape[0]
    return TriangleMesh(np.vstack(verts), np.vstack(tris))


def _rot_z(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]])


@dataclass(frozen=True)
class PincerParams:
    finger_sep: float = 0.08        # distance between finger base axes
    finger_len: float = 0.05
    finger_half: float = 0.008      # finger box half thickness
    palm_half_depth: float = 0.012  # y extent
    palm_thickness: float = 0.016
    joint_limit: float = 0.9


@dataclass(frozen=True)
class ClawParams:
    base_radius: float = 0.055
    finger_len: float = 0.05
    finger_half: float = 0.007
    palm_half: float = 0.035
    palm_thickness: float = 0.014
    joint_limit: float = 0.9
    # finger azimuths ordered left to right by rest-pose world x
    azimuths: tuple[float, ...] = (math.radians(210.0), math.radians(90.0),
                                   math.radians(330.0))


def build_pincer(params: PincerParams = PincerParams(),
                 s_g: int = DEFAULT_TOY_POINTS, seed: int = 0) -> EndEffectorModel:
    """Two opposed fingers rotating about +y; keypoints: tips, mids, palm."""
    w, L = params.finger_sep, params.finger_len
    f, d = params.finger_half, params.palm_half_depth
    lim = params.joint_limit
    links = [
        Link("palm", None, np.zeros(3), IDENTITY_Q),
        Link("finger_l", "palm", np.array([-w / 2, 0.0, 0.0]), IDENTITY_Q),
        Link("finger_r", "palm", np.array([w / 2, 0.0, 0.0]), IDENTITY_Q),
    ]
    joints = [
        Joint("j_left", "revolute", "palm", "finger_l",
              np.array([0.0, 1.0, 0.0]), (-lim, lim)),
        Joint("j_right", "revolute", "palm", "finger_r",
              np.array([0.0, 1.0, 0.0]), (-lim, lim)),
    ]
    chain = KinematicChain(links, joints)

    palm_w = w / 2 + 2 * f
    palm_mesh = _box_mesh([-palm_w, -d, -params.palm_thickness], [palm_w, d, 0.0])
    finger_mesh = _box_mesh([-f, -d, 0.0], [f, d, L])
    rest_mesh = _merge_meshes([
        palm_mesh,
        _transform_mesh(finger_mesh, np.eye(3), np.array([-w / 2, 0.0, 0.0])),
        _transform_mesh(finger_mesh, np.eye(3), np.array([w / 2, 0.0, 0.0])),
    ])

    # keypoint order: tips left->right, mids left->right, palm center, palm side
    kp_specs = [
        ("finger_l", np.array([0.0, 0.0, L])),
        ("finger_r", np.array([0.0, 0.0, L])),
        ("finger_l", np.array([f, 0.0, 0.55 * L])),
        ("finger_r", np.array([-f, 0.0, 0.55 * L])),
        ("palm", np.array([0.0, 0.0, 0.0])),
        ("palm", np.array([0.0, 0.6 * d, 0.0])),
    ]
    return _assemble_ee("pincer", chain, rest_mesh, kp_specs,
                        Palm("palm", np.array([0.0, 0.0, 1.0]), np.zeros(3)),
                        s_g, seed)


def build_claw(params: ClawParams = ClawParams(),
               s_g: int = DEFAULT_TOY_POINTS, seed: int = 0) -> EndEffectorModel:
    """Three fingers at 120 degrees closing radially; 6th keypoint on palm."""
    w, L, f = params.base_radius, params.finger_len, params.finger_half
    lim = params.joint_limit
    links = [Link("palm", None, np.zeros(3), IDENTITY_Q)]
    joints = []
    for i, alpha in enumerate(params.azimuths):
        rot = _rot_z(alpha)
        # quaternion for a z-rotation by alpha
        q = np.array([math.cos(alpha / 2), 0.0, 0.0, math.sin(alpha / 2)])
        base = w * np.array([math.cos(alpha), math.sin(alpha), 0.0])
        links.append(Link(f"finger_{i}", "palm", base, q))
        joints.append(Joint(f"j_{i}", "revolute", "palm", f"finger_{i}",
                            np.array([0.0, 1.0, 0.0]), (-lim, lim)))
    chain = KinematicChain(links, joints)

    ph = params.palm_half
    meshes = [_box_mesh([-ph, -ph, -params.palm_thickness], [ph, ph, 0.0])]
    finger_mesh = _box_mesh([-f, -f, 0.0], [f, f, L])
    for alpha in params.azimuths:
        base = w * np.array([math.cos(alpha), math.sin(alpha), 0.0])
        meshes.append(_transform_mesh(finger_mesh, _rot_z(alpha), base))
    rest_mesh = _merge_meshes(meshes)

    kp_specs = [
        ("finger_0", np.array([0.0, 0.0, L])),
        ("finger_1", np.array([0.0, 0.0, L])),
        ("finger_2", np.array([0.0, 0.0, L])),
        ("finger_0", np.array([-f, 0.0, 0.55 * L])),
        ("finger_2", np.array([-f, 0.0, 0.55 * L])),
        ("palm", np.array([0.0, 0.0, 0.0])),
    ]
    return _assemble_ee("claw", chain, rest_mesh, kp_specs,
                        Palm("palm", np.array([0.0, 0.0, 1.0]), np.zeros(3)),
                        s_g, seed)


def _assemble_ee(name: str, chain: KinematicChain, rest_mesh: TriangleMesh,
                 kp_specs, palm: Palm, s_g: int, seed: int) -> EndEffectorModel:
    """Sample the rest surface and append exact keypoint vertices."""
    n_kp = len(kp_specs)
    sampled = sample_surface(rest_mesh, s_g - n_kp, seed)
    fk = forward_kinematics(chain, rest_pose(chain))
    kp_world = np.array([fk[link][:3, :3] @ off + fk[link][:3, 3]
                         for link, off in kp_specs])
    points = np.vstack([sampled.points, kp_world])
    cloud = PointCloud(points)
    keypoints = tuple(
        Keypoint(vertex=s_g - n_kp + i, link=link, offset=np.asarray(off))
        for i, (link, off) in enumerate(kp_specs))
    return EndEffectorModel(name=name, chain=chain, rest_cloud=cloud,
                            keypoints=keypoints, palm=palm)


# ---------------------------------------------------------------------------
# closed-form grasps
# ---------------------------------------------------------------------------

def _pincer_pose(params: PincerParams, grasp_width: float, axis_dir,
                 approach_dir, midpoint) -> tuple[Pose, np.ndarray]:
    """Antipodal pincer closure: tips land at midpoint +- width/2 * axis.

    axis_dir points from the left tip to the right tip; approach_dir is the
    palm-to-tips direction; both must be unit and orthogonal.
    """
    w, L = params.finger_sep, params.finger_len
    s = (w - grasp_width) / (2.0 * L)
    if abs(s) > math.sin(params.joint_limit):
        raise SchemaError(f"grasp width {grasp_width} not reachable")
    phi = math.asin(s)
    ax = np.asarray(axis_dir, dtype=np.float64)
    az = np.asarray(approach_dir, dtype=np.float64)
    ax = ax / np.linalg.norm(ax)
    az = az / np.linalg.norm(az)
    if abs(np.dot(ax, az)) > 1e-9:
        raise SchemaError("axis and approach must be orthogonal")
    ay = np.cross(az, ax)
    rot = np.stack([ax, ay, az], axis=1)
    m = np.asarray(midpoint, dtype=np.float64)
    t = m - L * math.cos(phi) * az
    pose = Pose(t=t, r6=matrix_to_rot6d(rot), theta=np.array([phi, -phi]))
    contacts = np.stack([m - 0.5 * grasp_width * ax,
                         m + 0.5 * grasp_width * ax])
    return pose, contacts


def _claw_pose_ring(params: ClawParams, rot: np.ndarray, center,
                    ring_radius: float) -> tuple[Pose, np.ndarray]:
    """Symmetric claw closure: all tips on a circle around the claw axis."""
    w, L = params.base_radius, params.finger_len
    s = (ring_radius - w) / L
    if abs(s) > math.sin(params.joint_limit):
        raise SchemaError(f"ring radius {ring_radius} not reachable")
    theta = math.asin(s)
    center = np.asarray(center, dtype=np.float64)
    t = center - rot @ np.array([0.0, 0.0, L * math.cos(theta)])
    pose = Pose(t=t, r6=matrix_to_rot6d(rot),
                theta=np.full(len(params.azimuths), theta))
    contacts = np.stack([
        center + rot @ (ring_radius * np.array([math.cos(a), math.sin(a), 0.0]))
        for a in params.azimuths])
    return pose, contacts


def _claw_pose_prism(params: ClawParams, rot: np.ndarray, t_z: float,
                     radius_fn) -> tuple[Pose, np.ndarray]:
    """Per-finger closure against a vertical prism/cylinder surface.

    rot must keep the claw axis vertical (z column = +-z) and the palm sits
    at height t_z. radius_fn maps a horizontal unit direction to the
    surface distance from the axis.
    """
    w, L = params.base_radius, params.finger_len
    axis_sign = rot[2, 2]
    if abs(abs(axis_sign) - 1.0) > 1e-9:
        raise SchemaError("claw axis must be vertical for prism closures")
    dirs, thetas = [], []
    for a in params.azimuths:
        d = rot @ np.array([math.cos(a), math.sin(a), 0.0])
        r_i = radius_fn(d[:2])
        s = (r_i - w) / L
        if abs(s) > math.sin(params.joint_limit):
            raise SchemaError(f"prism radius {r_i} not reachable")
        dirs.append((d, r_i))
        thetas.append(math.asin(s))
    axial = [L * math.cos(th) * axis_sign for th in thetas]
    t = np.array([0.0, 0.0, t_z])
    pose = Pose(t=t, r6=matrix_to_rot6d(rot), theta=np.array(thetas))
    contacts = np.stack([
        r_i * d + np.array([0.0, 0.0, t_z + axial[i]])
        for i, (d, r_i) in enumerate(dirs)])
    return pose, contacts


def _box_radius_fn(half):
    a, b, _ = half

    def radius(dir_xy) -> float:
        dx, dy = abs(dir_xy[0]), abs(dir_xy[1])
        r = math.inf
        if dx > 1e-12:
            r = min(r, a / dx)
        if dy > 1e-12:
            r = min(r, b / dy)
        return r

    return radius


def _rot_between_z(target) -> np.ndarray:
    return rotation_between(np.array([0.0, 0.0, 1.0]), target)


def _pincer_top_z(params: PincerParams, grasp_width: float,
                  top: float, clearance: float = PALM_CLEARANCE) -> float:
    """Contact height putting the palm `clearance` above the object top."""
    phi = math.asin((params.finger_sep - grasp_width) / (2 * params.finger_len))
    return top + clearance - params.finger_len * math.cos(phi)


def _pincer_grasps(params: PincerParams, kind: str, shape: dict) -> list:
    down = np.array([0.0, 0.0, -1.0])
    out = []
    if kind == "sphere":
        # the sphere radii are matched to the finger length, so any approach
        # direction leaves the palm a few millimeters off the surface
        r = shape["r"]
        for psi, tilt in ((0.0, 0.0), (45.0, 0.0), (90.0, 20.0), (135.0, -20.0)):
            ax = np.array([math.cos(math.radians(psi)),
                           math.sin(math.radians(psi)), 0.0])
            perp = np.cross(ax, down)
            az = (math.cos(math.radians(tilt)) * down
                  + math.sin(math.radians(tilt)) * perp)
            out.append(_pincer_pose(params, 2 * r, ax, az, np.zeros(3)))
    elif kind == "box":
        a, b, c = shape["half"]
        x_hat, y_hat = np.array([1.0, 0, 0]), np.array([0, 1.0, 0])
        zx = _pincer_top_z(params, 2 * a, c)
        zy = _pincer_top_z(params, 2 * b, c)
        out.append(_pincer_pose(params, 2 * a, x_hat, down, [0, 0, zx]))
        out.append(_pincer_pose(params, 2 * a, x_hat, down, [0, -0.3 * b, zx]))
        out.append(_pincer_pose(params, 2 * b, y_hat, down, [0, 0, zy]))
        out.append(_pincer_pose(params, 2 * b, y_hat, down, [0.3 * a, 0, zy]))
    elif kind == "cylinder":
        r, hh = shape["r"], shape["hh"]
        z0 = _pincer_top_z(params, 2 * r, hh)
        for psi in (0.0, 60.0, 120.0, 30.0):
            ax = np.array([math.cos(math.radians(psi)),
                           math.sin(math.radians(psi)), 0.0])
            out.append(_pincer_pose(params, 2 * r, ax, down, [0, 0, z0]))
    else:
        raise SchemaError(f"unknown object kind {kind}")
    return out


def _claw_grasps(params: ClawParams, kind: str, shape: dict) -> list:
    out = []
    flip = _rot_between_z(np.array([0.0, 0.0, -1.0]))
    if kind == "sphere":
        r = shape["r"]
        for tilt, psi, spin in ((0.0, 0.0, 0.0), (0.0, 0.0, 40.0),
                                (25.0, 0.0, 0.0), (25.0, 180.0, 20.0)):
            g, p = math.radians(tilt), math.radians(psi)
            axis = np.array([math.sin(g) * math.cos(p),
                             math.sin(g) * math.sin(p), -math.cos(g)])
            rot = _rot_between_z(axis) @ _rot_z(math.radians(spin))
            out.append(_claw_pose_ring(params, rot, np.zeros(3), r))
    elif kind in ("cylinder", "box"):
        if kind == "cylinder":
            half_height = shape["hh"]
            rad = lambda d: shape["r"]
        else:
            half_height = shape["half"][2]
            rad = _box_radius_fn(shape["half"])
        spins = (20.0, 50.0, 80.0, 110.0) if kind == "box" else (0.0, 40.0, 80.0, 25.0)
        for i, spin in enumerate(spins):
            flipped = i % 2 == 1
            base = flip if flipped else np.eye(3)
            # palm sits `clearance` above the top face (flipped) or below
            # the bottom face (fingers pointing up)
            t_z = (half_height + PALM_CLEARANCE) if flipped \
                else -(half_height + PALM_CLEARANCE)
            rot = base @ _rot_z(math.radians(spin))
            out.append(_claw_pose_prism(params, rot, t_z, rad))
    else:
        raise SchemaError(f"unknown object kind {kind}")
    return out


# ---------------------------------------------------------------------------
# generation, loading, filtering
# ---------------------------------------------------------------------------

def generate_toy_dataset(seed: int, out_dir,
                         s_o: int = DEFAULT_TOY_POINTS,
                         s_g: int = DEFAULT_TOY_POINTS,
                         object_ids=None,
                         contact_threshold: float = DEFAULT_THRESHOLD) -> DatasetManifest:
    """Write grippers, objects and validated grasp records under out_dir.

    Every record is checked twice: keypoint tips must reproduce the
    closed-form contacts through forward kinematics to 1e-9, and at least
    two keypoints must lie within the contact threshold of the exact
    surface.
    """
    try:
        os.makedirs(os.path.join(out_dir, "objects"), exist_ok=True)
        os.makedirs(os.path.join(out_dir, "grippers"), exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create {out_dir}: {exc}") from exc
    rng = Rng(seed)

    pincer_params, claw_params = PincerParams(), ClawParams()
    grippers = {
        "pincer": (build_pincer(pincer_params, s_g, seed=rng.derive(1).seed),
                   pincer_params, _pincer_grasps),
        "claw": (build_claw(claw_params, s_g, seed=rng.derive(2).seed),
                 claw_params, _claw_grasps),
    }
    ee_paths = {}
    for ee_id, (ee, _, _) in grippers.items():
        cloud_rel = f"grippers/{ee_id}_cloud.csv"
        chain_rel = f"grippers/{ee_id}.json"
        save_cloud_csv(ee.rest_cloud, os.path.join(out_dir, cloud_rel))
        save_chain(os.path.join(out_dir, chain_rel), ee.chain, ee.palm,
                   ee.keypoints, f"{ee_id}_cloud.csv")
        ee_paths[ee_id] = chain_rel

    chosen = [entry for entry in TOY_OBJECTS
              if object_ids is None or entry[0] in object_ids]
    if object_ids is not None and len(chosen) != len(set(object_ids)):
        raise SchemaError(f"unknown object ids in {object_ids}")
    object_paths = {}
    shapes = {}
    for i, (obj_id, kind, shape) in enumerate(chosen):
        cloud = sample_object(kind, shape, s_o, rng.derive(10 + i))
        rel = f"objects/{obj_id}.csv"
        save_cloud_csv(cloud, os.path.join(out_dir, rel))
        object_paths[obj_id] = rel
        shapes[obj_id] = (kind, shape)

    records = []
    for obj_id, (kind, shape) in shapes.items():
        for ee_id, (ee, params, grasp_fn) in grippers.items():
            n_tips = 2 if ee_id == "pincer" else 3
            for pose, contacts in grasp_fn(params, kind, shape):
                kp_world = keypoint_positions(ee, pose)
                fk_err = np.linalg.norm(kp_world[:n_tips] - contacts, axis=1).max()
                if fk_err > 1e-9:
                    raise NumericalError(
                        f"{ee_id}/{obj_id}: closure disagrees with FK ({fk_err:.2e})")
                surf = surface_distance(kind, shape, kp_world)
                if int((surf < contact_threshold).sum()) < 2:
                    raise NumericalError(
                        f"{ee_id}/{obj_id}: fewer than 2 keypoints in contact")
                records.append(GraspRecord(obj_id, ee_id, pose))

    object_order = list(object_paths)
    rng.shuffle(object_order)
    n = len(object_order)
    n_train = max(1, round(TRAIN_FRACTION * n))
    if n >= 2 and n_train >= n:
        n_train = n - 1
    split = {"train": sorted(object_order[:n_train]),
             "val": sorted(object_order[n_train:])}

    manifest = DatasetManifest(base_dir=str(out_dir), objects=object_paths,
                               end_effectors=ee_paths, records=records,
                               split=split, s_o=s_o, s_g=s_g, seed=seed)
    save_manifest(manifest)
    return manifest


def save_manifest(manifest: DatasetManifest) -> None:
    rec_rel = "records.jsonl"
    write_jsonl(os.path.join(manifest.base_dir, rec_rel),
                ({"object": r.object_id, "ee": r.ee_id,
                  "pose": pose_to_dict(r.pose)} for r in manifest.records))
    doc = {"objects": [{"id": k, "cloud": v} for k, v in manifest.objects.items()],
           "end_effectors": [{"id": k, "chain": v}
                             for k, v in manifest.end_effectors.items()],
           "records": rec_rel, "split": manifest.split,
           "s_o": manifest.s_o, "s_g": manifest.s_g, "seed": manifest.seed}
    write_json(os.path.join(manifest.base_dir, "manifest.json"), doc)


def load_manifest(path) -> DatasetManifest:
    path = str(path)
    if os.path.isdir(path):
        path = os.path.join(path, "manifest.json")
    if not os.path.exists(path):
        raise MissingFile(f"manifest not found: {path}")
    base = os.path.dirname(os.path.abspath(path))
    doc = read_json(path)
    with parsing(path):
        manifest = DatasetManifest(
            base_dir=base, objects={e["id"]: e["cloud"] for e in doc["objects"]},
            end_effectors={e["id"]: e["chain"] for e in doc["end_effectors"]},
            records=[], split={k: list(v) for k, v in doc["split"].items()},
            s_o=int(doc.get("s_o", DEFAULT_TOY_POINTS)),
            s_g=int(doc.get("s_g", DEFAULT_TOY_POINTS)),
            seed=int(doc.get("seed", 0)))
        rec_path = os.path.join(base, doc["records"])
    train = set(manifest.split.get("train", []))
    val = set(manifest.split.get("val", []))
    if train & val:
        raise SchemaError(f"{path}: train/val object sets overlap: {train & val}")
    if not os.path.exists(rec_path):
        raise MissingFile(f"records file not found: {rec_path}")

    def record(entry):
        if entry["object"] not in manifest.objects:
            raise ValueError(f"unknown object {entry['object']!r}")
        if entry["ee"] not in manifest.end_effectors:
            raise ValueError(f"unknown end-effector {entry['ee']!r}")
        return GraspRecord(entry["object"], entry["ee"], pose_from_dict(entry["pose"]))

    manifest.records = read_jsonl(rec_path, record)
    return manifest


def filter_by_ee(manifest: DatasetManifest, ee_ids) -> DatasetManifest:
    """Restrict records to the listed end-effectors; objects unchanged."""
    wanted = list(ee_ids)
    for ee_id in wanted:
        if ee_id not in manifest.end_effectors:
            raise UnknownEe(f"unknown end-effector {ee_id}")
    keep = set(wanted)
    return DatasetManifest(
        base_dir=manifest.base_dir, objects=dict(manifest.objects),
        end_effectors={k: v for k, v in manifest.end_effectors.items()
                       if k in keep},
        records=[r for r in manifest.records if r.ee_id in keep],
        split={k: list(v) for k, v in manifest.split.items()},
        s_o=manifest.s_o, s_g=manifest.s_g, seed=manifest.seed)


def load_object_clouds(manifest: DatasetManifest) -> dict[str, PointCloud]:
    out = {}
    for obj_id in manifest.objects:
        p = manifest.object_path(obj_id)
        if not os.path.exists(p):
            raise MissingFile(f"object cloud not found: {p}")
        out[obj_id] = load_cloud(p)
    return out


def load_ee_models(manifest: DatasetManifest,
                   knn_k: int = DEFAULT_KNN_K) -> dict[str, EndEffectorModel]:
    out = {}
    for ee_id in manifest.end_effectors:
        p = manifest.ee_path(ee_id)
        if not os.path.exists(p):
            raise MissingFile(f"chain file not found: {p}")
        out[ee_id] = load_ee_model(p, name=ee_id, knn_k=knn_k)
    return out


def load_records(manifest: DatasetManifest, split: str = "all",
                 m: int = DEFAULT_M, threshold: float = DEFAULT_THRESHOLD,
                 knn_k: int = DEFAULT_KNN_K,
                 squared_threshold: bool = False) -> list[TrainingSample]:
    """Build training samples: pose keypoints, contact maps, ground truth.

    Records whose gripper contact map is all zeros (no keypoint near the
    object) are skipped with a warning.
    """
    clouds = load_object_clouds(manifest)
    records = manifest.records_for_split(split)
    used = {r.object_id for r in records}
    graphs = {k: knn_graph(c, knn_k) for k, c in clouds.items() if k in used}
    ees = load_ee_models(manifest, knn_k)
    samples = []
    for r in records:
        ee = ees[r.ee_id]
        if r.pose.theta.size != ee.chain.dof:
            raise SchemaError(
                f"record {r.object_id}/{r.ee_id}: pose has {r.pose.theta.size} "
                f"joint values, chain expects {ee.chain.dof}")
        kp_world = keypoint_positions(ee, r.pose)
        maps = build_contact_maps(clouds[r.object_id], kp_world, m, threshold,
                                  squared_threshold)
        if int(maps.cg.sum()) == 0:
            log.warning("skipping record %s/%s: no keypoint within %.3f m",
                        r.object_id, r.ee_id, threshold)
            continue
        gt, _ = nearest_vertices(clouds[r.object_id].points, kp_world)
        samples.append(TrainingSample(
            object_id=r.object_id, ee_id=r.ee_id,
            object_graph=graphs[r.object_id], ee=ee, pose=r.pose, maps=maps,
            keypoint_world=kp_world, gt_contacts=gt))
    return samples
