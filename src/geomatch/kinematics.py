"""Kinematic chains, forward kinematics and pose parameterizations.

A gripper pose is (t, r6, theta): root translation, root rotation in the
continuous 6D representation (first two rotation-matrix columns), and one
value per non-fixed joint. Inverse kinematics works on the pose vector
q = (t, w, theta) instead, with the root rotation as an axis-angle w;
forward kinematics accepts either form. Chains are plain trees loaded from
JSON; see load_chain for the schema.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .artifacts import parsing, read_json
from .errors import (DegenerateInput, LimitViolation, NotARotation,
                     SchemaError)
from .geometry import (DEFAULT_KNN_K, GeometryGraph, PointCloud, knn_graph,
                       load_cloud, nearest_vertices)

PREGRASP_OFFSET = 0.005     # meters, applied along the object normal
HEURISTIC_STANDOFF = 0.02   # palm standoff of the initial IK guess, meters

N_KEYPOINTS = 6


# ---------------------------------------------------------------------------
# rotations
# ---------------------------------------------------------------------------

def rot6d_to_matrix(r6) -> np.ndarray:
    """Gram-Schmidt decode of the 6D rotation representation."""
    r6 = np.asarray(r6, dtype=np.float64).reshape(6)
    a1, a2 = r6[:3], r6[3:]
    n1 = np.linalg.norm(a1)
    if n1 <= 1e-12:
        raise DegenerateInput("first 3-vector is (near) zero")
    c1 = a1 / n1
    residual = a2 - np.dot(c1, a2) * c1
    n2 = np.linalg.norm(residual)
    if n2 <= 1e-12:
        raise DegenerateInput("second 3-vector is (near) parallel to the first")
    c2 = residual / n2
    c3 = np.cross(c1, c2)
    return np.stack([c1, c2, c3], axis=1)


def matrix_to_rot6d(rot) -> np.ndarray:
    """First two columns of a rotation matrix, concatenated."""
    rot = np.asarray(rot, dtype=np.float64).reshape(3, 3)
    if np.abs(rot.T @ rot - np.eye(3)).max() > 1e-6:
        raise NotARotation("matrix is not orthonormal within 1e-6")
    return np.concatenate([rot[:, 0], rot[:, 1]])


IDENTITY_ROT6D = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0])


def quat_to_matrix(q) -> np.ndarray:
    """Unit quaternion (w, x, y, z) to rotation matrix."""
    w, x, y, z = np.asarray(q, dtype=np.float64).reshape(4)
    n = math.sqrt(w * w + x * x + y * y + z * z)
    if n <= 1e-12:
        raise DegenerateInput("zero quaternion")
    w, x, y, z = w / n, x / n, y / n, z / n
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def axis_angle_to_matrix(w) -> np.ndarray:
    """Rodrigues formula; w is axis * angle."""
    w = np.asarray(w, dtype=np.float64).reshape(3)
    theta = np.linalg.norm(w)
    if theta < 1e-12:
        k = np.array([[0, -w[2], w[1]], [w[2], 0, -w[0]], [-w[1], w[0], 0]])
        return np.eye(3) + k  # first-order expansion is exact to 1e-24 here
    axis = w / theta
    k = np.array([[0, -axis[2], axis[1]],
                  [axis[2], 0, -axis[0]],
                  [-axis[1], axis[0], 0]])
    return np.eye(3) + math.sin(theta) * k + (1 - math.cos(theta)) * (k @ k)


def matrix_to_axis_angle(rot) -> np.ndarray:
    """Inverse Rodrigues via quaternion extraction; result norm <= pi."""
    rot = np.asarray(rot, dtype=np.float64).reshape(3, 3)
    t = np.trace(rot)
    if t > 0:
        s = math.sqrt(t + 1.0) * 2
        w = 0.25 * s
        x = (rot[2, 1] - rot[1, 2]) / s
        y = (rot[0, 2] - rot[2, 0]) / s
        z = (rot[1, 0] - rot[0, 1]) / s
    elif rot[0, 0] >= rot[1, 1] and rot[0, 0] >= rot[2, 2]:
        s = math.sqrt(1.0 + rot[0, 0] - rot[1, 1] - rot[2, 2]) * 2
        w = (rot[2, 1] - rot[1, 2]) / s
        x = 0.25 * s
        y = (rot[0, 1] + rot[1, 0]) / s
        z = (rot[0, 2] + rot[2, 0]) / s
    elif rot[1, 1] >= rot[2, 2]:
        s = math.sqrt(1.0 + rot[1, 1] - rot[0, 0] - rot[2, 2]) * 2
        w = (rot[0, 2] - rot[2, 0]) / s
        x = (rot[0, 1] + rot[1, 0]) / s
        y = 0.25 * s
        z = (rot[1, 2] + rot[2, 1]) / s
    else:
        s = math.sqrt(1.0 + rot[2, 2] - rot[0, 0] - rot[1, 1]) * 2
        w = (rot[1, 0] - rot[0, 1]) / s
        x = (rot[0, 2] + rot[2, 0]) / s
        y = (rot[1, 2] + rot[2, 1]) / s
        z = 0.25 * s
    if w < 0:
        w, x, y, z = -w, -x, -y, -z
    v = np.array([x, y, z])
    vn = np.linalg.norm(v)
    if vn < 1e-12:
        return np.zeros(3)
    angle = 2.0 * math.atan2(vn, w)
    return (angle / vn) * v


def rotation_between(a, b) -> np.ndarray:
    """Minimal rotation taking unit vector a onto unit vector b.

    The antiparallel case rotates 180 degrees about the smallest-index
    canonical axis that is not parallel to a (projected perpendicular).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    a = a / np.linalg.norm(a)
    b = b / np.linalg.norm(b)
    c = float(np.dot(a, b))
    axis = np.cross(a, b)
    s = np.linalg.norm(axis)
    if c > 1.0 - 1e-12 and s < 1e-12:
        return np.eye(3)
    if c < -1.0 + 1e-9:
        for i in range(3):
            e = np.zeros(3)
            e[i] = 1.0
            perp = e - np.dot(e, a) * a
            if np.linalg.norm(perp) > 1e-6:
                perp /= np.linalg.norm(perp)
                return axis_angle_to_matrix(math.pi * perp)
        raise DegenerateInput("no perpendicular axis found")  # unreachable
    angle = math.atan2(s, c)
    return axis_angle_to_matrix(angle * axis / s)


# ---------------------------------------------------------------------------
# chains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Link:
    name: str
    parent: str | None
    origin_t: np.ndarray
    origin_q: np.ndarray        # (w, x, y, z)


@dataclass(frozen=True)
class Joint:
    name: str
    type: str                   # revolute | prismatic | fixed
    parent: str
    child: str
    axis: np.ndarray
    limits: tuple[float, float]


class KinematicChain:
    """Tree of links; every non-root link is driven by exactly one joint."""

    def __init__(self, links: list[Link], joints: list[Joint]):
        self.links = list(links)
        self.joints = list(joints)
        self._index = {l.name: i for i, l in enumerate(self.links)}
        if len(self._index) != len(self.links):
            raise SchemaError("duplicate link names")
        roots = [l for l in self.links if l.parent is None]
        if len(roots) != 1:
            raise SchemaError(f"chain must have exactly one root, got {len(roots)}")
        self.root = roots[0].name
        self._joint_by_child = {}
        for j in self.joints:
            if j.parent not in self._index or j.child not in self._index:
                raise SchemaError(f"joint {j.name} references unknown link")
            if j.child in self._joint_by_child:
                raise SchemaError(f"link {j.child} driven by multiple joints")
            if j.type not in ("revolute", "prismatic", "fixed"):
                raise SchemaError(f"joint {j.name}: unknown type {j.type}")
            if j.type != "fixed":
                lo, hi = j.limits
                if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                    raise SchemaError(f"joint {j.name}: limits must be finite, lo < hi")
            self._joint_by_child[j.child] = j
        for l in self.links:
            if l.parent is None:
                continue
            if l.parent not in self._index:
                raise SchemaError(f"link {l.name}: unknown parent {l.parent}")
            j = self._joint_by_child.get(l.name)
            if j is None:
                raise SchemaError(f"link {l.name} has no driving joint")
            if j.parent != l.parent:
                raise SchemaError(f"joint {j.name} disagrees with link tree")
        # parents-before-children traversal order, also detects cycles
        order, seen = [], {self.root}
        pending = [l.name for l in self.links if l.parent is not None]
        while pending:
            progressed = False
            rest = []
            for name in pending:
                if self.links[self._index[name]].parent in seen:
                    order.append(name)
                    seen.add(name)
                    progressed = True
                else:
                    rest.append(name)
            if not progressed:
                raise SchemaError("link graph is not a tree")
            pending = rest
        self._order = [self.root] + order
        self.actuated = [j for j in self.joints if j.type != "fixed"]
        # constant per link: its origin transform, and which actuated joints
        # lie on its path from the root
        self._origins = {l.name: _homogeneous(quat_to_matrix(l.origin_q), l.origin_t)
                         for l in self.links}
        self._axes = np.array([j.axis for j in self.actuated]).reshape(-1, 3)
        self._revolute = np.array([j.type == "revolute" for j in self.actuated],
                                  dtype=bool)
        column = {j.child: i for i, j in enumerate(self.actuated)}
        self._on_path = {self.root: np.zeros(self.dof, dtype=bool)}
        for name in order:
            self._on_path[name] = self._on_path[self.link(name).parent].copy()
            if name in column:
                self._on_path[name][column[name]] = True

    @property
    def dof(self) -> int:
        return len(self.actuated)

    def joint_limits(self) -> tuple[np.ndarray, np.ndarray]:
        lo = np.array([j.limits[0] for j in self.actuated])
        hi = np.array([j.limits[1] for j in self.actuated])
        return lo, hi

    def link(self, name: str) -> Link:
        return self.links[self._index[name]]


@dataclass(frozen=True)
class Pose:
    """Root translation, root rotation (6D), joint values."""

    t: np.ndarray
    r6: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "t", np.asarray(self.t, dtype=np.float64).reshape(3))
        object.__setattr__(self, "r6", np.asarray(self.r6, dtype=np.float64).reshape(6))
        object.__setattr__(self, "theta",
                           np.asarray(self.theta, dtype=np.float64).reshape(-1))
        rot = rot6d_to_matrix(self.r6)   # raises DegenerateInput if invalid
        if np.abs(rot.T @ rot - np.eye(3)).max() > 1e-9:
            raise NotARotation("decoded rotation fails orthonormality at 1e-9")

    def root_matrix(self) -> np.ndarray:
        return rot6d_to_matrix(self.r6)


def _homogeneous(rot: np.ndarray, t: np.ndarray) -> np.ndarray:
    m = np.eye(4)
    m[:3, :3] = rot
    m[:3, 3] = t
    return m


def _joint_motion(joint: Joint, value: float) -> np.ndarray:
    if joint.type == "revolute":
        return _homogeneous(axis_angle_to_matrix(joint.axis * value), np.zeros(3))
    if joint.type == "prismatic":
        return _homogeneous(np.eye(3), joint.axis * value)
    return np.eye(4)


def forward_kinematics(chain: KinematicChain,
                       pose: Pose | np.ndarray) -> dict[str, np.ndarray]:
    """World 4x4 transform per link, at a Pose or a pose vector (t, w, theta).

    Composition per non-root link: T_parent @ origin(link) @ motion(joint).
    Joint values outside limits by more than 1e-9 raise LimitViolation.
    """
    if isinstance(pose, Pose):
        rot, t, theta = pose.root_matrix(), pose.t, pose.theta
    else:
        q = np.asarray(pose, dtype=np.float64).reshape(-1)
        rot, t, theta = axis_angle_to_matrix(q[3:6]), q[:3], q[6:]
    if theta.size != chain.dof:
        raise SchemaError(
            f"theta has {theta.size} values, chain has {chain.dof} joints")
    values = {}
    for j, value in zip(chain.actuated, theta):
        lo, hi = j.limits
        if value < lo - 1e-9 or value > hi + 1e-9:
            raise LimitViolation(
                f"joint {j.name}: value {value:.6g} outside [{lo:.6g}, {hi:.6g}]")
        values[j.name] = float(value)
    transforms = {chain.root: _homogeneous(rot, t) @ chain._origins[chain.root]}
    for name in chain._order[1:]:
        joint = chain._joint_by_child[name]
        motion = _joint_motion(joint, values.get(joint.name, 0.0))
        transforms[name] = (transforms[chain.link(name).parent]
                            @ chain._origins[name] @ motion)
    return transforms


def rest_pose(chain: KinematicChain) -> Pose:
    """Mid-range joints, zero translation, identity rotation."""
    lo, hi = chain.joint_limits()
    return Pose(t=np.zeros(3), r6=IDENTITY_ROT6D.copy(), theta=(lo + hi) / 2.0)


# ---------------------------------------------------------------------------
# end-effector model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Keypoint:
    vertex: int                 # index into the rest cloud
    link: str
    offset: np.ndarray          # position in the link frame


@dataclass(frozen=True)
class Palm:
    link: str
    normal: np.ndarray          # unit, link frame
    point: np.ndarray           # link frame


@dataclass(frozen=True)
class EndEffectorModel:
    name: str
    chain: KinematicChain
    rest_cloud: PointCloud
    keypoints: tuple[Keypoint, ...]
    palm: Palm
    knn_k: int = DEFAULT_KNN_K          # neighbours per vertex of rest_graph

    def __post_init__(self):
        if len(self.keypoints) != N_KEYPOINTS:
            raise SchemaError(f"expected {N_KEYPOINTS} keypoints")
        fk = forward_kinematics(self.chain, rest_pose(self.chain))
        for i, kp in enumerate(self.keypoints):
            if not 0 <= kp.vertex < len(self.rest_cloud):
                raise SchemaError(f"keypoint {i}: vertex index out of range")
            world = fk[kp.link][:3, :3] @ kp.offset + fk[kp.link][:3, 3]
            ref = self.rest_cloud.points[kp.vertex]
            if np.linalg.norm(world - ref) > 1e-9:
                raise SchemaError(
                    f"keypoint {i}: offset does not reproduce rest-cloud vertex "
                    f"(error {np.linalg.norm(world - ref):.3e})")

    @functools.cached_property
    def rest_graph(self) -> GeometryGraph:
        """k-NN graph of the rest cloud, built on first read: only the
        encoders (train, infer) read it."""
        return knn_graph(self.rest_cloud, self.knn_k)

    @property
    def keypoint_vertices(self) -> np.ndarray:
        return np.array([kp.vertex for kp in self.keypoints], dtype=np.int64)


def _keypoints(ee: EndEffectorModel, fk: dict[str, np.ndarray]) -> np.ndarray:
    out = np.empty((N_KEYPOINTS, 3))
    for i, kp in enumerate(ee.keypoints):
        m = fk[kp.link]
        out[i] = m[:3, :3] @ kp.offset + m[:3, 3]
    return out


def keypoint_positions(ee: EndEffectorModel, pose: Pose | np.ndarray) -> np.ndarray:
    """World coordinates of the 6 keypoints at the given pose, (6, 3)."""
    return _keypoints(ee, forward_kinematics(ee.chain, pose))


def _left_jacobian(w: np.ndarray) -> np.ndarray:
    """Left Jacobian of SO(3) at w: exp([w + d]x) = exp([J_l(w) d]x) exp([w]x)."""
    theta = float(np.linalg.norm(w))
    k = np.array([[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]], [-w[1], w[0], 0.0]])
    if theta < 1e-2:    # series; the closed forms lose digits to cancellation
        t2 = theta * theta
        a = 0.5 - t2 / 24.0 + t2 * t2 / 720.0
        b = 1.0 / 6.0 - t2 / 120.0 + t2 * t2 / 5040.0
    else:
        a = (1.0 - math.cos(theta)) / (theta * theta)
        b = (theta - math.sin(theta)) / theta ** 3
    return np.eye(3) + a * k + b * (k @ k)


def keypoint_jacobian(ee: EndEffectorModel, q) -> tuple[np.ndarray, np.ndarray]:
    """Keypoints (6, 3) and their Jacobian (18, 6 + dof) at the pose vector q.

    q = (t, w, theta); row 3i + k of the Jacobian is coordinate k of keypoint
    i, and both come from one forward-kinematics pass. With x a keypoint, the
    columns are (Lynch & Park, Modern Robotics, ch. 5):
    - t: the identity;
    - w: -[x - t]x J_l(w), which equals -R [p]x J_r(w) with p = R^T (x - t);
    - a revolute joint: a x (x - o), a = R_child @ axis and o the origin of
      the joint's child frame (exact for non-unit axes too);
    - a prismatic joint: a;
    - a joint not on the path from the root to x's link: zero.
    """
    q = np.asarray(q, dtype=np.float64).reshape(-1)
    chain = ee.chain
    fk = forward_kinematics(chain, q)
    x = _keypoints(ee, fk)
    cols = np.empty((N_KEYPOINTS, 6 + chain.dof, 3))    # [keypoint, column, xyz]
    cols[:, :3] = np.eye(3)
    cols[:, 3:6] = np.cross(_left_jacobian(q[3:6]).T[None], (x - q[:3])[:, None])
    child = np.array([fk[j.child] for j in chain.actuated]).reshape(-1, 4, 4)
    axes = np.einsum("jkl,jl->jk", child[:, :3, :3], chain._axes)
    swept = np.cross(axes[None], x[:, None] - child[None, :, :3, 3])
    moving = np.where(chain._revolute[None, :, None], swept, axes[None])
    on_path = np.array([chain._on_path[kp.link] for kp in ee.keypoints])
    cols[:, 6:] = moving * on_path[:, :, None]
    return x, cols.transpose(0, 2, 1).reshape(3 * N_KEYPOINTS, -1)


def pregrasp_targets(contacts, object_cloud: PointCloud,
                     offset: float = PREGRASP_OFFSET) -> np.ndarray:
    """Move each contact `offset` meters outward along its vertex normal."""
    contacts = np.asarray(contacts, dtype=np.float64).reshape(-1, 3)
    if object_cloud.normals is None:
        raise SchemaError("object cloud lacks normals")
    idx, _ = nearest_vertices(object_cloud.points, contacts)
    return contacts + offset * object_cloud.normals[idx]


def heuristic_init_pose(ee: EndEffectorModel, object_cloud: PointCloud,
                        targets) -> Pose:
    """Initial IK guess: palm faces the object vertex nearest the targets.

    Non-root joints stay at rest; the root rotation maps the rest-pose palm
    normal onto the negated object normal at that vertex, and the root
    translation puts the palm point `HEURISTIC_STANDOFF` meters outside the
    surface.
    """
    if object_cloud.normals is None:
        raise SchemaError("object cloud lacks normals")
    targets = np.asarray(targets, dtype=np.float64).reshape(-1, 3)
    (idx,), _ = nearest_vertices(object_cloud.points, targets.mean(axis=0))
    vertex = object_cloud.points[idx]
    obj_normal = object_cloud.normals[idx]

    rest = rest_pose(ee.chain)
    fk = forward_kinematics(ee.chain, rest)
    palm_m = fk[ee.palm.link]
    palm_normal_rest = palm_m[:3, :3] @ ee.palm.normal
    palm_point_rest = palm_m[:3, :3] @ ee.palm.point + palm_m[:3, 3]

    rot = rotation_between(palm_normal_rest, -obj_normal)
    t = vertex + HEURISTIC_STANDOFF * obj_normal - rot @ palm_point_rest
    return Pose(t=t, r6=matrix_to_rot6d(rot), theta=rest.theta.copy())


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def chain_to_dict(chain: KinematicChain, palm: Palm | None = None,
                  keypoints=None, rest_cloud_path: str | None = None) -> dict:
    doc = {
        "links": [{"name": l.name, "parent": l.parent,
                   "origin": {"t": [float(v) for v in l.origin_t],
                              "q": [float(v) for v in l.origin_q]}}
                  for l in chain.links],
        "joints": [{"name": j.name, "type": j.type, "parent": j.parent,
                    "child": j.child, "axis": [float(v) for v in j.axis],
                    "limits": [float(j.limits[0]), float(j.limits[1])]}
                   for j in chain.joints],
    }
    if palm is not None:
        doc["palm"] = {"link": palm.link,
                       "normal": [float(v) for v in palm.normal],
                       "point": [float(v) for v in palm.point]}
    if keypoints is not None:
        doc["keypoints"] = [{"vertex": int(kp.vertex), "link": kp.link,
                             "offset": [float(v) for v in kp.offset]}
                            for kp in keypoints]
    if rest_cloud_path is not None:
        doc["rest_cloud"] = rest_cloud_path
    return doc


def save_chain(path, chain: KinematicChain, palm: Palm, keypoints,
               rest_cloud_path: str) -> None:
    with open(path, "w") as fh:
        json.dump(chain_to_dict(chain, palm, keypoints, rest_cloud_path), fh, indent=1)


def load_chain(path) -> dict:
    """Parse a chain JSON file; returns the raw document plus built pieces."""
    doc = read_json(path)
    with parsing(path):
        links = [Link(name=l["name"], parent=l["parent"],
                      origin_t=np.array(l["origin"]["t"], dtype=np.float64),
                      origin_q=np.array(l["origin"]["q"], dtype=np.float64))
                 for l in doc["links"]]
        joints = [Joint(name=j["name"], type=j["type"], parent=j["parent"],
                        child=j["child"],
                        axis=np.array(j["axis"], dtype=np.float64),
                        limits=(float(j["limits"][0]), float(j["limits"][1])))
                  for j in doc["joints"]]
    doc["_chain"] = KinematicChain(links, joints)
    return doc


def load_ee_model(path, name: str | None = None,
                  knn_k: int = DEFAULT_KNN_K) -> EndEffectorModel:
    """Load chain + rest cloud + keypoints + palm into a full model."""
    doc = load_chain(path)
    with parsing(path):
        cloud_path = os.path.join(os.path.dirname(os.path.abspath(str(path))),
                                  doc["rest_cloud"])
        palm = Palm(link=doc["palm"]["link"],
                    normal=np.array(doc["palm"]["normal"], dtype=np.float64),
                    point=np.array(doc["palm"]["point"], dtype=np.float64))
        keypoints = tuple(
            Keypoint(vertex=int(kp["vertex"]), link=kp["link"],
                     offset=np.array(kp["offset"], dtype=np.float64))
            for kp in doc["keypoints"])
    rest_cloud = load_cloud(cloud_path)
    return EndEffectorModel(
        name=name or os.path.splitext(os.path.basename(str(path)))[0],
        chain=doc["_chain"], rest_cloud=rest_cloud,
        keypoints=keypoints, palm=palm, knn_k=knn_k)


def pose_to_dict(pose: Pose) -> dict:
    return {"t": [float(v) for v in pose.t],
            "r6": [float(v) for v in pose.r6],
            "theta": [float(v) for v in pose.theta]}


def pose_from_dict(doc: dict) -> Pose:
    return Pose(t=np.array(doc["t"], dtype=np.float64),
                r6=np.array(doc["r6"], dtype=np.float64),
                theta=np.array(doc["theta"], dtype=np.float64))
