"""Kinematic chains, forward kinematics and pose parameterizations.

A gripper pose is (t, r6, theta): root translation, root rotation in the
continuous 6D representation (first two rotation-matrix columns), and one
value per non-fixed joint. Forward kinematics also takes the triple
(t, R, theta) with the root rotation as a matrix R, the form inverse
kinematics works on. Chains are plain trees loaded from JSON; see
load_chain for the schema.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .artifacts import finite_array, parsing, read_json, write_json
from .errors import (DegenerateInput, LimitViolation, NotARotation,
                     SchemaError)
from .geometry import (DEFAULT_KNN_K, GeometryGraph, PointCloud, knn_graph,
                       load_cloud, nearest_vertices)

PREGRASP_OFFSET = 0.005     # meters, applied along the object normal
HEURISTIC_STANDOFF = 0.02   # palm standoff of the initial IK guess, meters

N_KEYPOINTS = 6

_EYE3, _EYE4 = np.eye(3), np.eye(4)


# ---------------------------------------------------------------------------
# rotations
# ---------------------------------------------------------------------------

def rot6d_to_matrix(r6) -> np.ndarray:
    """Gram-Schmidt decode of the 6D rotation representation."""
    r6 = np.asarray(r6, dtype=np.float64).reshape(6)
    a1, a2 = r6[:3], r6[3:]
    n1 = _norm(a1)
    if n1 <= 1e-12:
        raise DegenerateInput("first 3-vector is (near) zero")
    c1 = a1 / n1
    residual = a2 - c1.dot(a2) * c1
    n2 = _norm(residual)
    if n2 <= 1e-12:
        raise DegenerateInput("second 3-vector is (near) parallel to the first")
    c2 = residual / n2
    return np.array(list(zip(c1.tolist(), c2.tolist(), _cross(c1, c2))))


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a vector, the same bits as np.linalg.norm."""
    return math.sqrt(v.dot(v))


def _cross(a: np.ndarray, b: np.ndarray) -> list:
    """a x b for 3-vectors, with np.cross's products and differences."""
    (x1, y1, z1), (x2, y2, z2) = a.tolist(), b.tolist()
    return [y1 * z2 - z1 * y2, z1 * x2 - x1 * z2, x1 * y2 - y1 * x2]


def matrix_to_rot6d(rot) -> np.ndarray:
    """First two columns of a rotation matrix, concatenated."""
    rot = np.asarray(rot, dtype=np.float64).reshape(3, 3)
    if np.abs(rot.T @ rot - _EYE3).max() > 1e-6:
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


def _rotations(w: np.ndarray) -> np.ndarray:
    """Rodrigues formula for each row of w (n, 3), axis * angle.

    Each matrix has the bits of np.eye(3) + sin(t) * k + (1 - cos(t)) * (k @ k)
    with k = [w / t]x, and np.vecdot takes each row's w.dot(w) as that dot
    product. Below t = 1e-12 the first-order expansion I + [w]x is exact to
    1e-24; coefficients 1 and 0 give it with its bits. One row (a rotation
    increment) takes floats and a 3 x 3 k, which needs fewer numpy calls
    than (n, 1, 1) coefficients and a stack of k.
    """
    rows = [(1.0, 0.0, 0.0, -z, y, z, 0.0, -x, -y, x, 0.0) if t < 1e-12 else
            (math.sin(t), 1 - math.cos(t),
             0.0, -z / t, y / t, z / t, 0.0, -x / t, -y / t, x / t, 0.0)
            for (x, y, z), t in zip(w.tolist(), map(math.sqrt, np.vecdot(w, w).tolist()))]
    if len(rows) == 1:
        (a, b, *k), = rows
        k = np.array(k).reshape(3, 3)
    else:
        m = np.array(rows).reshape(-1, 11)
        a, b, k = m[:, :1, None], m[:, 1:2, None], m[:, 2:].reshape(-1, 3, 3)
    return (_EYE3 + a * k + b * (k @ k)).reshape(-1, 3, 3)


def axis_angle_to_matrix(w) -> np.ndarray:
    """Rodrigues formula; w is axis * angle."""
    return _rotations(np.asarray(w, dtype=np.float64).reshape(1, 3))[0]


def rotation_between(a, b) -> np.ndarray:
    """Minimal rotation taking unit vector a onto unit vector b.

    The antiparallel case rotates 180 degrees about the smallest-index
    canonical axis that is not parallel to a (projected perpendicular).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    a = a / _norm(a)
    b = b / _norm(b)
    c = float(a.dot(b))
    axis = np.array(_cross(a, b))
    s = _norm(axis)
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
        # parents-before-children traversal order, one tree level at a time;
        # also detects cycles
        order, seen, widths = [], {self.root}, []
        pending = [l.name for l in self.links if l.parent is not None]
        while pending:
            level = [name for name in pending if self.link(name).parent in seen]
            if not level:
                raise SchemaError("link graph is not a tree")
            order, widths = order + level, widths + [len(level)]
            seen.update(level)
            pending = [name for name in pending if name not in seen]
        self._order = [self.root] + order
        self.actuated = [j for j in self.joints if j.type != "fixed"]
        # constant per link, in FK slots of traversal order: its origin
        # transform, and which actuated joints lie on its path from the root
        self._slot = {name: i for i, name in enumerate(self._order)}
        self._origins = np.array([_homogeneous(quat_to_matrix(l.origin_q), l.origin_t)
                                  for l in map(self.link, self._order)])
        self._identities = np.tile(_EYE4, (len(self._order), 1, 1))
        # each level: its run of slots, its parents' slots and its origins
        parent = np.array([self._slot[self.link(name).parent] for name in order])
        ends = np.cumsum([1] + widths).tolist()
        self._levels = [(a, b, parent[a - 1:b - 1], self._origins[a:b])
                        for a, b in zip(ends, ends[1:])]
        self._axes = np.array([j.axis for j in self.actuated]).reshape(-1, 3)
        self._revolute = np.array([j.type == "revolute" for j in self.actuated],
                                  dtype=bool)
        # FK's motion stack holds the root pose in slot 0, then each joint's
        # motion in its child's slot
        self._joint_slots = np.array([self._slot[j.child] for j in self.actuated],
                                     dtype=np.int64)
        self._turned = self._joint_slots[self._revolute]
        self._slid = self._joint_slots[~self._revolute]
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
    # r6 decoded, once
    _root: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, size in (("t", 3), ("r6", 6), ("theta", -1)):
            object.__setattr__(self, name, finite_array(
                getattr(self, name), f"pose {name}").reshape(size))
        rot = rot6d_to_matrix(self.r6)   # raises DegenerateInput if invalid
        if np.abs(rot.T @ rot - _EYE3).max() > 1e-9:
            raise NotARotation("decoded rotation fails orthonormality at 1e-9")
        object.__setattr__(self, "_root", rot)

    def root_matrix(self) -> np.ndarray:
        return self._root.copy()


def _homogeneous(rot: np.ndarray, t: np.ndarray) -> np.ndarray:
    m = np.eye(4)
    m[:3, :3] = rot
    m[:3, 3] = t
    return m


class LinkFrames(dict):
    """World 4x4 transform per link name; `stack` holds them in FK slot order."""

    def __init__(self, chain: KinematicChain, stack: np.ndarray):
        super().__init__(zip(chain._order, stack))
        self.stack = stack


def forward_kinematics(chain: KinematicChain, pose: Pose | tuple) -> LinkFrames:
    """World 4x4 transform per link, at a Pose or at arrays (t, R, theta)
    with the root rotation as a 3x3 matrix R.

    Composition per non-root link: T_parent @ origin(link) @ motion(joint),
    one tree level at a time. Joint values outside limits by more than 1e-9
    raise LimitViolation.
    """
    t, rot, theta = ((pose.t, pose.root_matrix(), pose.theta) if isinstance(pose, Pose)
                     else pose)
    if theta.size != chain.dof:
        raise SchemaError(
            f"theta has {theta.size} values, chain has {chain.dof} joints")
    for j, value in zip(chain.actuated, theta.tolist()):
        lo, hi = j.limits
        if value < lo - 1e-9 or value > hi + 1e-9:
            raise LimitViolation(
                f"joint {j.name}: value {value:.6g} outside [{lo:.6g}, {hi:.6g}]")
    # axis * value per joint: a rotation vector or a translation
    w = chain._axes * theta[:, None]
    motion = chain._identities.copy()
    motion[0, :3, :3] = rot
    motion[0, :3, 3] = t
    if chain._slid.size:
        motion[chain._slid, :3, 3] = w[~chain._revolute]
        w = w[chain._revolute]
    motion[chain._turned, :3, :3] = _rotations(w)
    frames = np.empty_like(motion)
    np.matmul(motion[0], chain._origins[0], out=frames[0])
    for a, b, parents, origins in chain._levels:
        np.matmul(frames.take(parents, axis=0) @ origins, motion[a:b], out=frames[a:b])
    return LinkFrames(chain, frames)


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
        links = [(f"keypoint {i}", kp.link) for i, kp in enumerate(self.keypoints)]
        for what, link in links + [("palm", self.palm.link)]:
            if link not in self.chain._slot:
                raise SchemaError(f"{what}: unknown link {link}")
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

    @functools.cached_property
    def _keypoint_frames(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """FK slot of each keypoint's link, the offsets as columns (6, 3, 1)
        and the (6, 1, dof) mask of the joints that move each keypoint, 1.0
        or 0.0."""
        return (np.array([self.chain._slot[kp.link] for kp in self.keypoints]),
                np.array([kp.offset for kp in self.keypoints]).reshape(-1, 3, 1),
                np.array([[self.chain._on_path[kp.link]] for kp in self.keypoints],
                         dtype=np.float64))

    @functools.cached_property
    def _rest_palm(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Joint values, palm normal and palm point at the rest pose."""
        rest = rest_pose(self.chain)
        m = forward_kinematics(self.chain, rest)[self.palm.link]
        return (rest.theta, m[:3, :3] @ self.palm.normal,
                m[:3, :3] @ self.palm.point + m[:3, 3])

    @property
    def keypoint_vertices(self) -> np.ndarray:
        return np.array([kp.vertex for kp in self.keypoints], dtype=np.int64)


def _keypoints(ee: EndEffectorModel, frames: np.ndarray) -> np.ndarray:
    """Keypoints (6, 3) from an FK stack; the (3, 3) @ (3, 1) products are
    the matrix-vector products of m[:3, :3] @ offset."""
    slots, offsets, _ = ee._keypoint_frames
    m = frames.take(slots, axis=0)      # frames[slots], with less overhead
    return (m[:, :3, :3] @ offsets)[:, :, 0] + m[:, :3, 3]


def keypoint_positions(ee: EndEffectorModel, pose: Pose | tuple) -> np.ndarray:
    """World coordinates of the 6 keypoints at the given pose, (6, 3)."""
    return _keypoints(ee, forward_kinematics(ee.chain, pose).stack)


# component k of a x b is a[k1] b[k2] - a[k2] b[k1], as np.cross computes
# it: k1 for k = 0, 1, 2 and then k2, and the same halves swapped
_CROSS_A, _CROSS_B = np.array([1, 2, 0, 2, 0, 1]), np.array([2, 0, 1, 1, 2, 0])


def keypoint_jacobian(ee: EndEffectorModel, pose: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Keypoints (6, 3) and their Jacobian (18, 6 + dof) at arrays
    pose = (t, R, theta).

    The columns are those of (t, delta, theta), where delta is a rotation
    increment about the root rotation R, exp([delta]x) R, taken at
    delta = 0. Row 3i + k is coordinate k of keypoint i, and both come from
    one forward-kinematics pass. With x a keypoint, the columns are (Lynch &
    Park, Modern Robotics, ch. 5):
    - t: the identity;
    - delta: -[x - t]x, each column e_k x (x - t);
    - a revolute joint: a x (x - o), a = R_child @ axis and o the origin of
      the joint's child frame (exact for non-unit axes too);
    - a prismatic joint: a;
    - a joint not on the path from the root to x's link: zero.
    """
    chain = ee.chain
    frames = forward_kinematics(chain, pose).stack
    x = _keypoints(ee, frames)
    child = frames.take(chain._joint_slots, axis=0)
    # per column from 3 on: an axis, and the point x turns about; delta's
    # columns are the unit axes about t, the joints' R_child @ axis about o
    axes = np.empty((3, 3 + chain.dof))                # [xyz, column]
    axes[:, :3] = _EYE3
    axes[:, 3:] = np.einsum("jkl,jl->jk", child[:, :3, :3], chain._axes).T
    pivots = np.empty((3, 3 + chain.dof))
    pivots[:, :3] = pose[0][:, None]
    pivots[:, 3:] = child[:, :3, 3].T
    arm = x[:, :, None] - pivots                        # [keypoint, xyz, column]
    # axis x arm, the cross products written out as np.cross computes them
    a, b = axes.take(_CROSS_A, axis=0), arm.take(_CROSS_B, axis=1)
    jac = np.empty((N_KEYPOINTS, 3, 6 + chain.dof))     # [keypoint, xyz, column]
    jac[:, :, :3] = _EYE3
    np.subtract(a[:3] * b[:, :3], a[3:] * b[:, 3:], out=jac[:, :, 3:])
    joints = jac[:, :, 6:]
    if chain._slid.size:    # a prismatic joint's column is its axis
        joints[:] = np.where(chain._revolute, joints, axes[:, 3:])
    joints *= ee._keypoint_frames[2]
    return x, jac.reshape(3 * N_KEYPOINTS, -1)


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
    # the sum and division of targets.mean(axis=0)
    (idx,), _ = nearest_vertices(object_cloud.points,
                                 np.add.reduce(targets, axis=0) / len(targets))
    vertex = object_cloud.points[idx]
    obj_normal = object_cloud.normals[idx]

    theta, palm_normal_rest, palm_point_rest = ee._rest_palm
    rot = rotation_between(palm_normal_rest, -obj_normal)
    t = vertex + HEURISTIC_STANDOFF * obj_normal - rot @ palm_point_rest
    return Pose(t=t, r6=matrix_to_rot6d(rot), theta=theta.copy())


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def save_chain(path, chain: KinematicChain, palm: Palm, keypoints,
               rest_cloud_path: str) -> None:
    write_json(path, {
        "links": [{"name": l.name, "parent": l.parent,
                   "origin": {"t": [float(v) for v in l.origin_t],
                              "q": [float(v) for v in l.origin_q]}}
                  for l in chain.links],
        "joints": [{"name": j.name, "type": j.type, "parent": j.parent,
                    "child": j.child, "axis": [float(v) for v in j.axis],
                    "limits": [float(j.limits[0]), float(j.limits[1])]}
                   for j in chain.joints],
        "palm": {"link": palm.link, "normal": [float(v) for v in palm.normal],
                 "point": [float(v) for v in palm.point]},
        "keypoints": [{"vertex": int(kp.vertex), "link": kp.link,
                       "offset": [float(v) for v in kp.offset]}
                      for kp in keypoints],
        "rest_cloud": rest_cloud_path,
    })


def load_chain(path) -> dict:
    """Parse a chain JSON file; returns the raw document plus built pieces."""
    doc = read_json(path)
    with parsing(path):
        links = [Link(name=l["name"], parent=l["parent"],
                      origin_t=finite_array(l["origin"]["t"], f"link {l['name']} origin"),
                      origin_q=finite_array(l["origin"]["q"], f"link {l['name']} origin"))
                 for l in doc["links"]]
        joints = [Joint(name=j["name"], type=j["type"], parent=j["parent"],
                        child=j["child"],
                        axis=finite_array(j["axis"], f"joint {j['name']} axis"),
                        limits=(float(j["limits"][0]), float(j["limits"][1])))
                  for j in doc["joints"]]
        try:
            doc["_chain"] = KinematicChain(links, joints)   # checks the tree
        except DegenerateInput as exc:      # a zero origin quaternion is bad input
            raise SchemaError(str(exc)) from exc
    return doc


def load_ee_model(path, name: str | None = None,
                  knn_k: int = DEFAULT_KNN_K) -> EndEffectorModel:
    """Load chain + rest cloud + keypoints + palm into a full model."""
    doc = load_chain(path)
    with parsing(path):
        cloud_path = os.path.join(os.path.dirname(os.path.abspath(str(path))),
                                  doc["rest_cloud"])
        # reshape raises ValueError, and so exit 2, on a vector of another length
        palm = Palm(link=doc["palm"]["link"],
                    normal=finite_array(doc["palm"]["normal"], "palm normal").reshape(3),
                    point=finite_array(doc["palm"]["point"], "palm point").reshape(3))
        keypoints = tuple(
            Keypoint(vertex=int(kp["vertex"]), link=kp["link"],
                     offset=finite_array(kp["offset"],
                                         f"keypoint {i} offset").reshape(3))
            for i, kp in enumerate(doc["keypoints"]))
    rest_cloud = load_cloud(cloud_path)
    try:    # runs forward kinematics, so outside `parsing`
        return EndEffectorModel(
            name=name or os.path.splitext(os.path.basename(str(path)))[0],
            chain=doc["_chain"], rest_cloud=rest_cloud,
            keypoints=keypoints, palm=palm, knn_k=knn_k)
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def pose_to_dict(pose: Pose) -> dict:
    return {"t": [float(v) for v in pose.t],
            "r6": [float(v) for v in pose.r6],
            "theta": [float(v) for v in pose.theta]}


def pose_from_dict(doc: dict) -> Pose:
    try:
        return Pose(t=np.array(doc["t"], dtype=np.float64),
                    r6=np.array(doc["r6"], dtype=np.float64),
                    theta=np.array(doc["theta"], dtype=np.float64))
    except (DegenerateInput, NotARotation) as exc:     # bad data in a file
        raise SchemaError(f"pose r6: {exc}") from exc
