"""Ground-truth supervision maps for grasp learning.

For a posed gripper: `prox` marks, per keypoint, the M object vertices
nearest that keypoint; `cg` flags keypoints within a distance threshold of
the object; `co = prox * cg` is the hand-specific object contact map the
losses are trained against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .artifacts import write_json
from .errors import SchemaError, ShapeMismatch, TooFewVertices
from .geometry import PointCloud, k_nearest, nearest_vertices
from .kinematics import N_KEYPOINTS

DEFAULT_M = 20
DEFAULT_THRESHOLD = 0.04    # meters; see note on the squared reading below


@dataclass(frozen=True)
class ContactMapSet:
    prox: np.ndarray        # (S_O, 6) binary
    cg: np.ndarray          # (6,) binary
    co: np.ndarray          # (S_O, 6) binary
    m: int
    threshold: float

    def __post_init__(self):
        prox = np.asarray(self.prox, dtype=np.int8)
        cg = np.asarray(self.cg, dtype=np.int8).reshape(N_KEYPOINTS)
        co = np.asarray(self.co, dtype=np.int8)
        if prox.shape != co.shape or prox.shape[1] != N_KEYPOINTS:
            raise ShapeMismatch("prox and co must both be (S_O, 6)")
        if not (prox.sum(axis=0) == self.m).all():
            raise SchemaError("every prox column must contain exactly m ones")
        if not np.array_equal(co, prox * cg[None, :]):
            raise SchemaError("co must equal prox masked by cg")
        for a in (prox, cg, co):
            a.flags.writeable = False
        object.__setattr__(self, "prox", prox)
        object.__setattr__(self, "cg", cg)
        object.__setattr__(self, "co", co)


def proximity_map(object_cloud: PointCloud, keypoint_world,
                  m: int = DEFAULT_M) -> np.ndarray:
    """(S_O, 6) binary map of the m object vertices nearest each keypoint.

    Distance ties are broken toward the lower vertex index, so each column
    has exactly m ones.
    """
    pts = object_cloud.points
    kw = np.asarray(keypoint_world, dtype=np.float64).reshape(-1, 3)
    s = pts.shape[0]
    if s <= m:
        raise TooFewVertices(f"need more than m={m} object vertices, got {s}")
    nearest, _ = k_nearest(pts, m, kw)
    prox = np.zeros((s, kw.shape[0]), dtype=np.int8)
    prox[nearest, np.arange(kw.shape[0])[:, None]] = 1
    return prox


def gripper_contact_map(object_cloud: PointCloud, keypoint_world,
                        threshold: float = DEFAULT_THRESHOLD,
                        squared: bool = False) -> np.ndarray:
    """(6,) binary flags: keypoint closer than `threshold` to the object.

    The comparison uses plain Euclidean distance by default; `squared=True`
    switches to comparing squared distance against the same threshold value
    (the alternative reading of the rule; 0.04 m is the physically sensible
    default interpretation).
    """
    if threshold <= 0:
        raise SchemaError("threshold must be positive")
    _, dist = nearest_vertices(object_cloud.points, keypoint_world)
    value = dist * dist if squared else dist
    return (value < threshold).astype(np.int8)


def object_contact_map(prox, cg) -> np.ndarray:
    """Elementwise product: column i of prox survives only where cg[i]=1."""
    prox = np.asarray(prox, dtype=np.int8)
    cg = np.asarray(cg, dtype=np.int8).reshape(-1)
    if prox.ndim != 2 or prox.shape[1] != cg.shape[0]:
        raise ShapeMismatch(
            f"prox {prox.shape} does not conform with cg {cg.shape}")
    return prox * cg[None, :]


def build_contact_maps(object_cloud: PointCloud, keypoint_world,
                       m: int = DEFAULT_M,
                       threshold: float = DEFAULT_THRESHOLD,
                       squared: bool = False) -> ContactMapSet:
    prox = proximity_map(object_cloud, keypoint_world, m)
    cg = gripper_contact_map(object_cloud, keypoint_world, threshold, squared)
    co = object_contact_map(prox, cg)
    return ContactMapSet(prox=prox, cg=cg, co=co, m=m, threshold=threshold)


def save_maps(maps: ContactMapSet, path) -> None:
    doc = {"m": int(maps.m), "threshold": float(maps.threshold),
           "cg": [int(v) for v in maps.cg],
           "co": [[int(v) for v in row] for row in maps.co]}
    write_json(path, doc)
