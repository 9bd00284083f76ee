"""Point clouds, triangle meshes and k-NN geometry graphs.

Objects and end-effectors share one representation: a point cloud whose
points become graph vertices, with edges to the k nearest neighbours and a
symmetrically normalized adjacency for graph convolutions. All coordinates
are metric meters.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field

import numpy as np

from .artifacts import parsing
from .errors import EmptyMesh, FullyCropped, SchemaError, TooFewPoints
from .rng import Rng
from .sparse import SparseCOO

log = logging.getLogger(__name__)

DEFAULT_KNN_K = 8           # neighbours per vertex in the geometry graph
DEFAULT_NORMAL_NEIGHBORS = 8


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class PointCloud:
    """S points in a named frame, optionally with unit normals."""

    points: np.ndarray
    normals: np.ndarray | None = None
    frame: str = "world"

    def __post_init__(self):
        pts = _freeze(np.atleast_2d(self.points))
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise SchemaError(f"points must be (S, 3), got {pts.shape}")
        if not np.isfinite(pts).all():
            raise SchemaError("point coordinates must be finite")
        object.__setattr__(self, "points", pts)
        if self.normals is not None:
            nrm = _freeze(np.atleast_2d(self.normals))
            if nrm.shape != pts.shape:
                raise SchemaError("normals must match point count")
            lengths = np.linalg.norm(nrm, axis=1)
            if np.abs(lengths - 1.0).max() > 1e-6:
                raise SchemaError("normals must have unit length (tol 1e-6)")
            object.__setattr__(self, "normals", nrm)

    def __len__(self) -> int:
        return self.points.shape[0]

    def centroid(self) -> np.ndarray:
        return self.points.mean(axis=0)


@dataclass(frozen=True)
class GeometryGraph:
    """Point cloud plus directed k-NN edges and (once built) A_hat."""

    cloud: PointCloud
    edges: np.ndarray             # (E, 2) int, src -> dst
    knn_k: int
    normalized_adjacency: SparseCOO | None = None

    def __post_init__(self):
        e = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        s = len(self.cloud)
        if e.size and (e.min() < 0 or e.max() >= s):
            raise SchemaError("edge index out of range")
        e = np.ascontiguousarray(e)
        e.flags.writeable = False
        object.__setattr__(self, "edges", e)

    @property
    def size(self) -> int:
        return len(self.cloud)


@dataclass(frozen=True)
class TriangleMesh:
    vertices: np.ndarray          # (V, 3)
    triangles: np.ndarray         # (T, 3) int

    def __post_init__(self):
        v = _freeze(np.atleast_2d(self.vertices))
        t = np.asarray(self.triangles, dtype=np.int64).reshape(-1, 3)
        if t.size and (t.min() < 0 or t.max() >= v.shape[0]):
            raise SchemaError("triangle index out of range")
        t = np.ascontiguousarray(t)
        t.flags.writeable = False
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "triangles", t)


def sample_surface(mesh: TriangleMesh, count: int, seed: int) -> PointCloud:
    """Area-weighted surface sampling from one `randoms` draw, 3 per point
    (triangle, then two barycentric); normals are the triangle normals."""
    if count < 1:
        raise SchemaError("count must be >= 1")
    a, b, c = (mesh.vertices[mesh.triangles[:, j]] for j in range(3))
    e1, e2 = b - a, c - a
    cross = np.cross(e1, e2)
    areas = 0.5 * np.linalg.norm(cross, axis=1)
    total = areas.sum()
    if total <= 0.0:            # also when there is no triangle
        raise EmptyMesh("mesh has no non-degenerate triangle")
    cdf = np.cumsum(areas) / total
    draws = Rng(seed).randoms(3 * count).reshape(count, 3)
    tri = np.minimum(np.searchsorted(cdf, draws[:, 0], side="right"), len(cdf) - 1)
    u, v = draws[:, 1:2], draws[:, 2:]
    fold = u + v > 1.0          # fold back into the triangle
    u, v = np.where(fold, 1.0 - u, u), np.where(fold, 1.0 - v, v)
    pts = a[tri] + u * e1[tri] + v * e2[tri]
    n = cross[tri]
    # vecdot rounds like the 1-D norm's dot; norm(axis=1) does not
    return PointCloud(pts, n / np.sqrt(np.vecdot(n, n))[:, None])


def nearest_vertices(points, queries) -> tuple[np.ndarray, np.ndarray]:
    """Index of, and Euclidean distance to, the point nearest each query.

    Returns two (Q,) arrays; distance ties go to the lower point index.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    q = np.asarray(queries, dtype=np.float64).reshape(-1, 3)
    d = np.linalg.norm(pts[None, :, :] - q[:, None, :], axis=2)
    idx = np.argmin(d, axis=1)
    return idx, d[np.arange(q.shape[0]), idx]


def _knn_indices(points: np.ndarray, k: int) -> np.ndarray:
    """k nearest neighbours per point, ties broken by lower index."""
    s = points.shape[0]
    d2 = np.zeros((s, s))
    for axis in range(3):       # same sums as over an (S, S, 3) difference
        diff = points[:, None, axis] - points[None, :, axis]
        diff *= diff
        d2 += diff
    np.fill_diagonal(d2, np.inf)
    near = np.argpartition(d2, k - 1, axis=1)[:, :k]
    dist = np.take_along_axis(d2, near, axis=1)
    near = np.take_along_axis(near, np.lexsort((near, dist), axis=1), axis=1)
    # the partition picks an arbitrary subset of the points tied at the k-th
    # distance; rows with such a tie are redone by a stable sort, which
    # keeps the lower index first among equal distances
    kth = dist.max(axis=1)
    tied = (d2 == kth[:, None]).sum(axis=1) > (dist == kth[:, None]).sum(axis=1)
    if tied.any():
        near[tied] = np.argsort(d2[tied], axis=1, kind="stable")[:, :k]
    return near


def build_knn_graph(cloud: PointCloud, k: int = DEFAULT_KNN_K) -> GeometryGraph:
    """Connect every point to its k nearest other points."""
    s = len(cloud)
    if s <= k:
        raise TooFewPoints(f"need more than k={k} points, got {s}")
    nbrs = _knn_indices(cloud.points, k)
    src = np.repeat(np.arange(s, dtype=np.int64), k)
    edges = np.stack([src, nbrs.reshape(-1)], axis=1)
    return GeometryGraph(cloud=cloud, edges=edges, knn_k=k)


def normalize_adjacency(graph: GeometryGraph) -> GeometryGraph:
    """Attach A_hat = D^{-1/2} (A_sym + I) D^{-1/2}, degrees incl. self-loops."""
    s = graph.size
    src, dst = graph.edges[:, 0], graph.edges[:, 1]
    loops = np.arange(s, dtype=np.int64)
    keys = np.unique(np.concatenate([src * s + dst, dst * s + src, loops * (s + 1)]))
    rows, cols = np.divmod(keys, s)
    counts = np.bincount(rows, minlength=s)
    deg = counts.astype(np.float64)
    # the sorted keys fill each row's first slots in ascending column order;
    # the rest of the row is padding: its own index, weight 0
    slot = np.arange(keys.size) - np.repeat(np.cumsum(counts) - counts, counts)
    nbr = np.repeat(np.arange(s)[:, None], counts.max(initial=1), axis=1)
    nbr[rows, slot] = cols
    w = np.zeros(nbr.shape)
    w[rows, slot] = 1.0 / np.sqrt(deg[rows] * deg[cols])
    return GeometryGraph(cloud=graph.cloud, edges=graph.edges, knn_k=graph.knn_k,
                         normalized_adjacency=SparseCOO(nbr, w))


def knn_graph(cloud: PointCloud, k: int = DEFAULT_KNN_K) -> GeometryGraph:
    """build_knn_graph followed by normalize_adjacency."""
    return normalize_adjacency(build_knn_graph(cloud, k))


def estimate_normals(cloud: PointCloud,
                     neighbors: int = DEFAULT_NORMAL_NEIGHBORS) -> PointCloud:
    """Per-point normals from neighbourhood covariance, oriented outward.

    The normal is the smallest-eigenvalue eigenvector of the covariance of
    the point and its `neighbors` nearest neighbours, sign-flipped to point
    away from the cloud centroid. Neighbourhoods whose covariance has rank
    < 2 fall back to the centroid-outward direction and are logged.
    """
    s = len(cloud)
    if s < neighbors + 1:
        raise TooFewPoints(f"need at least {neighbors + 1} points, got {s}")
    nbrs = _knn_indices(cloud.points, neighbors)
    centroid = cloud.centroid()
    normals = np.empty((s, 3))
    degenerate = []
    for i in range(s):
        group = np.vstack([cloud.points[i:i + 1], cloud.points[nbrs[i]]])
        cov = np.cov(group.T, bias=True)
        evals, evecs = np.linalg.eigh(cov)
        rank = int(np.sum(evals > max(evals[-1], 1e-30) * 1e-9))
        outward = cloud.points[i] - centroid
        if rank < 2:
            degenerate.append(i)
            n = outward if np.linalg.norm(outward) > 0 else np.array([0.0, 0.0, 1.0])
        else:
            n = evecs[:, 0]
            d = float(np.dot(n, outward))
            if abs(d) <= 1e-12:
                # point lies in a plane through the centroid: fix the sign
                # by the first nonzero component
                nz = np.nonzero(np.abs(n) > 1e-12)[0]
                if nz.size and n[nz[0]] < 0:
                    n = -n
            elif d < 0:
                n = -n
        normals[i] = n / np.linalg.norm(n)
    if degenerate:
        log.warning("degenerate neighbourhoods at %d point(s): %s",
                    len(degenerate), degenerate[:8])
    return PointCloud(cloud.points, normals, cloud.frame)


def perturb_cloud(cloud: PointCloud, sigma: float, seed: int) -> PointCloud:
    """Add clipped Gaussian noise: per coordinate N(0, sigma^2), clipped to
    [-sigma, sigma]. sigma=0 returns the cloud unchanged."""
    if sigma < 0:
        raise SchemaError("sigma must be >= 0")
    if sigma == 0.0:
        return cloud
    noise = Rng(seed).normals(cloud.points.size).reshape(cloud.points.shape)
    noise = np.clip(noise * sigma, -sigma, sigma)
    return PointCloud(cloud.points + noise, cloud.normals, cloud.frame)


def crop_table_top(cloud: PointCloud) -> PointCloud:
    """Drop points below z_thres = (z_max - z_min) / 6, emulating a table."""
    z = cloud.points[:, 2]
    z_thres = (z.max() - z.min()) / 6.0
    keep = z >= z_thres
    if not keep.any():
        raise FullyCropped("table crop would remove every point")
    normals = cloud.normals[keep] if cloud.normals is not None else None
    return PointCloud(cloud.points[keep], normals, cloud.frame)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def save_cloud_csv(cloud: PointCloud, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        if cloud.normals is not None:
            w.writerow(["x", "y", "z", "nx", "ny", "nz"])
            for p, n in zip(cloud.points, cloud.normals):
                w.writerow([repr(float(v)) for v in (*p, *n)])
        else:
            w.writerow(["x", "y", "z"])
            for p in cloud.points:
                w.writerow([repr(float(v)) for v in p])


def load_cloud_csv(path) -> PointCloud:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise SchemaError(f"{path}: empty cloud file")
        header = [h.strip() for h in header]
        if header[:3] != ["x", "y", "z"]:
            raise SchemaError(f"{path}: expected header x,y,z[,nx,ny,nz]")
        with_normals = header[3:6] == ["nx", "ny", "nz"]
        pts, nrm = [], []
        for ln, row in enumerate(reader, start=2):
            if not row:
                continue
            with parsing(f"{path}:{ln}"):
                vals = [float(v) for v in row]
            if with_normals:
                if len(vals) != 6:
                    raise SchemaError(f"{path}:{ln}: expected 6 columns")
                pts.append(vals[:3])
                nrm.append(vals[3:])
            else:
                if len(vals) != 3:
                    raise SchemaError(f"{path}:{ln}: expected 3 columns")
                pts.append(vals)
    return PointCloud(np.array(pts), np.array(nrm) if with_normals else None)


def load_cloud_ply(path) -> PointCloud:
    """ASCII PLY ingest: vertex properties x,y,z and optional nx,ny,nz."""
    with open(path) as fh, parsing(path):
        if fh.readline().strip() != "ply":
            raise SchemaError(f"{path}: not a PLY file")
        n_vertices = 0
        props = []
        in_vertex = False
        for line in fh:
            tok = line.split()
            if not tok:
                continue
            if tok[0] == "format" and tok[1] != "ascii":
                raise SchemaError(f"{path}: only ascii PLY is supported")
            if tok[0] == "element":
                in_vertex = tok[1] == "vertex"
                if in_vertex:
                    n_vertices = int(tok[2])
            elif tok[0] == "property" and in_vertex:
                props.append(tok[2])
            elif tok[0] == "end_header":
                break
        for name in ("x", "y", "z"):
            if name not in props:
                raise SchemaError(f"{path}: vertex element lacks {name}")
        idx = {name: props.index(name) for name in props}
        with_normals = all(n in props for n in ("nx", "ny", "nz"))
        pts = np.empty((n_vertices, 3))
        nrm = np.empty((n_vertices, 3)) if with_normals else None
        for i in range(n_vertices):
            vals = [float(v) for v in fh.readline().split()]
            pts[i] = [vals[idx["x"]], vals[idx["y"]], vals[idx["z"]]]
            if with_normals:
                nrm[i] = [vals[idx["nx"]], vals[idx["ny"]], vals[idx["nz"]]]
    return PointCloud(pts, nrm)


def load_cloud(path) -> PointCloud:
    path = str(path)
    if path.endswith(".ply"):
        return load_cloud_ply(path)
    return load_cloud_csv(path)
