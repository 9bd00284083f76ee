"""Point clouds, triangle meshes and k-NN geometry graphs.

Objects and end-effectors share one representation: a point cloud whose
points become graph vertices, joined to their k nearest neighbours by a
symmetrically normalized adjacency for graph convolutions. All coordinates
are metric meters.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass

import numpy as np

from .artifacts import parsing, write_csv
from .errors import EmptyMesh, FullyCropped, SchemaError, TooFewPoints
from .rng import Rng
from .sparse import SparseCOO

log = logging.getLogger(__name__)

DEFAULT_KNN_K = 8           # neighbours per vertex in the geometry graph
DEFAULT_NORMAL_NEIGHBORS = 8
_KNN_BLOCK_ROWS = 128       # a (128, S) distance block: 2 MB at S = 2048


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class PointCloud:
    """S points in the world frame, optionally with unit normals."""

    points: np.ndarray
    normals: np.ndarray | None = None

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
    """Point cloud plus its normalized adjacency A_hat."""

    cloud: PointCloud
    normalized_adjacency: SparseCOO

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
    normal = cross(e1, e2)
    areas = 0.5 * np.linalg.norm(normal, axis=1)
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
    return PointCloud(pts, unit(normal[tri]))


def unit(x: np.ndarray) -> np.ndarray:
    """x over its norm along the last axis; vecdot rounds like the 1-D
    norm's dot, norm(axis=-1) does not."""
    return x / np.sqrt(np.vecdot(x, x))[..., None]


_K1, _K2 = [1, 2, 0], [2, 0, 1]


def cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b over the last axis, with np.cross's products and differences:
    component k is a[k1] b[k2] - a[k2] b[k1]."""
    return a[..., _K1] * b[..., _K2] - a[..., _K2] * b[..., _K1]


def k_nearest(points, k: int, queries=None) -> tuple[np.ndarray, np.ndarray]:
    """The k points nearest each query: (Q, k) indices and squared
    distances, nearest first, the lower index first on ties.

    Without `queries` every point is a query and skips itself. Works
    through blocks of query rows, so the distance matrix is never held
    whole; each row's result depends on that row's distances alone.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    q = pts if queries is None else np.asarray(queries, dtype=np.float64).reshape(-1, 3)
    near = np.empty((q.shape[0], k), dtype=np.int64)
    near_d2 = np.empty((q.shape[0], k))
    for a in range(0, q.shape[0], _KNN_BLOCK_ROWS):
        rows = q[a:a + _KNN_BLOCK_ROWS]
        d2 = np.zeros((rows.shape[0], pts.shape[0]))
        for axis in range(3):       # same sums as over an (S, S, 3) difference
            diff = rows[:, None, axis] - pts[None, :, axis]
            diff *= diff
            d2 += diff
        if queries is None:
            d2[np.arange(rows.shape[0]), np.arange(a, a + rows.shape[0])] = np.inf
        if k == 1:      # argmin takes the first, so the lower index, on ties
            part = d2.argmin(axis=1)[:, None]
        else:
            part = np.argpartition(d2, k - 1, axis=1)[:, :k]
            dist = np.take_along_axis(d2, part, axis=1)
            part = np.take_along_axis(part, np.lexsort((part, dist), axis=1), axis=1)
            # the partition picks an arbitrary subset of the points tied at
            # the k-th distance; rows with such a tie are redone by a stable
            # sort, which keeps the lower index first among equal distances
            kth = dist.max(axis=1)
            tied = (d2 == kth[:, None]).sum(axis=1) > (dist == kth[:, None]).sum(axis=1)
            if tied.any():
                part[tied] = np.argsort(d2[tied], axis=1, kind="stable")[:, :k]
        near[a:a + rows.shape[0]] = part
        near_d2[a:a + rows.shape[0]] = d2[np.arange(rows.shape[0])[:, None], part]
    return near, near_d2


def nearest_vertices(points, queries) -> tuple[np.ndarray, np.ndarray]:
    """Index of, and Euclidean distance to, the point nearest each query.

    Returns two (Q,) arrays; distance ties go to the lower point index.
    """
    idx, d2 = k_nearest(points, 1, queries)
    return idx[:, 0], np.sqrt(d2[:, 0])


def build_knn_graph(cloud: PointCloud, k: int = DEFAULT_KNN_K) -> np.ndarray:
    """(S k, 2) directed edges (src, dst): each point to its k nearest others."""
    s = len(cloud)
    if s <= k:
        raise TooFewPoints(f"need more than k={k} points, got {s}")
    nbrs, _ = k_nearest(cloud.points, k)
    src = np.repeat(np.arange(s, dtype=np.int64), k)
    return np.stack([src, nbrs.reshape(-1)], axis=1)


def normalize_adjacency(edges: np.ndarray, s: int) -> SparseCOO:
    """A_hat = D^{-1/2} (A_sym + I) D^{-1/2} of the S-vertex graph `edges`,
    degrees incl. self-loops; checks the indices, which SparseCOO does not."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.size and (edges.min() < 0 or edges.max() >= s):
        raise SchemaError("edge index out of range")
    src, dst = edges[:, 0], edges[:, 1]
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
    return SparseCOO(nbr, w)


def knn_graph(cloud: PointCloud, k: int = DEFAULT_KNN_K) -> GeometryGraph:
    """The cloud's k-NN graph: build_knn_graph, then normalize_adjacency."""
    return GeometryGraph(cloud, normalize_adjacency(build_knn_graph(cloud, k), len(cloud)))


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
    nbrs, _ = k_nearest(cloud.points, neighbors)
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
    return PointCloud(cloud.points, normals)


def perturb_cloud(cloud: PointCloud, sigma: float, seed: int) -> PointCloud:
    """Add clipped Gaussian noise: per coordinate N(0, sigma^2), clipped to
    [-sigma, sigma]. sigma=0 returns the cloud unchanged."""
    if sigma < 0:
        raise SchemaError("sigma must be >= 0")
    if sigma == 0.0:
        return cloud
    noise = Rng(seed).normals(cloud.points.size).reshape(cloud.points.shape)
    noise = np.clip(noise * sigma, -sigma, sigma)
    return PointCloud(cloud.points + noise, cloud.normals)


def crop_table_top(cloud: PointCloud) -> PointCloud:
    """Drop points below z_thres = (z_max - z_min) / 6, emulating a table."""
    z = cloud.points[:, 2]
    z_thres = (z.max() - z.min()) / 6.0
    keep = z >= z_thres
    if not keep.any():
        raise FullyCropped("table crop would remove every point")
    normals = cloud.normals[keep] if cloud.normals is not None else None
    return PointCloud(cloud.points[keep], normals)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def save_cloud_csv(cloud: PointCloud, path) -> None:
    header, rows = ["x", "y", "z"], cloud.points
    if cloud.normals is not None:
        header, rows = header + ["nx", "ny", "nz"], np.hstack([rows, cloud.normals])
    write_csv(path, header, ([repr(float(v)) for v in row] for row in rows))


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
            raise SchemaError("not a PLY file")
        n_vertices = 0
        props = []
        in_vertex = False
        for line in fh:
            tok = line.split()
            if not tok:
                continue
            if tok[0] == "format" and tok[1] != "ascii":
                raise SchemaError("only ascii PLY is supported")
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
                raise SchemaError(f"vertex element lacks {name}")
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
