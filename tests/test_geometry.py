"""Geometry graph construction against brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geomatch import errors, geometry
from geomatch.rng import _LANE_MIN_DRAWS, Rng
from geomatch.geometry import (GeometryGraph, PointCloud, TriangleMesh,
                               build_knn_graph, crop_table_top,
                               estimate_normals, nearest_vertices,
                               normalize_adjacency, perturb_cloud,
                               sample_surface)


def brute_force_knn(points, k):
    """Independent O(S^2) scan with lower-index tie-break."""
    s = len(points)
    nbrs = []
    for i in range(s):
        cand = [(float(np.sum((points[i] - points[j]) ** 2)), j)
                for j in range(s) if j != i]
        cand.sort(key=lambda t: (t[0], t[1]))
        nbrs.append([j for _, j in cand[:k]])
    return nbrs


def stable_argsort_knn(points, k):
    """Full stable sort of the squared distances: lower index first on ties."""
    d2 = np.sum((points[:, None, :] - points[None, :, :]) ** 2, axis=2)
    np.fill_diagonal(d2, np.inf)
    return np.argsort(d2, axis=1, kind="stable")[:, :k]


def set_based_adjacency(edges, s):
    """A_hat from a Python set of symmetrized edges plus self-loops."""
    sym = {(i, i) for i in range(s)}
    for a, b in edges:
        sym.add((int(a), int(b)))
        sym.add((int(b), int(a)))
    deg = np.zeros(s)
    for r, _ in sym:
        deg[r] += 1
    dense = np.zeros((s, s))
    for r, c in sym:
        dense[r, c] = 1.0 / np.sqrt(deg[r] * deg[c])
    return dense


def lattice_cloud(rng, s):
    """s distinct points of a shuffled integer grid: many equal distances."""
    n = int(np.ceil(s ** (1 / 3))) + 1
    grid = np.stack(np.meshgrid(*[np.arange(n)] * 3, indexing="ij"), axis=-1)
    grid = grid.reshape(-1, 3).astype(np.float64)
    return grid[rng.permutation(len(grid))[:s]] * rng.choice([0.5, 1.0, 3.0])


class TestPointCloud:
    def test_rejects_nonfinite(self):
        with pytest.raises(errors.SchemaError):
            PointCloud(np.array([[0.0, 0.0, np.inf]]))

    def test_rejects_bad_normals(self):
        with pytest.raises(errors.SchemaError):
            PointCloud(np.zeros((2, 3)), normals=np.array([[1, 0, 0], [2, 0, 0.0]]))

    def test_immutable(self):
        cloud = PointCloud(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            cloud.points[0, 0] = 1.0


def loop_sample_surface(mesh, count, seed):
    """The point-by-point sampler `sample_surface` replaced: the reference."""
    a, b, c = (mesh.vertices[mesh.triangles[:, j]] for j in range(3))
    areas = 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)
    cdf = np.cumsum(areas) / areas.sum()
    rng = Rng(seed)
    pts, nrm = np.empty((count, 3)), np.empty((count, 3))
    for i in range(count):
        t = min(int(np.searchsorted(cdf, rng.random(), side="right")), len(cdf) - 1)
        a, b, c = mesh.vertices[mesh.triangles[t]]
        u, v = rng.random(), rng.random()
        if u + v > 1.0:
            u, v = 1.0 - u, 1.0 - v
        pts[i] = a + u * (b - a) + v * (c - a)
        n = np.cross(b - a, c - a)
        nrm[i] = n / np.linalg.norm(n)
    return pts, nrm


class TestSampleSurface:
    @given(seed=st.integers(0, 2 ** 32 - 1),
           count=st.integers(1, 300) | st.sampled_from(
               [_LANE_MIN_DRAWS // 3, _LANE_MIN_DRAWS // 3 + 1]))
    @settings(max_examples=40, deadline=None)
    def test_matches_point_by_point_loop(self, seed, count):
        rng = np.random.default_rng(seed)
        verts = rng.normal(size=(8, 3)) * 10.0 ** rng.uniform(-3, 1, size=(8, 1))
        tris = np.array([rng.choice(8, 3, replace=False) for _ in range(12)])
        mesh = TriangleMesh(verts, tris)
        cloud = sample_surface(mesh, count, seed)
        pts, nrm = loop_sample_surface(mesh, count, seed)
        assert cloud.points.tobytes() == pts.tobytes()
        assert cloud.normals.tobytes() == nrm.tobytes()

    def unit_square(self):
        verts = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0.0]])
        return TriangleMesh(verts, np.array([[0, 1, 2], [0, 2, 3]]))

    def test_planar_square(self):
        cloud = sample_surface(self.unit_square(), 1000, seed=0)
        assert len(cloud) == 1000
        assert np.all(cloud.points[:, 2] == 0.0)
        assert cloud.points[:, :2].min() >= 0.0
        assert cloud.points[:, :2].max() <= 1.0
        assert np.allclose(cloud.normals, [0.0, 0.0, 1.0])

    def test_area_weighting(self):
        # triangles with areas 1 and 3; expect a 0.75 hit fraction on the
        # larger one (binomial with n=40000: 3 sigma ~ 0.0065)
        verts = np.array([[0, 0, 0], [2, 0, 0], [0, 1, 0],
                          [10, 0, 0], [12, 0, 0], [10, 3, 0.0]])
        mesh = TriangleMesh(verts, np.array([[0, 1, 2], [3, 4, 5]]))
        cloud = sample_surface(mesh, 40000, seed=9)
        frac = np.mean(cloud.points[:, 0] >= 5.0)
        assert abs(frac - 0.75) < 0.01

    def test_points_on_triangles(self):
        mesh = self.unit_square()
        cloud = sample_surface(mesh, 200, seed=4)
        # barycentric residual: reconstruct each point from triangle 0 or 1
        for p in cloud.points:
            residual = abs(p[2])  # planar mesh: off-plane error
            assert residual < 1e-9

    def test_empty_mesh(self):
        degenerate = TriangleMesh(np.zeros((3, 3)), np.array([[0, 1, 2]]))
        with pytest.raises(errors.EmptyMesh):
            sample_surface(degenerate, 10, seed=0)

    def test_mesh_without_triangles(self):
        with pytest.raises(errors.EmptyMesh):
            sample_surface(TriangleMesh(np.zeros((3, 3)), np.zeros((0, 3))), 10, seed=0)

    def test_deterministic(self):
        a = sample_surface(self.unit_square(), 50, seed=5)
        b = sample_surface(self.unit_square(), 50, seed=5)
        assert np.array_equal(a.points, b.points)


class TestKnnGraph:
    def test_collinear_hand_case(self):
        cloud = PointCloud(np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0], [4, 0, 0.0]]))
        graph = build_knn_graph(cloud, 1)
        assert sorted(map(tuple, graph.edges.tolist())) == [
            (0, 1), (1, 0), (2, 1), (3, 2)]

    def test_equilateral_k2(self):
        cloud = PointCloud(np.array([[0, 0, 0], [1, 0, 0], [0.5, np.sqrt(3) / 2, 0]]))
        graph = build_knn_graph(cloud, 2)
        for v in range(3):
            targets = {b for a, b in graph.edges.tolist() if a == v}
            assert targets == {0, 1, 2} - {v}

    def test_too_few_points(self):
        with pytest.raises(errors.TooFewPoints):
            build_knn_graph(PointCloud(np.zeros((3, 3))), 3)

    def test_default_k(self):
        assert geometry.DEFAULT_KNN_K == 8

    def test_matches_brute_force_random(self, rng_np):
        for trial in range(25):
            s = int(rng_np.integers(10, 200))
            k = int(rng_np.integers(1, min(9, s - 1)))
            pts = rng_np.normal(size=(s, 3))
            graph = build_knn_graph(PointCloud(pts), k)
            expected = brute_force_knn(pts, k)
            got = {(int(a), int(b)) for a, b in graph.edges}
            want = {(i, j) for i, nb in enumerate(expected) for j in nb}
            assert got == want

    def test_tie_break_lower_index(self):
        # vertices 1 and 2 are equidistant from 0; the lower index wins
        cloud = PointCloud(np.array([[0, 0, 0], [1, 0, 0], [-1, 0, 0], [5, 0, 0.0]]))
        graph = build_knn_graph(cloud, 1)
        nbr0 = [b for a, b in graph.edges.tolist() if a == 0]
        assert nbr0 == [1]

    @given(st.integers(0, 2 ** 31 - 1), st.integers(10, 250), st.integers(1, 8),
           st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_matches_stable_argsort(self, seed, s, k, lattice):
        rng = np.random.default_rng(seed)
        pts = lattice_cloud(rng, s) if lattice else rng.normal(size=(s, 3))
        graph = build_knn_graph(PointCloud(pts), k)
        want = stable_argsort_knn(pts, k)
        assert np.array_equal(graph.edges[:, 1].reshape(s, k), want)
        assert np.array_equal(graph.edges[:, 0], np.repeat(np.arange(s), k))


class TestNearestVertices:
    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 200), st.integers(1, 8),
           st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_matches_stable_argsort(self, seed, s, q, lattice):
        # lattice queries on a lattice cloud hit many exact distance ties
        rng = np.random.default_rng(seed)
        if lattice:
            both = lattice_cloud(rng, s + q)
            pts, queries = both[:s], both[s:] + rng.integers(0, 2, size=(q, 3))
        else:
            pts, queries = rng.normal(size=(s, 3)), rng.normal(size=(q, 3))
        d = np.sqrt(np.sum((queries[:, None, :] - pts[None, :, :]) ** 2, axis=2))
        want = np.argsort(d, axis=1, kind="stable")[:, 0]
        idx, dist = nearest_vertices(pts, queries)
        assert np.array_equal(idx, want)
        assert np.array_equal(dist, d[np.arange(q), want])

    def test_tie_goes_to_lower_index(self):
        pts = np.array([[1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0]])
        idx, dist = nearest_vertices(pts, np.zeros(3))
        assert idx.tolist() == [0] and dist.tolist() == [1.0]


class TestNormalizeAdjacency:
    @pytest.mark.parametrize("edge", [[0, 2], [-1, 0]])
    def test_edge_index_out_of_range(self, edge):
        # the one check on A_hat's indices: SparseCOO trusts its builder
        with pytest.raises(errors.SchemaError):
            GeometryGraph(cloud=PointCloud(np.zeros((2, 3))),
                          edges=np.array([edge]), knn_k=1)

    def test_single_vertex(self):
        g = GeometryGraph(cloud=PointCloud(np.zeros((1, 3))),
                          edges=np.empty((0, 2), dtype=np.int64), knn_k=1)
        adj = normalize_adjacency(g).normalized_adjacency.to_dense()
        assert np.allclose(adj, [[1.0]])

    def test_two_mutual(self):
        g = GeometryGraph(cloud=PointCloud(np.zeros((2, 3)) + [[0, 0, 0], [1, 0, 0]]),
                          edges=np.array([[0, 1], [1, 0]]), knn_k=1)
        adj = normalize_adjacency(g).normalized_adjacency.to_dense()
        assert np.allclose(adj, 0.5)

    def test_path_graph_hand_values(self):
        g = GeometryGraph(cloud=PointCloud(np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0.0]])),
                          edges=np.array([[0, 1], [1, 0], [1, 2], [2, 1]]), knn_k=1)
        adj = normalize_adjacency(g).normalized_adjacency.to_dense()
        assert adj[0, 0] == pytest.approx(1 / 2)
        assert adj[0, 1] == pytest.approx(1 / np.sqrt(6))
        assert adj[1, 1] == pytest.approx(1 / 3)

    @given(st.integers(0, 2 ** 31 - 1), st.integers(10, 60), st.integers(1, 5))
    @settings(max_examples=25, deadline=None)
    def test_symmetric_positive_diagonal(self, seed, s, k):
        rng = np.random.default_rng(seed)
        graph = normalize_adjacency(
            build_knn_graph(PointCloud(rng.normal(size=(s, 3))), k))
        adj = graph.normalized_adjacency.to_dense()
        assert np.abs(adj - adj.T).max() < 1e-12
        assert np.diag(adj).min() > 0

    @given(st.integers(0, 2 ** 31 - 1), st.integers(10, 120), st.integers(1, 8),
           st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_matches_set_based_reference(self, seed, s, k, lattice):
        rng = np.random.default_rng(seed)
        pts = lattice_cloud(rng, s) if lattice else rng.normal(size=(s, 3))
        graph = normalize_adjacency(build_knn_graph(PointCloud(pts), k))
        want = set_based_adjacency(graph.edges, s)
        assert np.array_equal(graph.normalized_adjacency.to_dense(), want)

    @given(st.integers(0, 2 ** 31 - 1), st.integers(10, 120), st.integers(1, 8),
           st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_padded_layout(self, seed, s, k, lattice):
        rng = np.random.default_rng(seed)
        pts = lattice_cloud(rng, s) if lattice else rng.normal(size=(s, 3))
        graph = geometry.knn_graph(PointCloud(pts), k)
        adj = graph.normalized_adjacency
        want = set_based_adjacency(graph.edges, s)
        degree = np.count_nonzero(want, axis=1)
        assert adj.nbr.shape == adj.w.shape == (s, degree.max())
        assert adj.nnz == degree.sum()
        for r in range(s):
            real, pad = slice(0, degree[r]), slice(degree[r], None)
            assert np.all(np.diff(adj.nbr[r, real]) > 0)
            assert np.all(adj.w[r, real] > 0)
            assert np.all(adj.nbr[r, pad] == r) and np.all(adj.w[r, pad] == 0)
        assert np.array_equal(adj.to_dense(), want)


class TestEstimateNormals:
    def test_plane(self):
        xs, ys = np.meshgrid(np.linspace(0, 1, 8), np.linspace(0, 1, 8))
        pts = np.stack([xs.ravel(), ys.ravel(), np.zeros(64)], axis=1)
        cloud = estimate_normals(PointCloud(pts), neighbors=8)
        assert np.allclose(np.abs(cloud.normals[:, 2]), 1.0, atol=1e-9)
        assert len(set(np.sign(cloud.normals[:, 2]))) == 1  # consistent sign

    def test_sphere_within_5_degrees(self):
        # Fibonacci sphere: even coverage, so neighbourhood asymmetry stays
        # small and the analytic radial normal is the reference
        n = 400
        i = np.arange(n)
        z = 1.0 - 2.0 * (i + 0.5) / n
        radius = np.sqrt(1.0 - z ** 2)
        phi = np.pi * (1.0 + np.sqrt(5.0)) * i
        dirs = np.stack([radius * np.cos(phi), radius * np.sin(phi), z], axis=1)
        cloud = estimate_normals(PointCloud(dirs), neighbors=8)
        cos = np.sum(cloud.normals * dirs, axis=1)
        assert np.degrees(np.arccos(np.clip(cos, -1, 1))).max() < 5.0

    def test_degenerate_collinear_flagged(self, caplog):
        pts = np.stack([np.linspace(0, 1, 12), np.zeros(12), np.zeros(12)], axis=1)
        with caplog.at_level("WARNING"):
            cloud = estimate_normals(PointCloud(pts), neighbors=4)
        assert "degenerate" in caplog.text.lower()
        assert np.allclose(np.linalg.norm(cloud.normals, axis=1), 1.0)


class TestPerturbCloud:
    def test_zero_sigma_identity(self):
        cloud = PointCloud(np.arange(12.0).reshape(4, 3))
        out = perturb_cloud(cloud, 0.0, seed=1)
        assert np.array_equal(out.points, cloud.points)

    def test_displacement_bound(self, rng_np):
        # one ulp of slack: adding clipped noise to O(1) coordinates and
        # subtracting back can overshoot sigma by ~1e-16
        cloud = PointCloud(rng_np.normal(size=(100, 3)))
        out = perturb_cloud(cloud, 0.001, seed=2)
        assert np.abs(out.points - cloud.points).max() <= 0.001 + 1e-15

    def test_deterministic(self):
        cloud = PointCloud(np.arange(30.0).reshape(10, 3))
        a = perturb_cloud(cloud, 0.01, seed=7)
        b = perturb_cloud(cloud, 0.01, seed=7)
        assert np.array_equal(a.points, b.points)

    @given(st.floats(0.0, 0.05), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_bound_property(self, sigma, seed):
        cloud = PointCloud(np.arange(60.0).reshape(20, 3))
        out = perturb_cloud(cloud, sigma, seed)
        assert np.abs(out.points - cloud.points).max() <= sigma + 1e-13


class TestCropTableTop:
    def test_hand_case(self):
        cloud = PointCloud(np.array([[0, 0, 0], [0, 0, 0.3], [0, 0, 0.6]]))
        out = crop_table_top(cloud)
        assert len(out) == 2
        assert out.points[:, 2].min() >= 0.1 - 1e-12

    def test_constant_z_keeps_all(self):
        cloud = PointCloud(np.tile([1.0, 2.0, 0.0], (5, 1)))
        assert len(crop_table_top(cloud)) == 5

    def test_partition(self, rng_np):
        pts = rng_np.normal(size=(60, 3))
        cloud = PointCloud(pts)
        out = crop_table_top(cloud)
        z = pts[:, 2]
        z_thres = (z.max() - z.min()) / 6.0
        kept = {tuple(p) for p in out.points}
        removed = {tuple(p) for p in pts if tuple(p) not in kept}
        assert kept | removed == {tuple(p) for p in pts}
        assert all(p[2] >= z_thres for p in kept)
        assert all(p[2] < z_thres for p in removed)

    def test_fully_cropped(self):
        cloud = PointCloud(np.array([[0, 0, -1.0], [0, 0, -7.0]]))
        with pytest.raises(errors.FullyCropped):
            crop_table_top(cloud)


class TestCloudFiles:
    def test_csv_roundtrip(self, tmp_path, rng_np):
        pts = rng_np.normal(size=(20, 3))
        nrm = rng_np.normal(size=(20, 3))
        nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
        cloud = PointCloud(pts, nrm)
        path = tmp_path / "cloud.csv"
        geometry.save_cloud_csv(cloud, path)
        back = geometry.load_cloud(path)
        assert np.array_equal(back.points, cloud.points)
        assert np.array_equal(back.normals, cloud.normals)

    def test_ply_ingest(self, tmp_path):
        path = tmp_path / "cloud.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 2\n"
            "property float x\nproperty float y\nproperty float z\n"
            "end_header\n0 0 0\n1 2 3\n")
        cloud = geometry.load_cloud(path)
        assert np.array_equal(cloud.points, [[0, 0, 0], [1, 2, 3]])

    def test_csv_schema_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(errors.SchemaError):
            geometry.load_cloud(path)
