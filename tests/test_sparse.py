"""The padded-neighbour adjacency operator and its row blocks against dense
products."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geomatch import errors, sparse, worker
from geomatch.geometry import PointCloud, knn_graph, normalize_adjacency
from geomatch.sparse import SparseCOO


class TestProducts:
    @given(st.integers(0, 2 ** 31 - 1), st.integers(10, 300), st.integers(1, 8),
           st.sampled_from([1, 3, 256]))
    @settings(max_examples=40, deadline=None)
    def test_knn_graph_matches_dense(self, seed, s, k, f):
        rng = np.random.default_rng(seed)
        adj = knn_graph(PointCloud(rng.normal(size=(s, 3))), k).normalized_adjacency
        h = rng.normal(size=(s, f))
        dense = adj.to_dense()
        assert np.allclose(adj.matmul(h), dense @ h, rtol=1e-12, atol=1e-12)
        assert np.allclose(adj.rmatmul(h), dense.T @ h, rtol=1e-12, atol=1e-12)

    def test_single_vertex(self):
        adj = normalize_adjacency(np.empty((0, 2), dtype=np.int64), 1)
        h = np.array([[2.0, -3.0]])
        assert adj.shape == (1, 1) and adj.nnz == 1
        assert np.array_equal(adj.matmul(h), h)
        assert np.array_equal(adj.rmatmul(h), h)

    def test_padding_and_empty_rows(self):
        # row 2 has no entries; row 0 is padded to the degree of row 1
        adj = SparseCOO(np.array([[1, 0], [0, 1], [2, 2]]),
                        np.array([[0.5, 0.0], [0.5, 2.0], [0.0, 0.0]]))
        assert adj.nnz == 3
        assert adj.w.shape == (3, 2)
        assert np.array_equal(adj.to_dense(),
                              [[0, 0.5, 0], [0.5, 2.0, 0], [0, 0, 0]])
        h = np.arange(6.0).reshape(3, 2)
        assert np.allclose(adj.matmul(h), adj.to_dense() @ h)

    def test_product_shape_checked(self):
        adj = SparseCOO(np.array([[0], [1]]), np.ones((2, 1)))
        with pytest.raises(errors.ShapeMismatch):
            adj.matmul(np.zeros((3, 2)))
        with pytest.raises(errors.ShapeMismatch):
            adj.rmatmul(np.zeros(2))


class TestSplitRows:
    """A product runs every row block on the calling thread, also where
    the worker has a spare CPU; the reference is one loop over every
    block on this thread."""

    @pytest.fixture(autouse=True)
    def spare_cpu(self, monkeypatch):
        # the worker runs only where a CPU is spare; test it on any host
        monkeypatch.setattr(worker, "SPARE_CPU", True)

    @staticmethod
    def one_thread(nbr, w, dense):
        step = max(1, sparse._BLOCK_ELEMENTS // (w.shape[1] * dense.shape[1]))
        out = np.empty((nbr.shape[0], dense.shape[1]))
        blocks = 0
        for a in range(0, nbr.shape[0], step):
            np.matmul(w[a:a + step, None, :], dense[nbr[a:a + step]],
                      out=out[a:a + step, None, :])
            blocks += 1
        return out, blocks

    @pytest.mark.parametrize("n_blocks", [1, 2, 3, 5])
    @pytest.mark.parametrize("cut", [False, True])
    def test_same_bytes_as_one_thread(self, monkeypatch, n_blocks, cut):
        rng = np.random.default_rng(n_blocks)
        adj = knn_graph(PointCloud(rng.normal(size=(90, 3))), 4).normalized_adjacency
        if cut:
            adj = adj.block(np.unique(rng.integers(0, 90, size=40)),
                            np.unique(rng.integers(0, 90, size=70)))
        f = 7
        for product, nbr, w, (rows, cols) in (
                (adj.matmul, adj.nbr, adj.w, adj.shape),
                (adj.rmatmul, adj.t_nbr, adj.t_w, adj.shape[::-1])):
            # block rows so the product has exactly n_blocks blocks
            step = -(-rows // n_blocks)
            monkeypatch.setattr(sparse, "_BLOCK_ELEMENTS", step * w.shape[1] * f)
            h = rng.normal(size=(cols, f))
            want, blocks = self.one_thread(nbr, w, h)
            assert blocks == n_blocks
            assert product(h).tobytes() == want.tobytes()

    def test_real_block_size(self, rng_np):
        adj = knn_graph(PointCloud(rng_np.normal(size=(300, 3))), 8).normalized_adjacency
        h = rng_np.normal(size=(300, 256))
        want, blocks = self.one_thread(adj.nbr, adj.w, h)
        assert blocks > 2
        assert adj.matmul(h).tobytes() == want.tobytes()
        assert adj.rmatmul(h).tobytes() == want.tobytes()

    def test_no_product_submits_a_job(self, monkeypatch, rng_np):
        class NoPool:
            def submit(self, *args):
                pytest.fail("a sparse product submitted a job")

        monkeypatch.setattr(worker, "_POOL", NoPool())
        adj = knn_graph(PointCloud(rng_np.normal(size=(40, 3))), 3).normalized_adjacency
        h = rng_np.normal(size=(40, 3))
        monkeypatch.setattr(sparse, "_BLOCK_ELEMENTS", 20 * adj.w.shape[1] * 3)
        want, blocks = self.one_thread(adj.nbr, adj.w, h)
        assert blocks == 2
        assert adj.matmul(h).tobytes() == want.tobytes()
        assert adj.rmatmul(h).tobytes() == want.tobytes()


class TestBlock:
    @given(st.integers(0, 2 ** 31 - 1), st.integers(10, 300), st.integers(1, 8),
           st.sampled_from([1, 3, 256]))
    @settings(max_examples=30, deadline=None)
    def test_closed_neighbourhood_rows(self, seed, s, k, f):
        # cols hold every column of the kept rows: the block's product is
        # those rows of the full product, bit for bit
        rng = np.random.default_rng(seed)
        adj = knn_graph(PointCloud(rng.normal(size=(s, 3))), k).normalized_adjacency
        rows = np.unique(rng.integers(0, s, size=int(rng.integers(1, 8))))
        cols = np.unique(adj.nbr[rows])
        block = adj.block(rows, cols)
        h = rng.normal(size=(s, f))
        assert block.shape == (rows.size, cols.size)
        assert block.matmul(h[cols]).tobytes() == adj.matmul(h)[rows].tobytes()
        g = rng.normal(size=(rows.size, f))
        sub = adj.to_dense()[rows][:, cols]
        assert np.allclose(block.rmatmul(g), sub.T @ g, rtol=1e-12, atol=1e-12)

    @given(st.integers(0, 2 ** 31 - 1), st.integers(10, 100), st.integers(1, 8))
    @settings(max_examples=30, deadline=None)
    def test_any_subsets(self, seed, s, k):
        # columns outside `cols` drop out with weight 0
        rng = np.random.default_rng(seed)
        adj = knn_graph(PointCloud(rng.normal(size=(s, 3))), k).normalized_adjacency
        rows = np.unique(rng.integers(0, s, size=int(rng.integers(1, s))))
        cols = np.unique(rng.integers(0, s, size=int(rng.integers(1, s))))
        block = adj.block(rows, cols)
        sub = adj.to_dense()[rows][:, cols]
        assert np.array_equal(block.to_dense(), sub)
        h = rng.normal(size=(cols.size, 3))
        g = rng.normal(size=(rows.size, 3))
        assert np.allclose(block.matmul(h), sub @ h, rtol=1e-12, atol=1e-12)
        assert np.allclose(block.rmatmul(g), sub.T @ g, rtol=1e-12, atol=1e-12)

    def test_shapes_checked(self):
        adj = knn_graph(PointCloud(np.random.default_rng(0).normal(size=(20, 3))),
                        3).normalized_adjacency
        block = adj.block(np.array([2, 5]), np.arange(10))
        with pytest.raises(errors.ShapeMismatch):
            block.matmul(np.zeros((2, 4)))
        with pytest.raises(errors.ShapeMismatch):
            block.rmatmul(np.zeros((10, 4)))


class TestConstruction:
    def test_read_only(self):
        adj = SparseCOO(np.array([[1], [0]]), np.ones((2, 1)))
        with pytest.raises(ValueError):
            adj.w[0, 0] = 3.0
        with pytest.raises(ValueError):
            adj.nbr[0, 0] = 0
