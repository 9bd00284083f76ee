"""Symmetric sparse matrix in padded-neighbour form, for graph adjacency."""

from __future__ import annotations

import numpy as np

from .errors import ShapeMismatch

_BLOCK_ELEMENTS = 1 << 16    # 512 KB of float64


class SparseCOO:
    """Symmetric sparse S x S matrix, built from (row, col, value) triples.

    Row r keeps its entries in `nbr[r]` (column indices, ascending) and
    `w[r]` (values), padded to the largest row degree D. A padded slot has
    weight 0 and points at its own row. Because the matrix is symmetric,
    the transposed product is the product itself.
    """

    def __init__(self, shape, rows, cols, vals):
        s = int(shape[0])
        if int(shape[1]) != s:
            raise ShapeMismatch(f"symmetric matrix must be square, got {shape}")
        self.shape = (s, s)
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if not (rows.shape == cols.shape == vals.shape):
            raise ShapeMismatch("rows, cols, vals must have equal length")
        for name, idx in (("row", rows), ("col", cols)):
            if idx.size and (idx.min() < 0 or idx.max() >= s):
                raise ShapeMismatch(f"{name} index out of range")
        keys = rows * s + cols
        order = np.argsort(keys)
        keys, rows, cols, vals = keys[order], rows[order], cols[order], vals[order]
        if np.any(keys[1:] == keys[:-1]):
            raise ShapeMismatch("duplicate (row, col) entry")
        t_keys = cols * s + rows
        t_order = np.argsort(t_keys)
        if not (np.array_equal(t_keys[t_order], keys)
                and np.array_equal(vals[t_order], vals)):
            raise ShapeMismatch("matrix is not symmetric")
        counts = np.bincount(rows, minlength=s)
        width = max(1, int(counts.max(initial=0)))
        slot = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
        self.nbr = np.repeat(np.arange(s)[:, None], width, axis=1)
        self.nbr[rows, slot] = cols
        self.w = np.zeros((s, width))
        self.w[rows, slot] = vals
        self.nbr.flags.writeable = False
        self.w.flags.writeable = False
        self.nnz = int(vals.size)

    def matmul(self, dense: np.ndarray) -> np.ndarray:
        """self @ dense for a dense (S, F) array."""
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2 or dense.shape[0] != self.shape[0]:
            raise ShapeMismatch(f"cannot multiply {self.shape} by {dense.shape}")
        out = np.empty(dense.shape)
        # one batched (1, D) @ (D, F) product per block of rows, each block's
        # gathered neighbour rows sized to stay in cache
        step = max(1, _BLOCK_ELEMENTS // (self.w.shape[1] * max(1, dense.shape[1])))
        for a in range(0, self.shape[0], step):
            np.matmul(self.w[a:a + step, None, :], dense[self.nbr[a:a + step]],
                      out=out[a:a + step, None, :])
        return out

    rmatmul = matmul    # self.T @ dense is self @ dense: the matrix is symmetric

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape)
        np.add.at(out, (np.arange(self.shape[0])[:, None], self.nbr), self.w)
        return out
