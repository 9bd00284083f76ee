"""Symmetric sparse matrix in padded-neighbour form, for graph adjacency."""

from __future__ import annotations

import numpy as np

from .errors import ShapeMismatch

_BLOCK_ELEMENTS = 1 << 16    # 512 KB of float64


class SparseCOO:
    """Symmetric sparse S x S matrix in padded-neighbour form.

    Row r keeps its entries in `nbr[r]` (column indices, ascending) and
    `w[r]` (values), padded to the largest row degree D. A padded slot has
    weight 0 and points at its own row. Only `geometry.normalize_adjacency`
    builds one, from unique symmetric entries; this class stores the two
    arrays read-only. Because the matrix is symmetric, the transposed
    product is the product itself.
    """

    def __init__(self, nbr: np.ndarray, w: np.ndarray):
        self.nbr, self.w = nbr, w
        self.nbr.flags.writeable = False
        self.w.flags.writeable = False
        self.shape = (nbr.shape[0], nbr.shape[0])
        self.nnz = int(np.count_nonzero(w))

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
