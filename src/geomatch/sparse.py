"""Sparse matrix in padded-neighbour form, for graph adjacency.

A product runs in blocks of rows, which `worker.split` shares between the
worker thread and the main thread. Each block is one `np.matmul` call
whichever thread runs it, so the product keeps its bits.
"""

from __future__ import annotations

import numpy as np

from . import worker
from .errors import ShapeMismatch

_BLOCK_ELEMENTS = 1 << 16    # 512 KB of float64


def _product(nbr: np.ndarray, w: np.ndarray, dense: np.ndarray,
             shape: tuple[int, int]) -> np.ndarray:
    """The (shape[0], F) product of padded arrays (nbr, w) with dense.

    Each block of rows has its gathered neighbour rows sized to stay in
    cache."""
    dense = np.asarray(dense, dtype=np.float64)
    if dense.ndim != 2 or dense.shape[0] != shape[1]:
        raise ShapeMismatch(f"cannot multiply {shape} by {dense.shape}")
    out = np.empty((shape[0], dense.shape[1]))
    step = max(1, _BLOCK_ELEMENTS // (w.shape[1] * max(1, dense.shape[1])))
    starts = range(0, shape[0], step)
    worker.split(_blocks, starts, [min(step, shape[0] - a) for a in starts],
                 nbr, w, dense, out, step)
    return out


def _blocks(starts, nbr, w, dense, out, step) -> None:
    """Rows a:a + step of the product into `out`, for each a in `starts`:
    one batched (1, D) @ (D, F) product per block."""
    for a in starts:
        np.matmul(w[a:a + step, None, :], dense[nbr[a:a + step]],
                  out=out[a:a + step, None, :])


class SparseCOO:
    """Sparse R x C matrix in padded-neighbour form.

    Row r keeps its entries in `nbr[r]` (column indices) and `w[r]`
    (values), padded to a common width D. A padded slot has weight 0 and
    points at a valid column. The transposed matrix is kept the same way in
    `t_nbr` and `t_w`; for the symmetric A_hat that
    `geometry.normalize_adjacency` builds, these are `nbr` and `w`
    themselves. `block` cuts row blocks out of that A_hat. The arrays are
    read-only.
    """

    def __init__(self, nbr: np.ndarray, w: np.ndarray, transpose=None):
        """`transpose` is the (nbr, w) pair of the transposed matrix;
        without it the matrix is symmetric."""
        self.nbr, self.w = nbr, w
        self.t_nbr, self.t_w = (nbr, w) if transpose is None else transpose
        for a in (self.nbr, self.w, self.t_nbr, self.t_w):
            a.flags.writeable = False
        self.shape = (nbr.shape[0], self.t_nbr.shape[0])
        self.nnz = int(np.count_nonzero(w))

    def matmul(self, dense: np.ndarray) -> np.ndarray:
        """self @ dense for a dense (C, F) array."""
        return _product(self.nbr, self.w, dense, self.shape)

    def rmatmul(self, dense: np.ndarray) -> np.ndarray:
        """self.T @ dense for a dense (R, F) array."""
        return _product(self.t_nbr, self.t_w, dense, self.shape[::-1])

    def block(self, rows, cols) -> "SparseCOO":
        """self[rows][:, cols] of a symmetric matrix, for sorted unique
        non-empty index arrays, with its transpose self[cols][:, rows].

        Every kept row keeps all D slots in their order, so where `cols`
        holds all of a row's columns its product has the bits of that row of
        the full product. A slot whose column is not in `cols` gets weight 0
        and points at column 0.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)

        def restrict(keep_rows, keep_cols):
            nbr = self.nbr[keep_rows]
            at = np.searchsorted(keep_cols, nbr).clip(max=keep_cols.size - 1)
            inside = keep_cols[at] == nbr
            return np.where(inside, at, 0), np.where(inside, self.w[keep_rows], 0.0)

        return SparseCOO(*restrict(rows, cols), transpose=restrict(cols, rows))

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape)
        np.add.at(out, (np.arange(self.shape[0])[:, None], self.nbr), self.w)
        return out
