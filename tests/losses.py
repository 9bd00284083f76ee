"""A scalar loss for the gradient checks, as one `geomatch.diffnet` tape node."""

import numpy as np

from geomatch import diffnet as dn


def scalar_loss(x: dn.Tensor, square: bool = False, mean: bool = False) -> dn.Tensor:
    """Sum of x, or of x**2 with square=True; the mean with mean=True."""
    n = x.data.size if mean else 1
    value = x.data ** 2 if square else x.data

    def back(g):
        local = 2.0 * x.data if square else np.ones_like(x.data)
        return ((x, float(g) / n * local),)

    return dn.Tensor(value.sum() / n, _parents=(x,), _backward=back)
