"""Dense/sparse tensor core with reverse-mode autodiff.

Everything is 64-bit floats. The graph is built eagerly: each op returns a
Tensor holding its parents and a closure that routes the upstream gradient.
Only the op set needed by the grasp model exists. Every network layer is one
`dense` op (matmul, bias row and ReLU on one tape node); a GCN layer feeds it
the product `spmm(A_hat, h)`. No other op broadcasts.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .artifacts import parsing, read_json
from .errors import MissingGradient, SchemaError, ShapeMismatch
from .sparse import SparseCOO


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False,
                 _parents=(), _backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad or any(
            p.requires_grad for p in _parents)
        self.grad: np.ndarray | None = None
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={self.requires_grad})"

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, scalar):
        return scale(self, scalar)

    __rmul__ = __mul__


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def backward(loss: Tensor) -> None:
    """Accumulate gradients of a scalar loss into every reachable tensor."""
    if loss.data.shape not in ((), (1,)):
        raise ShapeMismatch(f"loss must be scalar, got shape {loss.data.shape}")
    topo: list[Tensor] = []
    state: dict[int, int] = {}     # 0 = visiting, 1 = done
    stack = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            state[id(node)] = 1
            topo.append(node)
            continue
        mark = state.get(id(node))
        if mark == 1:
            continue
        assert mark != 0, "cycle in autodiff graph"
        state[id(node)] = 0
        stack.append((node, True))
        for p in node._parents:
            if state.get(id(p)) != 1:
                stack.append((p, False))
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node.requires_grad and not node._parents:
            node.grad = g if node.grad is None else node.grad + g
        if node._backward is None:
            continue
        for parent, pg in node._backward(g):
            if not parent.requires_grad:
                continue
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + pg
            else:
                grads[key] = pg


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeMismatch(f"matmul {a.data.shape} @ {b.data.shape}")

    def back(g):
        return ((a, g @ b.data.T), (b, a.data.T @ g))

    return Tensor(a.data @ b.data, _parents=(a, b), _backward=back)


def dense(x: Tensor, w: Tensor, b: Tensor, relu: bool = True) -> Tensor:
    """One network layer: ReLU(x @ w + b), or x @ w + b with relu=False."""
    x = _as_tensor(x)
    if (x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]
            or b.data.shape != w.data.shape[1:]):
        raise ShapeMismatch(f"dense {x.data.shape} @ {w.data.shape} + {b.data.shape}")
    out = x.data @ w.data
    out += b.data
    if relu:
        np.copyto(out, 0.0, where=~(out > 0))    # -0.0 and NaN become 0.0 too

    def back(g):
        if relu:
            g = g * (out > 0)
        grads = [(w, x.data.T @ g), (b, g.sum(axis=0))]
        if x.requires_grad:     # the first GCN layer's input is the constant cloud
            grads.append((x, g @ w.data.T))
        return grads

    return Tensor(out, _parents=(x, w, b), _backward=back)


def spmm(sp: SparseCOO, h: Tensor) -> Tensor:
    """Constant sparse matrix times dense tensor."""
    h = _as_tensor(h)
    if h.data.shape[0] != sp.shape[1]:
        raise ShapeMismatch(f"spmm {sp.shape} @ {h.data.shape}")

    def back(g):
        return ((h, sp.rmatmul(g)),)

    return Tensor(sp.matmul(h.data), _parents=(h,), _backward=back)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise add of equal-shape tensors."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.shape != b.data.shape:
        raise ShapeMismatch(f"add {a.data.shape} + {b.data.shape}")

    def back(g):
        return ((a, g), (b, g))

    return Tensor(a.data + b.data, _parents=(a, b), _backward=back)


def scale(x: Tensor, c: float) -> Tensor:
    x = _as_tensor(x)
    c = float(c)

    def back(g):
        return ((x, g * c),)

    return Tensor(x.data * c, _parents=(x,), _backward=back)


def concat_cols(parts) -> Tensor:
    """Concatenate 2-D tensors (or constant arrays) along columns."""
    parts = [_as_tensor(p) for p in parts]
    rows = parts[0].data.shape[0]
    for p in parts:
        if p.data.ndim != 2 or p.data.shape[0] != rows:
            raise ShapeMismatch("concat_cols requires equal row counts")
    widths = [p.data.shape[1] for p in parts]
    offsets = np.cumsum([0] + widths)

    def back(g):
        return tuple((p, g[:, offsets[i]:offsets[i + 1]])
                     for i, p in enumerate(parts))

    return Tensor(np.concatenate([p.data for p in parts], axis=1),
                  _parents=tuple(parts), _backward=back)


def gather_rows(x: Tensor, indices) -> Tensor:
    x = _as_tensor(x)
    idx = np.asarray(indices, dtype=np.int64).reshape(-1)
    if idx.size and (idx.min() < 0 or idx.max() >= x.data.shape[0]):
        raise ShapeMismatch("gather index out of range")

    def back(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, idx, g)
        return ((x, gx),)

    return Tensor(x.data[idx], _parents=(x,), _backward=back)


def transpose(x: Tensor) -> Tensor:
    x = _as_tensor(x)

    def back(g):
        return ((x, g.T),)

    return Tensor(x.data.T, _parents=(x,), _backward=back)


def column(x: Tensor, j: int) -> Tensor:
    x = _as_tensor(x)
    if x.data.ndim != 2 or not 0 <= j < x.data.shape[1]:
        raise ShapeMismatch(f"column {j} of shape {x.data.shape}")

    def back(g):
        gx = np.zeros_like(x.data)
        gx[:, j] = g
        return ((x, gx),)

    return Tensor(x.data[:, j], _parents=(x,), _backward=back)


def tsum(x: Tensor) -> Tensor:
    x = _as_tensor(x)

    def back(g):
        return ((x, np.full_like(x.data, float(g))),)

    return Tensor(x.data.sum(), _parents=(x,), _backward=back)


def tmean(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    n = x.data.size

    def back(g):
        return ((x, np.full_like(x.data, float(g) / n)),)

    return Tensor(x.data.mean(), _parents=(x,), _backward=back)


def square(x: Tensor) -> Tensor:
    x = _as_tensor(x)

    def back(g):
        return ((x, g * 2.0 * x.data),)

    return Tensor(x.data ** 2, _parents=(x,), _backward=back)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def bce_with_pos_weight(logits: Tensor, targets, pos_weight: float = 1.0) -> Tensor:
    """Mean binary cross-entropy on logits, positives weighted by pos_weight.

    Uses the log-sum-exp form, so large-magnitude logits stay finite.
    """
    logits = _as_tensor(logits)
    y = np.asarray(targets, dtype=np.float64)
    if y.size != logits.data.size:
        raise ShapeMismatch(
            f"targets {y.shape} do not match logits {logits.data.shape}")
    y = y.reshape(logits.data.shape)
    if not np.isin(y, (0.0, 1.0)).all():
        raise ShapeMismatch("targets must be binary")
    x = logits.data
    softplus_negx = np.logaddexp(0.0, -x)
    elem = pos_weight * y * softplus_negx + (1.0 - y) * (x + softplus_negx)
    n = x.size

    def back(g):
        s = _sigmoid(x)
        grad = (pos_weight * y * (s - 1.0) + (1.0 - y) * s) * (float(g) / n)
        return ((logits, grad),)

    return Tensor(elem.mean(), _parents=(logits,), _backward=back)


# ---------------------------------------------------------------------------
# parameters and optimization
# ---------------------------------------------------------------------------

def glorot_init(shape, uniforms: np.ndarray) -> Tensor:
    """Uniform(+-sqrt(6 / (fan_in + fan_out))) initialization from
    shape[0] * shape[1] uniforms in [0, 1), already drawn."""
    if len(shape) != 2:
        raise ShapeMismatch("glorot_init expects a 2-D shape")
    limit = np.sqrt(6.0 / (shape[0] + shape[1]))
    return Tensor((uniforms.reshape(shape) * 2.0 - 1.0) * limit, requires_grad=True)


def zeros_param(shape) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)


class ParameterStore:
    """Named parameters in insertion order plus shared Adam state."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self.step_count = 0

    def add(self, name: str, tensor: Tensor) -> Tensor:
        if name in self._params:
            raise ShapeMismatch(f"duplicate parameter name {name}")
        tensor.requires_grad = True
        self._params[name] = tensor
        self._m[name] = np.zeros_like(tensor.data)
        self._v[name] = np.zeros_like(tensor.data)
        return tensor

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def zero_grad(self) -> None:
        for p in self._params.values():
            p.grad = None


_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8    # Adam decays and denominator floor


def adam_step(store: ParameterStore, lr: float = 1e-4) -> None:
    """Bias-corrected Adam update over all parameters; zeroes grads after."""
    for name, p in store.items():
        if p.grad is None:
            raise MissingGradient(f"parameter {name} has no gradient")
    store.step_count += 1
    t = store.step_count
    c1 = 1.0 - _BETA1 ** t
    c2 = 1.0 - _BETA2 ** t
    for name, p in store.items():
        g = p.grad
        m, v = store._m[name], store._v[name]
        m *= _BETA1
        v *= _BETA2
        g2 = g * g
        g2 *= (1.0 - _BETA2)
        v += g2
        g *= (1.0 - _BETA1)
        m += g
        denom = np.sqrt(v / c2, out=g2)     # reuse the g*g buffer
        denom += _EPS
        np.divide(m, denom, out=denom)
        denom *= lr / c1
        p.data -= denom
        p.grad = None


# ---------------------------------------------------------------------------
# weight files
# ---------------------------------------------------------------------------

def save_weights(store: ParameterStore, directory) -> None:
    os.makedirs(directory, exist_ok=True)
    manifest = []
    offset = 0
    blobs = []
    for name, p in store.items():
        raw = p.data.astype("<f8").tobytes()
        manifest.append({"name": name, "shape": list(p.data.shape),
                         "byte_offset": offset})
        offset += len(raw)
        blobs.append(raw)
    with open(os.path.join(directory, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1)
    with open(os.path.join(directory, "weights.bin"), "wb") as fh:
        fh.write(b"".join(blobs))


def load_weights(store: ParameterStore, directory) -> None:
    """Overwrite every parameter from `save_weights` files, or none.

    The manifest must list exactly the store's parameters, in order, with
    matching shapes and contiguous offsets, and the blob must hold exactly
    the bytes they need.
    """
    path = os.path.join(directory, "manifest.json")
    manifest = read_json(path)
    with open(os.path.join(directory, "weights.bin"), "rb") as fh:
        blob = fh.read()
    with parsing(path):
        names = [entry["name"] for entry in manifest]
        shapes = [tuple(int(n) for n in entry["shape"]) for entry in manifest]
        offsets = [entry["byte_offset"] for entry in manifest]
    if names != store.names():
        missing = [n for n in store.names() if n not in names]
        unknown = [n for n in names if n not in store.names()]
        raise SchemaError(f"weight manifest does not list the model's parameters "
                          f"in order: missing {missing}, unknown {unknown}")
    starts = np.cumsum([0] + [int(np.prod(shape)) for shape in shapes])
    for name, shape, offset, start in zip(names, shapes, offsets, starts):
        if store[name].data.shape != shape:
            raise ShapeMismatch(f"parameter {name}: stored shape {shape} != "
                                f"model {store[name].data.shape}")
        if offset != 8 * start:
            raise SchemaError(f"parameter {name}: byte offset {offset}, "
                              f"expected {8 * start}")
    if len(blob) != 8 * starts[-1]:
        raise SchemaError(f"weights.bin holds {len(blob)} bytes, the manifest "
                          f"needs {8 * starts[-1]}")
    values = np.frombuffer(blob, dtype="<f8").astype(np.float64)
    for name, shape, start, end in zip(names, shapes, starts, starts[1:]):
        store[name].data = values[start:end].reshape(shape)
