"""Dense/sparse tensor core with reverse-mode autodiff.

Everything is 64-bit floats. The graph is built eagerly: each op returns a
Tensor holding its parents and a closure that routes the upstream gradient.
A closure owns the gradient it is handed and may write to it, so no
closure hands one array to two parents.
Only the op set needed by the grasp model exists. Every network layer is one
`dense` op (matmul, bias row and ReLU on one tape node); a GCN layer feeds it
the product `spmm(A_hat, h)`. No other op broadcasts. `forward_chains` runs
the same layer arithmetic without a tape, for rollouts.

A second CPU, where the process may run on two and BLAS runs one thread,
takes part of the work through the worker thread of `worker`; this is the
one module that hands it work. Dense chains, each large one in two row
halves, a dense layer's gradient products and the parameters in
`adam_step` are `worker.split` between it and the main thread. Every
Tensor and tape node is built on the main thread, and every result keeps
its bits.
"""

from __future__ import annotations

import math
import os
from itertools import accumulate

import numpy as np

from . import worker
from .artifacts import parsing, read_json, write_json
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


def dense(x, w: Tensor, b: Tensor, relu: bool = True) -> Tensor:
    """One network layer: ReLU(x @ w + b), or x @ w + b with relu=False.

    `x` is one input or a list of column parts that together make the
    input, each multiplying its own row block of `w` (a view of the one
    parameter). A part has S rows, or one row that broadcasts over all S:
    its product is computed once and added with the bias. The ReLU maps
    -0.0 and NaN to +0.0.
    """
    return dense_chains([(x, [(w, b, relu)])])[0]


def dense_chains(chains) -> list[Tensor]:
    """Independent chains of `dense` layers: each chain is (x, [(w, b,
    relu), ...]), `x` as in `dense` and each later layer fed the one
    before. Returns each chain's last output, with every layer on the tape
    as `dense` puts it there.

    The chains run as `_run` shares them out; then this thread builds
    every layer's tape node, in chain order.
    """
    inputs = [[_as_tensor(p) for p in (x if isinstance(x, (list, tuple)) else [x])]
              for x, _ in chains]
    plans = _run([([p.data for p in parts], layers)
                  for parts, (_, layers) in zip(inputs, chains)])
    results = []
    for parts, (_, layers, layouts, outs) in zip(inputs, plans):
        for (w, b, relu), layout, out in zip(layers, layouts, outs):
            parts = [_dense_node(parts, w, b, relu, layout, out)]
        results.append(parts[0])
    return results


def forward_chains(chains) -> list[np.ndarray]:
    """Each chain's last output as `dense_chains(chains)` computes it, bit
    for bit, with no Tensor or tape. Each `x` is a list of float64 arrays
    or pairs (x_k, x_k @ w[k]), the product with row block k of the first
    weight w formed by the caller; it is never written to."""
    return [outs[-1] for *_, outs in _run(chains)]


def _layout(shapes, w: np.ndarray, b: np.ndarray):
    """(S, each part's row block of `w`, whether each part has all S rows)
    for parts of `shapes`; raises ShapeMismatch where they do not fit."""
    rows = max((s[0] for s in shapes if len(s) == 2), default=0)
    if (any(len(s) != 2 or s[0] not in (1, rows) for s in shapes)
            or w.ndim != 2 or b.shape != w.shape[1:]
            or sum(s[1] for s in shapes) != w.shape[0]):
        raise ShapeMismatch(f"dense {shapes} @ {w.shape} + {b.shape}")
    edges = list(accumulate((s[1] for s in shapes), initial=0))
    return (rows, [slice(lo, hi) for lo, hi in zip(edges, edges[1:])],
            [s[0] == rows for s in shapes])


# A chain whose S x (its weights' elements) reaches this runs in two row
# halves: a full-size head from S = 203. At S = 128 halves gained nothing
# steady: rollouts took 4.8-7.6 ms in halves, 6.3-6.7 ms whole (2-vCPU VM),
# and two short products split over the threads took 795-953 us against
# 352 us for one alone. The cut is a multiple of 8 rows, where the OpenBLAS
# kernels tried (SkylakeX, Haswell, Sandybridge) keep the whole product's bits.
_HALVE_ELEMENTS = 1 << 25


def _run(chains):
    """(parts, layers, layouts, outputs) of each chain (x, layers), every
    part an (input, formed product or None) pair, once every layer's
    output is filled; raises ShapeMismatch, before any chain runs, where a
    layer does not fit its input. The work items are (plan, rows), each
    chain's rows whole or in two halves from `_HALVE_ELEMENTS` on, and
    they are `worker.split` by size."""
    plans, items, sizes = [], [], []
    for x, layers in chains:
        parts = [p if isinstance(p, tuple) else (p, None) for p in x]
        shapes, layouts = [np.shape(p) for p, _ in parts], []
        for w, b, _ in layers:
            layouts.append(_layout(shapes, w.data, b.data))
            shapes = [(layouts[-1][0], w.data.shape[1])]
        rows, weights = layouts[0][0], sum(w.data.size for w, _, _ in layers)
        plans.append((parts, layers, layouts,
                      [np.empty((rows, w.data.shape[1])) for w, _, _ in layers]))
        cut = rows // 16 * 8 if rows * weights >= _HALVE_ELEMENTS else 0
        for lo, hi in ((0, cut), (cut, rows)) if cut else ((0, rows),):
            items.append((plans[-1], slice(lo, hi)))
            sizes.append((hi - lo) * weights)
    worker.split(_forward_chains, items, sizes)
    return plans


def _forward_chains(items) -> None:
    """Write rows `rows` of every layer output of each planned chain (plan,
    rows). Dense layers are row-local, so those rows of the chain's inputs
    are all they read. A layer sums its full parts' products, adds the
    bias plus its one-row parts' products, then applies the ReLU. A formed
    product is used as given."""
    for (parts, layers, layouts, outs), rows in items:
        h = [(x[rows], formed if formed is None else formed[rows]) if is_full
             else (x, formed) for (x, formed), is_full in zip(parts, layouts[0][2])]
        for (w, b, relu), (_, blocks, full), out in zip(layers, layouts, outs):
            out, acc, shift = out[rows], None, b.data
            for (x, formed), k, is_full in zip(h, blocks, full):
                if not is_full:
                    shift = shift + (x @ w.data[k] if formed is None else formed)
                elif formed is not None:
                    acc = formed if acc is None else np.add(acc, formed, out=out)
                elif acc is out:
                    out += x @ w.data[k]
                else:   # the first computed product goes to `out`; a + b is b + a
                    np.matmul(x, w.data[k], out=out)
                    acc = out if acc is None else np.add(out, acc, out=out)
            np.add(acc, shift, out=out)
            if relu:
                np.fmax(out, 0.0, out=out)     # not fmax(0.0, out): that keeps -0.0
            h = [(out, None)]


def _dense_node(parts, w: Tensor, b: Tensor, relu: bool, layout,
                out: np.ndarray) -> Tensor:
    """The tape node of a `dense` layer on the Tensors `parts`, whose
    forward gave `out`."""
    _, blocks, full = layout

    def back(g):
        if relu:
            np.multiply(g, out > 0, out=g)
        g_sum = g.sum(axis=0)
        g_w = np.empty_like(w.data)
        g_ks = [g if is_full else g_sum[None] for is_full in full]
        products = [(p.data.T, g_k, g_w[k])
                    for p, k, g_k in zip(parts, blocks, g_ks)]
        g_x = []
        for p, k, g_k in zip(parts, blocks, g_ks):
            # constant parts (the cloud, the head's distances) get no gradient
            if p.requires_grad:
                g_p = np.empty(p.data.shape)
                g_x.append((p, g_p))
                products.append((g_k, w.data[k].T, g_p))
        # each product's size is its multiply-adds, m * k * n
        worker.split(_matmuls, products, [a.size * b.shape[1] for a, b, _ in products])
        return [(w, g_w), (b, g_sum)] + g_x

    return Tensor(out, _parents=(*parts, w, b), _backward=back)


def _matmuls(products) -> None:
    for a, b, out in products:
        np.matmul(a, b, out=out)


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
        return ((a, g), (b, g.copy()))

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


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def bce_with_pos_weight(logits, targets, pos_weight: float = 1.0) -> Tensor:
    """Sum over the logit columns of each column's mean binary cross-entropy
    on logits, positives weighted by pos_weight.

    `logits` is a tensor or a list of tensors; their columns, in order (a
    1-D tensor is one column), pair with the columns of `targets` (1-D for
    one column). The column means add left to right. Uses the log-sum-exp
    form, so large-magnitude logits stay finite.
    """
    parents = [_as_tensor(t) for t in
               (logits if isinstance(logits, (list, tuple)) else [logits])]
    y = np.asarray(targets, dtype=np.float64)
    y = y[:, None] if y.ndim == 1 else y
    views = [p.data[:, None] if p.data.ndim == 1 else p.data for p in parents]
    if (y.ndim != 2 or any(v.ndim != 2 or len(v) != len(y) for v in views)
            or sum(v.shape[1] for v in views) != y.shape[1]):
        raise ShapeMismatch(f"targets {np.shape(targets)} do not match logits "
                            f"{[p.data.shape for p in parents]}")
    if not np.isin(y, (0.0, 1.0)).all():
        raise ShapeMismatch("targets must be binary")
    # (parent, column, logits) of every logit column, in target-column order
    cols = [(i, j, v[:, j]) for i, v in enumerate(views) for j in range(v.shape[1])]
    means = []
    for k, (_, _, x) in enumerate(cols):
        softplus_negx = np.logaddexp(0.0, -x)
        means.append((pos_weight * y[:, k] * softplus_negx
                      + (1.0 - y[:, k]) * (x + softplus_negx)).mean())

    def back(g):
        grads = [np.empty_like(v) for v in views]
        for k, (i, j, x) in enumerate(cols):
            s = _sigmoid(x)
            grads[i][:, j] = (pos_weight * y[:, k] * (s - 1.0)
                              + (1.0 - y[:, k]) * s) * (float(g) / len(y))
        return tuple((p, gx.reshape(p.data.shape)) for p, gx in zip(parents, grads))

    return Tensor(sum(means), _parents=tuple(parents), _backward=back)


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
    """Named parameters in insertion order plus shared Adam state.

    The Adam moments appear at the first `adam_step`, so a store that is
    only loaded and run forward holds none.
    """

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
    """Bias-corrected Adam update over all parameters; zeroes grads after.

    The parameters, in store order, are `worker.split` by element count
    between the worker thread and this one."""
    for name, p in store.items():
        if p.grad is None:
            raise MissingGradient(f"parameter {name} has no gradient")
    store.step_count += 1
    t = store.step_count
    c1 = 1.0 - _BETA1 ** t
    c2 = 1.0 - _BETA2 ** t
    for name, p in store.items():
        if name not in store._m:        # the moments start at zero
            store._m[name] = np.zeros(p.data.shape)
            store._v[name] = np.zeros(p.data.shape)
    params = [(p.data, p.grad, store._m[name], store._v[name])
              for name, p in store.items()]
    worker.split(_adam_update, params, [x.size for x, _, _, _ in params], lr, c1, c2)
    store.zero_grad()


def _adam_update(params, lr, c1, c2) -> None:
    """Adam's update of each (value, gradient, m, v) in place, its
    temporaries in one buffer for the largest gradient."""
    scratch = np.empty(max((g.size for _, g, _, _ in params), default=0))
    for x, g, m, v in params:
        m *= _BETA1
        v *= _BETA2
        g2 = np.multiply(g, g, out=scratch[:g.size].reshape(g.shape))
        g2 *= (1.0 - _BETA2)
        v += g2
        g *= (1.0 - _BETA1)
        m += g
        denom = np.divide(v, c2, out=g2)    # reuse the g*g buffer
        np.sqrt(denom, out=denom)
        denom += _EPS
        np.divide(m, denom, out=denom)
        denom *= lr / c1
        x -= denom


# ---------------------------------------------------------------------------
# weight files
# ---------------------------------------------------------------------------

def save_weights(store: ParameterStore, directory) -> None:
    """manifest.json and weights.bin: every parameter's little-endian
    float64 values in store order, each written from its own array."""
    os.makedirs(directory, exist_ok=True)
    manifest = []
    offset = 0
    for name, p in store.items():
        manifest.append({"name": name, "shape": list(p.data.shape),
                         "byte_offset": offset})
        offset += 8 * p.data.size
    write_json(os.path.join(directory, "manifest.json"), manifest)
    with open(os.path.join(directory, "weights.bin"), "wb") as fh:
        for _, p in store.items():
            fh.write(np.ascontiguousarray(p.data, dtype="<f8"))


def check_weight_files(directory, shapes: dict) -> list[int]:
    """Check `save_weights` files against the parameter `shapes` (name ->
    shape, in store order) without reading the blob or allocating.

    The manifest must list exactly those parameters, in order, with
    matching shapes and contiguous offsets, and weights.bin must hold
    exactly the bytes they need. Returns each parameter's first value
    index, and the total after them.
    """
    path = os.path.join(directory, "manifest.json")
    manifest = read_json(path)
    blob_bytes = os.path.getsize(os.path.join(directory, "weights.bin"))
    with parsing(path):
        names = [entry["name"] for entry in manifest]
        stored = [tuple(int(n) for n in entry["shape"]) for entry in manifest]
        offsets = [entry["byte_offset"] for entry in manifest]
    if names != list(shapes):
        missing = [n for n in shapes if n not in names]
        unknown = [n for n in names if n not in shapes]
        raise SchemaError(f"weight manifest does not list the model's parameters "
                          f"in order: missing {missing}, unknown {unknown}")
    starts = [0]
    for name, shape, offset in zip(names, stored, offsets):
        if tuple(shapes[name]) != shape:
            raise ShapeMismatch(f"parameter {name}: stored shape {shape} != "
                                f"model {tuple(shapes[name])}")
        if offset != 8 * starts[-1]:
            raise SchemaError(f"parameter {name}: byte offset {offset}, "
                              f"expected {8 * starts[-1]}")
        starts.append(starts[-1] + math.prod(shape))
    if blob_bytes != 8 * starts[-1]:
        raise SchemaError(f"weights.bin holds {blob_bytes} bytes, the manifest "
                          f"needs {8 * starts[-1]}")
    return starts


def load_weights(store: ParameterStore, directory) -> None:
    """Overwrite every parameter from `save_weights` files, or none: the
    files must pass `check_weight_files`, every value finite."""
    names = store.names()
    starts = check_weight_files(
        directory, {name: p.data.shape for name, p in store.items()})
    # one array, which every parameter views; no copy where "<f8" is native
    values = np.fromfile(os.path.join(directory, "weights.bin"),
                         dtype="<f8").astype(np.float64, copy=False)
    for name, start, end in zip(names, starts, starts[1:]):
        # a NaN would pass the ReLU as 0.0 and hide the damage
        if not np.isfinite(values[start:end]).all():
            raise SchemaError(f"{directory}: parameter {name} holds a "
                              f"non-finite value")
    for name, start, end in zip(names, starts, starts[1:]):
        store[name].data = values[start:end].reshape(store[name].data.shape)
