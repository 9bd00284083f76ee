"""Autodiff core: every op gradient-checked against central differences."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geomatch import diffnet as dn
from geomatch import errors
from geomatch.geometry import PointCloud, knn_graph
from geomatch.rng import Rng
from geomatch.sparse import SparseCOO
from losses import scalar_loss


def finite_diff_grad(fn, tensor, eps=1e-6):
    """Central-difference gradient of scalar fn() w.r.t. tensor.data."""
    grad = np.zeros_like(tensor.data)
    flat = tensor.data.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + eps
        up = fn().item()
        flat[i] = old - eps
        down = fn().item()
        flat[i] = old
        gflat[i] = (up - down) / (2 * eps)
    return grad


def check_grads(fn, tensors, rtol=1e-4):
    loss = fn()
    dn.backward(loss)
    for t in tensors:
        fd = finite_diff_grad(fn, t)
        scale = max(np.abs(fd).max(), 1e-10)
        assert t.grad is not None
        assert np.abs(t.grad - fd).max() / scale < rtol


def random_sparse(s, rng):
    """A_hat of a 2-NN graph over random points."""
    return knn_graph(PointCloud(rng.normal(size=(s, 3))), 2).normalized_adjacency


def head(x, layers):
    """Stack of (w, b) pairs: ReLU between layers, final layer linear."""
    last = len(layers) - 1
    for i, (w, b) in enumerate(layers):
        x = dn.dense(x, w, b, relu=i < last)
    return x


class TestBasicOps:
    def test_sum_grad_ones(self):
        x = dn.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        dn.backward(scalar_loss(x))
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_square_sum_analytic(self):
        x = dn.Tensor(np.array([1.0, 2.0]), requires_grad=True)
        dn.backward(scalar_loss(x, square=True))
        assert np.allclose(x.grad, [2.0, 4.0])

    def test_matmul_hand_case(self):
        out = dn.matmul(dn.Tensor([[1.0, 2.0]]), dn.Tensor([[3.0], [4.0]]))
        assert out.data.tolist() == [[11.0]]

    def test_linear_identity(self):
        x = dn.Tensor(np.arange(6.0).reshape(2, 3) - 3.0)
        out = dn.dense(x, dn.Tensor(np.eye(3)), dn.Tensor(np.zeros(3)), relu=False)
        assert np.array_equal(out.data, x.data)

    def test_shape_mismatch(self):
        with pytest.raises(errors.ShapeMismatch):
            dn.matmul(dn.Tensor(np.zeros((2, 3))), dn.Tensor(np.zeros((2, 3))))

    def test_gradients_random_ops(self, rng_np):
        for _ in range(20):
            a = dn.Tensor(rng_np.normal(size=(4, 3)), requires_grad=True)
            b = dn.Tensor(rng_np.normal(size=(3, 5)), requires_grad=True)
            c = dn.Tensor(rng_np.normal(size=5), requires_grad=True)

            def fn():
                return scalar_loss(dn.dense(a, b, c), square=True, mean=True)

            check_grads(fn, [a, b, c])
            a.grad = b.grad = c.grad = None

    def test_gather_concat_grads(self, rng_np):
        x = dn.Tensor(rng_np.normal(size=(6, 4)), requires_grad=True)
        idx = np.array([0, 2, 2, 5])
        const = rng_np.normal(size=(4, 2))

        def fn():
            g = dn.gather_rows(x, idx)
            cat = dn.concat_cols([g, dn.Tensor(const)])
            return scalar_loss(cat, square=True, mean=True)

        check_grads(fn, [x])

    def test_transpose_grads(self, rng_np):
        x = dn.Tensor(rng_np.normal(size=(3, 4)), requires_grad=True)

        def fn():
            return scalar_loss(dn.matmul(dn.transpose(x), x), square=True)

        check_grads(fn, [x])

    def test_spmm_grads(self, rng_np):
        sp = random_sparse(6, rng_np)
        h = dn.Tensor(rng_np.normal(size=(6, 3)), requires_grad=True)

        def fn():
            return scalar_loss(dn.spmm(sp, h), square=True, mean=True)

        check_grads(fn, [h])

    def test_scalar_arith(self):
        a = dn.Tensor(np.array(2.0), requires_grad=True)
        b = dn.Tensor(np.array(3.0), requires_grad=True)
        loss = 0.5 * a + b * 2.0
        dn.backward(loss)
        assert loss.item() == pytest.approx(7.0)
        assert a.grad == pytest.approx(0.5)
        assert b.grad == pytest.approx(2.0)

    def test_add_of_two_relu_layers(self, rng_np):
        # both ReLU layers mask their upstream gradient in place, so each
        # parent of the add must get its own array
        # opposite weights: each layer keeps what the other clips
        x = dn.Tensor(rng_np.normal(size=(8, 3)))
        w1 = dn.Tensor(rng_np.normal(size=(3, 6)), requires_grad=True)
        w2 = dn.Tensor(-w1.data, requires_grad=True)
        b1, b2 = (dn.Tensor(0.1 * rng_np.normal(size=6), requires_grad=True)
                  for _ in range(2))

        def fn():
            return scalar_loss(dn.add(dn.dense(x, w1, b1), dn.dense(x, w2, b2)))

        check_grads(fn, [w1, b1, w2, b2])

    def test_reused_node_accumulates(self):
        x = dn.Tensor(np.array([1.0, 2.0]), requires_grad=True)
        y = dn.add(x, x)
        dn.backward(scalar_loss(y))
        assert np.allclose(x.grad, [2.0, 2.0])


class TestBce:
    def test_ln2_cases(self):
        logits = dn.Tensor(np.zeros(5))
        assert dn.bce_with_pos_weight(logits, np.ones(5), 1.0).item() == \
            pytest.approx(np.log(2))
        assert dn.bce_with_pos_weight(logits, np.ones(5), 500.0).item() == \
            pytest.approx(500 * np.log(2))
        assert dn.bce_with_pos_weight(logits, np.zeros(5), 500.0).item() == \
            pytest.approx(np.log(2))

    def test_matches_direct_implementation(self, rng_np):
        # independent direct formula with explicit sigmoids
        for _ in range(50):
            x = rng_np.normal(scale=3, size=12)
            y = (rng_np.uniform(size=12) > 0.5).astype(float)
            got = dn.bce_with_pos_weight(dn.Tensor(x), y, 1.0).item()
            p = 1.0 / (1.0 + np.exp(-x))
            direct = -np.mean(y * np.log(p) + (1 - y) * np.log(1 - p))
            assert abs(got - direct) < 1e-12

    def test_extreme_logits_finite(self):
        x = dn.Tensor(np.array([1000.0, -1000.0]))
        val = dn.bce_with_pos_weight(x, np.array([0.0, 1.0]), 500.0).item()
        assert np.isfinite(val)

    def test_gradients(self, rng_np):
        for pw in (1.0, 7.0, 500.0):
            x = dn.Tensor(rng_np.normal(size=(4, 3)), requires_grad=True)
            y = (rng_np.uniform(size=(4, 3)) > 0.6).astype(float)

            def fn():
                return dn.bce_with_pos_weight(x, y, pw)

            check_grads(fn, [x])

    def test_rejects_nonbinary(self):
        with pytest.raises(errors.ShapeMismatch):
            dn.bce_with_pos_weight(dn.Tensor(np.zeros(3)), np.array([0, 0.5, 1]))
        y = np.zeros((3, 2))
        y[1, 1] = 2.0
        with pytest.raises(errors.ShapeMismatch):
            dn.bce_with_pos_weight([dn.Tensor(np.zeros((3, 1)))] * 2, y)

    def test_rejects_column_and_row_mismatch(self):
        heads = [dn.Tensor(np.zeros((4, 1))) for _ in range(3)]
        for logits, y in ((heads, np.zeros((4, 2))), (heads, np.zeros((4, 4))),
                          (heads, np.zeros(4)), (heads, np.zeros((5, 3))),
                          (dn.Tensor(np.zeros((4, 3))), np.zeros((4, 2))),
                          (dn.Tensor(np.zeros((4, 3))), np.zeros(12)),
                          (dn.Tensor(np.zeros(4)), np.zeros(5)),
                          (dn.Tensor(np.zeros((4, 1, 1))), np.zeros(4)),
                          (dn.Tensor(np.zeros(4)), np.zeros((4, 1, 1)))):
            with pytest.raises(errors.ShapeMismatch):
                dn.bce_with_pos_weight(logits, y)


def column_bce_reference(columns, owners, shapes, targets, pos_weight, g):
    """Per-column BCE as a tape of one column cut and one mean BCE per
    column, its terms added left to right: the loss and each parent's
    gradient, the column gradients summed in zero-padded arrays.

    `columns[k]` is logit column k, cut from parent `owners[k]` (of shape
    `shapes[owners[k]]`) at index j; `targets[:, k]` is its target."""
    loss, grads = None, [None] * len(shapes)
    for k, ((i, j), x) in enumerate(zip(owners, columns)):
        y = targets[:, k]
        softplus_negx = np.logaddexp(0.0, -x)
        term = (pos_weight * y * softplus_negx
                + (1.0 - y) * (x + softplus_negx)).mean()
        loss = term if loss is None else loss + term
        s = np.empty_like(x)
        pos = x >= 0
        s[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        e = np.exp(x[~pos])
        s[~pos] = e / (1.0 + e)
        col = (pos_weight * y * (s - 1.0) + (1.0 - y) * s) * (g / x.size)
        if len(shapes[i]) == 1:
            padded = col
        else:
            padded = np.zeros(shapes[i])
            padded[:, j] = col
        grads[i] = padded if grads[i] is None else grads[i] + padded
    return loss, grads


class TestColumnBce:
    """`bce_with_pos_weight` sums column means over its logit columns, bit
    for bit as one op per column would."""

    # one (S, K) tensor, a list of (S, 1) tensors, one 1-D tensor and a
    # list mixing them; None stands for a 1-D tensor
    @pytest.mark.parametrize("widths, as_list", [([6], False), ([1] * 5, True),
                                                 ([None], False),
                                                 ([2, None, 1, 3], True)])
    @pytest.mark.parametrize("pos_weight", [1.0, 200.0, 500.0])
    def test_bytes_match_per_column_reference(self, widths, as_list, pos_weight,
                                              rng_np):
        s, c = 37, 0.5
        parents = [dn.Tensor(rng_np.normal(scale=4, size=(s,) if w is None else (s, w)),
                             requires_grad=True) for w in widths]
        parents[0].data[0, ...] = 800.0     # saturated sigmoids
        parents[0].data[1, ...] = -800.0
        owners = [(i, j) for i, w in enumerate(widths) for j in range(w or 1)]
        columns = [parents[i].data if widths[i] is None else parents[i].data[:, j]
                   for i, j in owners]
        y = (rng_np.uniform(size=(s, len(owners))) > 0.7).astype(float)
        logits = parents if as_list else parents[0]
        if widths == [None]:
            y = y[:, 0]
        loss = dn.bce_with_pos_weight(logits, y, pos_weight)
        dn.backward(dn.scale(loss, c))
        want, grads = column_bce_reference(
            columns, owners, [p.data.shape for p in parents],
            y.reshape(s, -1), pos_weight, c)
        assert loss.data.tobytes() == np.float64(want).tobytes()
        for p, gp in zip(parents, grads):
            assert p.grad.shape == gp.shape
            assert p.grad.tobytes() == gp.tobytes()

    def test_gradients(self, rng_np):
        parents = [dn.Tensor(rng_np.normal(scale=2, size=shape), requires_grad=True)
                   for shape in ((5, 2), (5,), (5, 1), (5, 3))]
        y = (rng_np.uniform(size=(5, 7)) > 0.5).astype(float)

        def fn():
            return dn.bce_with_pos_weight(parents, y, 30.0)

        check_grads(fn, parents)


class TestDense:
    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 5), st.integers(1, 4),
           st.integers(1, 4), st.booleans(), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_grads_match_central_differences(self, seed, rows, fan_in, fan_out,
                                             relu, x_grad):
        rng = np.random.default_rng(seed)
        x = dn.Tensor(rng.normal(size=(rows, fan_in)), requires_grad=x_grad)
        w = dn.Tensor(rng.normal(size=(fan_in, fan_out)), requires_grad=True)
        b = dn.Tensor(rng.normal(size=fan_out), requires_grad=True)
        # the offset keeps the upstream gradient nonzero where ReLU clips
        offset = dn.Tensor(rng.normal(size=(rows, fan_out)))

        def fn():
            return scalar_loss(dn.dense(x, w, b, relu=relu) + offset,
                               square=True, mean=True)

        check_grads(fn, [x, w, b] if x_grad else [w, b])
        if not x_grad:
            assert x.grad is None

    def test_constant_input_gets_no_gradient(self, rng_np):
        x = dn.Tensor(rng_np.normal(size=(4, 3)))
        w = dn.Tensor(rng_np.normal(size=(3, 2)), requires_grad=True)
        b = dn.Tensor(np.zeros(2), requires_grad=True)
        out = dn.dense(x, w, b)
        assert [p for p, _ in out._backward(np.ones((4, 2)))] == [w, b]

    @pytest.mark.parametrize("relu", [True, False])
    def test_forward_matches_numpy(self, rng_np, relu):
        x, w, b = (rng_np.normal(size=(7, 5)), rng_np.normal(size=(5, 3)),
                   rng_np.normal(size=3))
        z = x @ w + b
        want = np.where(z > 0, z, 0.0) if relu else z
        got = dn.dense(dn.Tensor(x), dn.Tensor(w), dn.Tensor(b), relu=relu).data
        assert np.array_equal(got, want)

    def test_relu_bits_on_ieee_special_values(self):
        # -1e-200 * 1e-200 underflows: a two-term product gives -0.0, and a
        # -0.0 or +0.0 bias keeps or flips its sign; +-5e-324 biases cancel
        # subnormal products to +0.0; 1e308 overflows to inf
        x = np.array([[-1e-200, -1e-200], [1e-200, 1e-200], [-0.0, -0.0],
                      [np.nan, 1.0], [np.inf, 1.0], [-np.inf, 1.0],
                      [1e308, 1e308], [-1e308, -1e308], [5e-324, 0.0],
                      [-5e-324, 0.0], [2.0, -3.0], [0.5, 0.25]])
        w = np.repeat([[1.0, 1e-200], [1.0, 1e-200]], 4, axis=1)
        b = np.tile([-0.0, 0.0, -5e-324, 5e-324], 2)
        with np.errstate(over="ignore", invalid="ignore"):
            z = x @ w + b
            got = dn.dense(dn.Tensor(x), dn.Tensor(w), dn.Tensor(b)).data
        assert (np.signbit(z) & (z == 0)).any(), "no -0.0 pre-activation"
        assert np.isnan(z).any() and np.isposinf(z).any() and np.isneginf(z).any()
        subnormal = (z != 0) & (np.abs(z) < np.finfo(float).tiny)
        assert (subnormal & (z > 0)).any() and (subnormal & (z < 0)).any()
        assert got.tobytes() == np.where(z > 0, z, 0.0).tobytes()

    @pytest.mark.parametrize("w_shape, b_len", [((4, 3), 3), ((5, 3), 2)],
                             ids=["inner-dim", "bias-length"])
    def test_shape_mismatch(self, w_shape, b_len):
        with pytest.raises(errors.ShapeMismatch):
            dn.dense(dn.Tensor(np.zeros((2, 5))), dn.Tensor(np.zeros(w_shape)),
                     dn.Tensor(np.zeros(b_len)))

    @pytest.mark.parametrize("shapes", [[(4, 1), (1, 2)], [(4, 2), (4, 3)],
                                        [(4, 2), (3, 2)], [(4, 2), (2,)]],
                             ids=["too-narrow", "too-wide", "rows", "1-d"])
    def test_parts_shape_mismatch(self, shapes):
        # w has 4 rows: the parts' widths must add up to them, and each part
        # is 2-D with S rows or one
        with pytest.raises(errors.ShapeMismatch):
            dn.dense([np.zeros(s) for s in shapes], dn.Tensor(np.zeros((4, 3))),
                     dn.Tensor(np.zeros(3)))


class TestDenseParts:
    @given(st.integers(0, 2 ** 31 - 1), st.integers(2, 4), st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_grads_match_central_differences(self, seed, rows, relu):
        # a gradient-carrying (S, k) part, a broadcast (1, k) row and a
        # constant (S, k) array, as a head's first layer takes them
        rng = np.random.default_rng(seed)
        x = dn.Tensor(rng.normal(size=(rows, 3)), requires_grad=True)
        row = dn.Tensor(rng.normal(size=(1, 2)), requires_grad=True)
        const = dn.Tensor(rng.normal(size=(rows, 2)))
        w = dn.Tensor(rng.normal(size=(7, 3)), requires_grad=True)
        b = dn.Tensor(rng.normal(size=3), requires_grad=True)
        offset = dn.Tensor(rng.normal(size=(rows, 3)))

        def fn():
            return scalar_loss(dn.dense([x, row, const], w, b, relu=relu) + offset,
                               square=True, mean=True)

        check_grads(fn, [x, row, w, b])
        assert const.grad is None
        out = dn.dense([x, row, const], w, b, relu=relu)
        assert const not in [p for p, _ in out._backward(np.ones((rows, 3)))]

    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 6),
           st.lists(st.tuples(st.integers(1, 5), st.sampled_from(["full", "row"])),
                    min_size=1, max_size=4),
           st.integers(1, 5), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_matches_concatenated_input(self, seed, rows, specs, fan_out, relu):
        rng = np.random.default_rng(seed)
        if all(kind == "row" for _, kind in specs):
            rows = 1                # no part sets a larger row count
        parts = [rng.normal(size=(rows if kind == "full" else 1, k))
                 for k, kind in specs]
        w = dn.Tensor(rng.normal(size=(sum(k for k, _ in specs), fan_out)))
        b = dn.Tensor(rng.normal(size=fan_out))
        g = rng.normal(size=(rows, fan_out))
        tensors = [dn.Tensor(p, requires_grad=True) for p in parts]
        whole = dn.Tensor(np.concatenate(
            [np.broadcast_to(p, (rows, p.shape[1])) for p in parts], axis=1),
            requires_grad=True)
        got = dn.dense(tensors, w, b, relu=relu)
        want = dn.dense(whole, w, b, relu=relu)
        got_grads = {id(t): gt for t, gt in got._backward(g)}
        want_grads = {id(t): gt for t, gt in want._backward(g)}

        def close(a, c):
            return np.allclose(a, c, rtol=1e-12, atol=1e-12)

        assert close(got.data, want.data)
        assert close(got_grads[id(w)], want_grads[id(w)])
        assert close(got_grads[id(b)], want_grads[id(b)])
        ends = np.cumsum([k for k, _ in specs])
        for t, end, (k, kind) in zip(tensors, ends, specs):
            block = want_grads[id(whole)][:, end - k:end]
            assert close(got_grads[id(t)],
                         block if kind == "full" else block.sum(0, keepdims=True))

    def test_one_part_list_is_the_plain_call(self, rng_np):
        x, w, b = (rng_np.normal(size=(5, 4)), rng_np.normal(size=(4, 3)),
                   rng_np.normal(size=3))
        one = dn.dense([x], dn.Tensor(w), dn.Tensor(b)).data
        assert one.tobytes() == dn.dense(x, dn.Tensor(w), dn.Tensor(b)).data.tobytes()


class TestDenseChains:
    @staticmethod
    def chains(rng, n_chains, rows=6):
        """Chains of 1 to 3 layers; each first layer takes a shared input,
        a one-row part of its own and a constant part."""
        shared = dn.Tensor(rng.normal(size=(rows, 3)), requires_grad=True)
        out = []
        for c in range(n_chains):
            widths = [3 + 2 + 1, *rng.integers(1, 5, size=1 + c % 3)]
            layers = [(dn.Tensor(rng.normal(size=(a, z)), requires_grad=True),
                       dn.Tensor(rng.normal(size=z), requires_grad=True),
                       i < len(widths) - 2)
                      for i, (a, z) in enumerate(zip(widths, widths[1:]))]
            x = [shared, dn.Tensor(rng.normal(size=(1, 2)), requires_grad=True),
                 rng.normal(size=(rows, 1))]
            out.append((x, layers))
        return out

    @pytest.mark.parametrize("n_chains", [1, 2, 5])
    def test_same_bits_and_tape_as_dense(self, n_chains):
        """Each chain's outputs and every gradient match `dense` called layer
        by layer, bit for bit."""
        results = []
        for chained in (True, False):
            chains = self.chains(np.random.default_rng(n_chains), n_chains)
            if chained:
                heads = dn.dense_chains(chains)
            else:
                heads = []
                for h, layers in chains:
                    for w, b, relu in layers:
                        h = dn.dense(h, w, b, relu=relu)
                    heads.append(h)
            loss = None
            for h in heads:
                term = scalar_loss(h, square=True)
                loss = term if loss is None else loss + term
            dn.backward(loss)
            leaves = [chains[0][0][0]] + [t for x, layers in chains
                                           for t in [x[1], *(p for w, b, _ in layers
                                                             for p in (w, b))]]
            results.append(([h.data.tobytes() for h in heads],
                            [t.grad.tobytes() for t in leaves]))
        assert results[0] == results[1]

    @pytest.mark.parametrize("n_chains", [1, 2, 5])
    @pytest.mark.parametrize("formed", [(), (0,), (1,), (2,), (0, 1, 2)],
                             ids=["none", "full", "row", "const", "all"])
    def test_forward_only_same_bits(self, monkeypatch, n_chains, formed):
        """`forward_chains` gives each chain's `dense_chains` output bytes,
        with the first layer's products of the parts `formed` formed by the
        caller, builds no Tensor and writes no formed product."""
        chains = self.chains(np.random.default_rng(n_chains), n_chains)
        want = [h.data.tobytes() for h in dn.dense_chains(chains)]
        plain, products = [], []
        for x, layers in chains:
            x = [p.data if isinstance(p, dn.Tensor) else p for p in x]
            edges = np.cumsum([0] + [p.shape[1] for p in x])
            w = layers[0][0].data
            for k in formed:
                products.append(x[k] @ w[edges[k]:edges[k + 1]])
                x[k] = (x[k], products[-1])
            plain.append((x, layers))
        before = [p.copy() for p in products]
        monkeypatch.setattr(dn.Tensor, "__init__",
                            lambda *a, **kw: pytest.fail("built a Tensor"))
        assert [h.tobytes() for h in dn.forward_chains(plain)] == want
        assert all(a.tobytes() == b.tobytes() for a, b in zip(products, before))

    def test_forward_only_lone_formed_part(self, rng_np):
        x, w, b = (rng_np.normal(size=(5, 4)), rng_np.normal(size=(4, 3)),
                   rng_np.normal(size=3))
        product = x @ w
        before = product.copy()
        layers = [(dn.Tensor(w), dn.Tensor(b), True)]
        got = dn.forward_chains([([(x, product)], layers)])[0]
        assert got.tobytes() == dn.dense(x, *layers[0]).data.tobytes()
        assert product.tobytes() == before.tobytes()

    def test_inner_shape_mismatch_raised_before_any_work(self, rng_np,
                                                         monkeypatch):
        def no_work(*args):
            pytest.fail("a chain ran before its shapes were checked")

        monkeypatch.setattr(dn, "_forward_chains", no_work)
        x = rng_np.normal(size=(4, 3))
        good = (x, [(dn.Tensor(np.ones((3, 2))), dn.Tensor(np.ones(2)), True)])
        bad = (x, [(dn.Tensor(np.ones((3, 2))), dn.Tensor(np.ones(2)), True),
                   (dn.Tensor(np.ones((3, 1))), dn.Tensor(np.ones(1)), False)])
        with pytest.raises(errors.ShapeMismatch):
            dn.dense_chains([good, bad])

    def test_no_chains(self):
        assert dn.dense_chains([]) == []


class TestRowHalves:
    """A chain whose rows times weight elements reach `dn._HALVE_ELEMENTS`
    runs as two row halves cut at a multiple of 8 rows, and keeps the bits
    of the chain run over whole rows. The shapes are the full-size
    network's: five heads (64 + 64 + 5 -> 256 -> 256 -> 256 -> 1) and the
    encoder's dense layers."""

    @staticmethod
    def layers(rng, widths):
        last = len(widths) - 2
        return [(dn.Tensor(rng.normal(scale=a ** -0.5, size=(a, z))),
                 dn.Tensor(rng.normal(scale=0.1, size=z)), i < last)
                for i, (a, z) in enumerate(zip(widths, widths[1:]))]

    def chains(self, rng, rows):
        """Five heads and the encoder's 3 -> 256, 256 -> 256 and 256 -> 512
        layers, as `dense_chains` chains."""
        v_obj = rng.normal(size=(rows, 64))
        heads = [([v_obj, rng.normal(size=(1, 64)), rng.normal(size=(rows, 5))],
                  self.layers(rng, [133, 256, 256, 256, 1])) for _ in range(5)]
        encoder = [([rng.normal(size=(rows, a))], self.layers(rng, [a, z]))
                   for a, z in ((3, 256), (256, 256), (256, 512))]
        return heads + encoder

    @staticmethod
    def run(chains):
        """The bytes of `dense_chains`, and of `forward_chains` with the
        products of the first two parts formed over whole rows, as
        `inference.pair_inputs` forms them."""
        trained = [h.data.tobytes() for h in dn.dense_chains(chains)]
        formed = []
        for x, layers in chains:
            w, edges = layers[0][0].data, np.cumsum([0] + [p.shape[1] for p in x])
            formed.append(([(p, p @ w[lo:hi]) if k < 2 else p for k, (p, lo, hi)
                            in enumerate(zip(x, edges, edges[1:]))], layers))
        return trained, [h.tobytes() for h in dn.forward_chains(formed)]

    @pytest.mark.parametrize("rows, cut", [(2048, 1024), (1001, 496)])
    def test_same_bytes_as_whole_rows(self, monkeypatch, rows, cut):
        chains = self.chains(np.random.default_rng(rows), rows)
        seen = []
        job = dn._forward_chains
        monkeypatch.setattr(dn, "_forward_chains", lambda items: (
            seen.extend((id(plan[1]), r.start, r.stop) for plan, r in items),
            job(items))[1])
        halves = self.run(chains)
        for _, layers in chains:
            whole = rows * sum(w.data.size for w, _, _ in layers) < dn._HALVE_ELEMENTS
            want = [(0, rows)] if whole else [(0, cut), (cut, rows)]
            # each chain once in `dense_chains`, once in `forward_chains`
            assert [(a, b) for key, a, b in seen if key == id(layers)] == want * 2
        assert len(seen) > 2 * len(chains)      # some chains ran in halves
        monkeypatch.setattr(dn, "_HALVE_ELEMENTS", 1 << 62)
        assert self.run(chains) == halves


class TestGcnLayer:
    def test_identity_propagation(self):
        s = 4
        adj = SparseCOO(np.arange(s)[:, None], np.ones((s, 1)))
        h = dn.Tensor(np.abs(np.arange(12.0)).reshape(4, 3))
        out = dn.dense(dn.spmm(adj, h), dn.Tensor(np.eye(3)), dn.Tensor(np.zeros(3)))
        assert np.array_equal(out.data, h.data)

    def test_grads(self, rng_np):
        sp = random_sparse(5, rng_np)
        h = dn.Tensor(rng_np.normal(size=(5, 3)), requires_grad=True)
        w = dn.Tensor(rng_np.normal(size=(3, 4)), requires_grad=True)
        b = dn.Tensor(rng_np.normal(size=4), requires_grad=True)
        y = (rng_np.uniform(size=(5, 4)) > 0.5).astype(float)

        def fn():
            return dn.bce_with_pos_weight(dn.dense(dn.spmm(sp, h), w, b), y, 3.0)

        check_grads(fn, [h, w, b])


class TestMlp:
    def test_zero_weights_zero_logits(self):
        x = dn.Tensor(np.ones((3, 4)))
        layers = [(dn.Tensor(np.zeros((4, 5))), dn.Tensor(np.zeros(5))),
                  (dn.Tensor(np.zeros((5, 1))), dn.Tensor(np.zeros(1)))]
        assert np.array_equal(head(x, layers).data, np.zeros((3, 1)))

    def test_single_hidden_unit_manual(self):
        # relu(x*2 - 1) * 3 + 0.5
        x = dn.Tensor(np.array([[1.0], [0.2]]))
        layers = [(dn.Tensor([[2.0]]), dn.Tensor([-1.0])),
                  (dn.Tensor([[3.0]]), dn.Tensor([0.5]))]
        out = head(x, layers)
        assert np.allclose(out.data, [[3.5], [0.5]])


class TestGlorotInit:
    def test_bounds_256(self):
        t = dn.glorot_init((256, 256), Rng(0).randoms(256 * 256))
        limit = np.sqrt(6.0 / 512.0)
        assert limit == pytest.approx(0.10825, abs=1e-5)
        assert np.abs(t.data).max() <= limit

    def test_deterministic(self):
        a = dn.glorot_init((16, 8), Rng(42).randoms(128))
        b = dn.glorot_init((16, 8), Rng(42).randoms(128))
        assert np.array_equal(a.data, b.data)

    def test_rejects_non_2d(self):
        with pytest.raises(errors.ShapeMismatch):
            dn.glorot_init((4,), Rng(0).randoms(4))


class TestAdam:
    def test_defaults_first_step(self):
        store = dn.ParameterStore()
        p = store.add("p", dn.Tensor(np.array([1.0])))
        p.grad = np.array([1.0])
        dn.adam_step(store, lr=1e-4)
        assert p.data[0] - 1.0 == pytest.approx(-1e-4 / (1 + 1e-8), rel=1e-9)

    def test_two_steps_hand_computed(self):
        store = dn.ParameterStore()
        p = store.add("p", dn.Tensor(np.array([0.0])))
        m = v = 0.0
        x = 0.0
        for t, g in [(1, 1.0), (2, -2.0)]:
            p.grad = np.array([g])
            dn.adam_step(store, lr=1e-3)
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            x -= 1e-3 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
            assert p.data[0] == pytest.approx(x, rel=1e-12)

    def test_zero_lr_bit_identical(self, rng_np):
        store = dn.ParameterStore()
        p = store.add("p", dn.Tensor(rng_np.normal(size=(3, 3))))
        before = p.data.copy()
        p.grad = rng_np.normal(size=(3, 3))
        dn.adam_step(store, lr=0.0)
        assert np.array_equal(p.data, before)

    def test_missing_gradient(self):
        store = dn.ParameterStore()
        store.add("p", dn.Tensor(np.zeros(3)))
        with pytest.raises(errors.MissingGradient):
            dn.adam_step(store)

    def test_grads_zeroed_after_step(self):
        store = dn.ParameterStore()
        p = store.add("p", dn.Tensor(np.zeros(3)))
        p.grad = np.ones(3)
        dn.adam_step(store)
        assert p.grad is None

    def test_matches_the_update_formula_bit_for_bit(self, rng_np):
        # parameters of unequal sizes, so each thread's run of the store
        # holds some
        shapes = {"a": (40, 30), "b": (30,), "c": (30, 50), "d": (7,), "e": (3, 3)}
        store = dn.ParameterStore()
        for name, shape in shapes.items():
            store.add(name, dn.Tensor(rng_np.normal(size=shape)))
        x = {name: p.data.copy() for name, p in store.items()}
        m = {name: np.zeros(shape) for name, shape in shapes.items()}
        v = {name: np.zeros(shape) for name, shape in shapes.items()}
        lr = 1e-3
        for t in (1, 2, 3):
            c1, c2 = 1.0 - 0.9 ** t, 1.0 - 0.999 ** t
            for name, shape in shapes.items():
                g = rng_np.normal(size=shape)
                store[name].grad = g.copy()
                m[name] = 0.9 * m[name] + (1.0 - 0.9) * g
                v[name] = 0.999 * v[name] + (g * g) * (1.0 - 0.999)
                x[name] = x[name] - m[name] / (np.sqrt(v[name] / c2) + 1e-8) * (lr / c1)
            dn.adam_step(store, lr=lr)
            for name in shapes:
                assert store[name].data.tobytes() == x[name].tobytes()
                assert store._m[name].tobytes() == m[name].tobytes()
                assert store._v[name].tobytes() == v[name].tobytes()

    def test_lazy_moments_match_prebuilt_zeros(self, rng_np):
        # the moments appear at the first step; a store built with zero
        # moments takes the same steps
        data = {"w": rng_np.normal(size=(4, 3)), "b": rng_np.normal(size=3)}
        lazy, built = dn.ParameterStore(), dn.ParameterStore()
        for store in (lazy, built):
            for name, value in data.items():
                store.add(name, dn.Tensor(value.copy()))
        assert lazy._m == {} and lazy._v == {}
        for name, value in data.items():
            built._m[name] = np.zeros_like(value)
            built._v[name] = np.zeros_like(value)
        for _ in range(2):
            grads = {name: rng_np.normal(size=v.shape) for name, v in data.items()}
            for store in (lazy, built):
                for name, g in grads.items():
                    store[name].grad = g.copy()
                dn.adam_step(store, lr=1e-3)
            for name in data:
                assert lazy[name].data.tobytes() == built[name].data.tobytes()
                assert lazy._m[name].tobytes() == built._m[name].tobytes()
                assert lazy._v[name].tobytes() == built._v[name].tobytes()


class TestWeightFiles:
    def test_roundtrip(self, tmp_path, rng_np):
        store = dn.ParameterStore()
        store.add("enc.w0", dn.Tensor(rng_np.normal(size=(4, 3))))
        store.add("enc.b0", dn.Tensor(rng_np.normal(size=3)))
        dn.save_weights(store, tmp_path)
        fresh = dn.ParameterStore()
        fresh.add("enc.w0", dn.Tensor(np.zeros((4, 3))))
        fresh.add("enc.b0", dn.Tensor(np.zeros(3)))
        dn.load_weights(fresh, tmp_path)
        assert np.array_equal(fresh["enc.w0"].data, store["enc.w0"].data)
        assert np.array_equal(fresh["enc.b0"].data, store["enc.b0"].data)

    def test_manifest_is_ordered_list(self, tmp_path):
        import json
        store = dn.ParameterStore()
        store.add("a", dn.Tensor(np.zeros((2, 2))))
        store.add("b", dn.Tensor(np.zeros(2)))
        dn.save_weights(store, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert [e["name"] for e in manifest] == ["a", "b"]
        assert manifest[0]["byte_offset"] == 0
        assert manifest[1]["byte_offset"] == 32
        assert (tmp_path / "weights.bin").stat().st_size == 48

    def test_shape_mismatch_rejected(self, tmp_path):
        store = dn.ParameterStore()
        store.add("a", dn.Tensor(np.zeros((2, 2))))
        dn.save_weights(store, tmp_path)
        fresh = dn.ParameterStore()
        fresh.add("a", dn.Tensor(np.zeros((3, 2))))
        with pytest.raises(errors.ShapeMismatch):
            dn.load_weights(fresh, tmp_path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected_before_any_load(self, tmp_path, value):
        store = dn.ParameterStore()
        store.add("a", dn.Tensor(np.ones((2, 2))))
        store.add("b", dn.Tensor(np.array([1.0, value])))
        dn.save_weights(store, tmp_path)
        fresh = dn.ParameterStore()
        fresh.add("a", dn.Tensor(np.zeros((2, 2))))
        fresh.add("b", dn.Tensor(np.zeros(2)))
        with pytest.raises(errors.SchemaError, match="parameter b "):
            dn.load_weights(fresh, tmp_path)
        assert not fresh["a"].data.any() and not fresh["b"].data.any()


class TestRngStream:
    def test_split_streams_differ(self):
        r = Rng(7)
        assert r.derive(1).next_u64() != r.derive(2).next_u64()

    def test_reproducible(self):
        assert np.array_equal(Rng(123).randoms(5), Rng(123).randoms(5))

    def test_normal_moments(self):
        vals = np.array(Rng(5).normals(20000))
        assert abs(vals.mean()) < 0.03
        assert abs(vals.std() - 1.0) < 0.03

    def test_integer_range(self):
        r = Rng(9)
        draws = [r.integer(7) for _ in range(2000)]
        assert min(draws) == 0 and max(draws) == 6

    def test_shuffle_permutation(self):
        r = Rng(4)
        items = list(range(20))
        shuffled = items.copy()
        r.shuffle(shuffled)
        assert sorted(shuffled) == items and shuffled != items
