import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graph_engine as ad
from graph_reference import weighted_sum


def finite_diff(f, x, h=1e-5):
    """Central finite differences of scalar f at array x."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        xp, xm = x.copy(), x.copy()
        xp[idx] += h
        xm[idx] -= h
        g[idx] = (f(xp) - f(xm)) / (2 * h)
    return g


def rel_err(a, b):
    return np.abs(a - b).max() / max(np.abs(b).max(), 1e-8)


class TestMatmul:
    """The matrix product of ``linear``, the engine's only one, with a zero bias."""

    @staticmethod
    def product(a, b):
        return ad.linear(a, b, ad.leaf(np.zeros(b.shape[1])))

    def test_identity(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = self.product(ad.leaf(np.eye(2)), ad.leaf(m))
        np.testing.assert_array_equal(out.value, m)

    def test_hand_product(self):
        out = self.product(ad.leaf([[1.0, 2.0]]), ad.leaf([[3.0], [4.0]]))
        assert out.value[0, 0] == 11.0

    def test_shape_mismatch(self):
        with pytest.raises(ad.AutodiffError):
            self.product(ad.leaf(np.ones((2, 3))), ad.leaf(np.ones((2, 3))))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        a0 = rng.standard_normal((3, 4))
        b0 = rng.standard_normal((4, 2))

        def f(a):
            return float(ad.reduce_sum(self.product(ad.leaf(a), ad.leaf(b0))).value)

        a = ad.leaf(a0)
        loss = ad.reduce_sum(self.product(a, ad.leaf(b0)))
        ad.backward(loss)
        assert rel_err(a.grad, finite_diff(f, a0)) < 1e-4


class TestLinear:
    def test_value_is_matmul_then_add_bias(self):
        rng = np.random.default_rng(3)
        x, w, b = rng.standard_normal((5, 4)), rng.standard_normal((4, 3)), rng.standard_normal(3)
        fused = ad.linear(ad.leaf(x), ad.leaf(w), ad.leaf(b))
        np.testing.assert_array_equal(fused.value, x @ w + b)
        assert fused.op == "linear"

    def test_shape_mismatch(self):
        with pytest.raises(ad.AutodiffError):
            ad.linear(ad.leaf(np.ones((2, 3))), ad.leaf(np.ones((3, 4))), ad.leaf(np.ones(3)))
        with pytest.raises(ad.AutodiffError):
            ad.linear(ad.leaf(np.ones((2, 3))), ad.leaf(np.ones((2, 4))), ad.leaf(np.ones(4)))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(5)
        values = [rng.standard_normal((4, 3)), rng.standard_normal((3, 2)), rng.standard_normal(2)]
        c = rng.standard_normal((4, 2))

        def loss(x, w, b):
            return ad.reduce_sum(ad.mul(ad.tanh(ad.linear(x, w, b)), ad.leaf(c)))

        leaves = [ad.leaf(v) for v in values]
        ad.backward(loss(*leaves))
        for i, (node, v0) in enumerate(zip(leaves, values)):
            def f(v, i=i):
                args = [ad.leaf(a) for a in values]
                args[i] = ad.leaf(v)
                return float(loss(*args).value)
            assert rel_err(node.grad, finite_diff(f, v0)) < 1e-6, f"operand {i}"

    def test_array_input_gets_no_edge_and_same_parameter_gradients(self):
        rng = np.random.default_rng(9)
        x, w0, b0 = rng.standard_normal((6, 3)), rng.standard_normal((3, 2)), rng.standard_normal(2)
        c = rng.standard_normal((6, 2))
        grads = []
        for inp in (ad.leaf(x), x):
            w, b = ad.leaf(w0), ad.leaf(b0)
            out = ad.linear(inp, w, b)
            ad.backward(ad.reduce_sum(ad.mul(ad.tanh(out), ad.leaf(c))))
            grads.append((w.grad, b.grad, len(out.parents)))
        (wl, bl, nl), (wa, ba, na) = grads
        assert (nl, na) == (3, 2)  # the array is data: no parent edge, no input gradient
        assert wl.tobytes() == wa.tobytes() and bl.tobytes() == ba.tobytes()


class TestSoftmax:
    def test_equal_logits_uniform(self):
        out = ad.stable_softmax(ad.leaf(np.full((2, 5), 3.0)))
        np.testing.assert_allclose(out.value, 0.2)

    def test_large_logits_no_overflow(self):
        out = ad.stable_softmax(ad.leaf([[1000.0, 0.0]]))
        np.testing.assert_allclose(out.value, [[1.0, 0.0]], atol=1e-12)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_rows_sum_to_one(self, seed):
        logits = np.random.default_rng(seed).standard_normal((4, 6)) * 10
        out = ad.stable_softmax(ad.leaf(logits))
        np.testing.assert_allclose(out.value.sum(axis=1), 1.0, atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        logits = rng.standard_normal((3, 4))
        a = ad.stable_softmax(ad.leaf(logits)).value
        b = ad.stable_softmax(ad.leaf(logits + 123.456)).value
        np.testing.assert_allclose(a, b, atol=1e-10)


class TestElementwise:
    def test_relu_negative(self):
        assert ad.relu(ad.leaf([-3.0])).value[0] == 0.0

    def test_log_clamp_floor(self):
        assert ad.log_clamped(ad.leaf([0.0])).value[0] == np.log(1e-12)

    def test_tanh_derivative_at_zero(self):
        x = ad.leaf([0.0])
        ad.backward(ad.reduce_sum(ad.tanh(x)))
        np.testing.assert_allclose(x.grad, [1.0])

    def test_scalar_broadcast(self):
        out = ad.add(ad.leaf([1.0, 2.0]), ad.leaf(10.0))
        np.testing.assert_array_equal(out.value, [11.0, 12.0])

    def test_unsupported_broadcast(self):
        with pytest.raises(ad.AutodiffError):
            ad.mul(ad.leaf(np.ones((2, 3))), ad.leaf(np.ones(3)))

    def test_nonfinite_forward_rejected(self):
        x = ad.leaf([[1e308, 1.0]])
        with pytest.raises(ad.NonFiniteError, match="op 'linear'"):
            ad.linear(x, ad.leaf([[10.0], [1.0]]), ad.leaf([0.0]))


class TestReduce:
    def test_mean(self):
        assert float(ad.reduce_mean(ad.leaf([1.0, 2.0, 3.0])).value) == 2.0

    def test_weighted_sum_symmetry(self):
        out = weighted_sum(ad.leaf([4.0, 8.0]), [0.5, 0.5])
        assert float(out.value) == 6.0

    def test_weighted_sum_gradient_is_weights(self):
        x = ad.leaf([1.0, 2.0, 3.0])
        w = np.array([0.2, 0.3, 0.5])
        ad.backward(weighted_sum(x, w))
        np.testing.assert_array_equal(x.grad, w)

    def test_weighted_sum_shape_mismatch(self):
        with pytest.raises(ad.AutodiffError):
            weighted_sum(ad.leaf([1.0, 2.0]), [0.5, 0.25, 0.25])


class TestGradReverse:
    def test_forward_bit_identity(self):
        x = ad.leaf([1.5, -2.0])
        out = ad.grad_reverse(x)
        assert out.value is x.value

    def test_backward_sign_flip(self):
        x = ad.leaf([1.0, 2.0])
        out = ad.grad_reverse(x)
        ad.backward(weighted_sum(out, [3.0, 5.0]))
        np.testing.assert_array_equal(x.grad, [-3.0, -5.0])

    def test_scale(self):
        x = ad.leaf([2.0])
        ad.backward(ad.reduce_sum(ad.grad_reverse(x, 0.5)))
        np.testing.assert_array_equal(x.grad, [-0.5])


class TestBackward:
    def test_sum_gradient_ones(self):
        x = ad.leaf(np.arange(6.0).reshape(2, 3))
        ad.backward(ad.reduce_sum(x))
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_linear_gradient(self):
        c = np.array([2.0, -1.0, 0.5])
        x = ad.leaf([1.0, 1.0, 1.0])
        ad.backward(ad.reduce_sum(ad.mul(x, ad.leaf(c))))
        np.testing.assert_array_equal(x.grad, c)

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ad.AutodiffError):
            ad.backward(ad.leaf([1.0, 2.0]))

    def test_grad_unset_until_backward(self):
        x = ad.leaf(np.array([1.0, 2.0]))
        loss = ad.reduce_sum(ad.mul(x, x))
        assert x.grad is None and ad.grad_reverse(x).grad is None
        ad.backward(loss)
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])

    def test_repeated_backward_idempotent(self):
        x = ad.leaf(np.array([1.0, 2.0]))
        loss = ad.reduce_sum(ad.mul(x, x))
        ad.backward(loss)
        first = x.grad.copy()
        ad.backward(loss)
        np.testing.assert_array_equal(x.grad, first)

    def test_shared_subexpression_accumulates(self):
        x = ad.leaf([3.0])
        y = ad.mul(x, x)  # x^2, dx = 2x
        ad.backward(ad.reduce_sum(y))
        np.testing.assert_allclose(x.grad, [6.0])

    def test_accumulation_leaves_shared_upstream_intact(self):
        # add's vjp hands its upstream array to both parents, here the same node
        x = ad.leaf(np.array([1.0, -2.0]))
        y = ad.add(x, x)
        c = np.array([3.0, 5.0])
        ad.backward(ad.reduce_sum(ad.mul(y, ad.leaf(c))))
        np.testing.assert_array_equal(y.grad, c)
        np.testing.assert_array_equal(x.grad, 2 * c)

    def test_two_layer_mlp_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        w1, b1 = rng.standard_normal((3, 5)), rng.standard_normal(5)
        w2, b2 = rng.standard_normal((5, 2)), rng.standard_normal(2)
        x0 = rng.standard_normal((4, 3))

        def net(w1v, b1v, w2v, b2v):
            h = ad.tanh(ad.linear(ad.leaf(x0), ad.leaf(w1v), ad.leaf(b1v)))
            out = ad.stable_softmax(ad.linear(h, ad.leaf(w2v), ad.leaf(b2v)))
            return ad.reduce_mean(ad.log_clamped(out))

        leaves = [ad.leaf(p) for p in (w1, b1, w2, b2)]
        h = ad.tanh(ad.linear(ad.leaf(x0), leaves[0], leaves[1]))
        out = ad.stable_softmax(ad.linear(h, leaves[2], leaves[3]))
        ad.backward(ad.reduce_mean(ad.log_clamped(out)))

        params = [w1, b1, w2, b2]
        for i, (node, p0) in enumerate(zip(leaves, params)):
            def f(pv, i=i):
                args = list(params)
                args[i] = pv
                return float(net(*args).value)
            assert rel_err(node.grad, finite_diff(f, p0)) < 1e-4, f"param {i}"


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_random_graph_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal((2, 3))

    def f(xv):
        x = ad.leaf(xv)
        h = ad.relu(ad.add(ad.mul(x, x), ad.leaf(0.3)))
        s = ad.sigmoid(h)
        return ad.reduce_mean(ad.mul(s, ad.tanh(ad.scale(x, 0.1))))

    x = ad.leaf(x0)
    h = ad.relu(ad.add(ad.mul(x, x), ad.leaf(0.3)))
    s = ad.sigmoid(h)
    ad.backward(ad.reduce_mean(ad.mul(s, ad.tanh(ad.scale(x, 0.1)))))
    numeric = finite_diff(lambda xv: float(f(xv).value), x0)
    assert rel_err(x.grad, numeric) < 1e-4
