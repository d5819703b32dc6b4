"""Tensor arithmetic and reverse-mode gradients."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import finite_diff_max_err, ref_softmax_rows
from hgmts import autodiff as ad
from hgmts.autodiff import ContractError, NumericError, ShapeMismatch, Tensor


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(ad.matmul(a, b).values, b.values)

    def test_hand_product(self):
        out = ad.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.values, [[11.0]])

    def test_inner_dim_mismatch_names_shapes(self):
        a = Tensor(np.zeros((2, 3)))
        b = Tensor(np.zeros((2, 3)))
        with pytest.raises(ShapeMismatch, match=r"\(2, 3\).*\(2, 3\)"):
            ad.matmul(a, b)

    def test_gradients(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.uniform(-1, 1, (3, 4)))
        b = Tensor(rng.uniform(-1, 1, (4, 2)))
        err = finite_diff_max_err(lambda: ad.sum(ad.mul(ad.matmul(a, b), ad.matmul(a, b))), [a, b])
        assert err < 1e-4


class TestSoftmaxRows:
    def test_equal_values_give_uniform(self):
        out = ad.softmax_rows(Tensor(np.full((3, 5), 2.0)))
        np.testing.assert_allclose(out.values, 1.0 / 5, atol=1e-15)

    def test_closed_form_two_entries(self):
        out = ad.softmax_rows(Tensor([[0.0, math.log(3.0)]]))
        np.testing.assert_allclose(out.values, [[0.25, 0.75]], atol=1e-12)

    def test_nan_rejected(self):
        with pytest.raises(NumericError):
            ad.softmax_rows(Tensor([[0.0, np.nan]]))

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_rows_sum_to_one_and_shift_invariant(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-50, 50, (4, 6))
        out = ad.softmax_rows(Tensor(x)).values
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
        shifted = ad.softmax_rows(Tensor(x + rng.uniform(-5, 5, (4, 1)))).values
        np.testing.assert_allclose(out, shifted, atol=1e-12)

    def test_gradient(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.uniform(-1, 1, (3, 4)))
        w = Tensor(rng.uniform(-1, 1, (3, 4)))
        err = finite_diff_max_err(lambda: ad.sum(ad.mul(ad.softmax_rows(x), w)), [x])
        assert err < 1e-4


class TestBackward:
    def test_square_derivative(self):
        x = Tensor(3.0)
        ad.backward(ad.mul(x, x))
        np.testing.assert_allclose(x.grad, 6.0)

    def test_unused_leaf_has_zero_gradient(self):
        x = Tensor(2.0)
        y = Tensor(5.0)
        ad.backward(ad.mul(x, x))
        assert y.grad is None or not y.grad.any()

    def test_repeated_backward_accumulates(self):
        x = Tensor(3.0)
        loss = ad.mul(x, x)
        ad.backward(loss)
        ad.backward(loss)
        np.testing.assert_allclose(x.grad, 12.0)

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ContractError):
            ad.backward(Tensor([1.0, 2.0]))

    def test_shared_subexpression(self):
        # d/dx of (x*x + x*x) = 4x
        x = Tensor(1.5)
        sq = ad.mul(x, x)
        ad.backward(ad.add(sq, sq))
        np.testing.assert_allclose(x.grad, 6.0)


class TestElementwiseGradients:
    """Finite-difference checks across the elementwise surface."""

    @pytest.mark.parametrize("seed", range(5))
    def test_composite_expression(self, seed):
        rng = np.random.default_rng(seed)
        a = Tensor(rng.uniform(-1, 1, (4, 3)))
        b = Tensor(rng.uniform(-1, 1, (4, 3)))
        c = Tensor(rng.uniform(0.1, 1, (4, 3)))

        def loss():
            t = ad.add(ad.mul(ad.tanh(a), ad.sigmoid(b)), ad.relu(ad.sub(a, b)))
            t = ad.add(t, ad.log(c))
            t = ad.add(t, ad.exp(ad.mul(a, 0.3)))
            return ad.mean(ad.mul(t, t))

        assert finite_diff_max_err(loss, [a, b, c]) < 1e-4

    def test_reductions_and_structure(self):
        rng = np.random.default_rng(7)
        a = Tensor(rng.uniform(-1, 1, (5, 4)))

        def loss():
            s = ad.sum(a, axis=1)
            m = ad.mean(a, axis=0)
            cat = ad.concat([ad.reshape(s, (5, 1)), ad.reshape(s, (5, 1))], axis=1)
            pick = ad.take_rows(cat, [0, 2, 2, 4])
            sliced = a[1:4, :2]
            return ad.add(ad.sum(ad.mul(pick, pick)),
                          ad.add(ad.sum(ad.mul(sliced, sliced)), ad.sum(ad.mul(m, m))))

        assert finite_diff_max_err(loss, [a]) < 1e-4

    def test_gather_scatter_ops(self):
        rng = np.random.default_rng(9)
        a = Tensor(rng.uniform(-1, 1, (4, 6)))
        cols = np.array([[0, 2], [1, 3], [5, 0], [2, 4]])

        def loss():
            picked = ad.gather_last(a, cols)
            spread = ad.scatter_2d(picked, np.array([1, 0, 3, 2]), cols, (4, 6))
            placed = ad.put_rows(picked, np.array([3, 0, 4, 1]), 5)
            return ad.add(ad.sum(ad.mul(spread, spread)), ad.sum(ad.mul(placed, placed)))

        assert finite_diff_max_err(loss, [a]) < 1e-4

    def test_broadcast_bias_gradient(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.uniform(-1, 1, (5, 3)))
        b = Tensor(rng.uniform(-1, 1, 3))
        err = finite_diff_max_err(lambda: ad.sum(ad.mul(ad.add(x, b), ad.add(x, b))), [x, b])
        assert err < 1e-4

    def test_affine_matches_matmul_plus_bias(self):
        rng = np.random.default_rng(13)
        x = Tensor(rng.uniform(-1, 1, (4, 3)))
        w = Tensor(rng.uniform(-1, 1, (3, 2)))
        b = Tensor(rng.uniform(-1, 1, 2))
        fused = ad.affine(x, w, b)
        plain = ad.add(ad.matmul(x, w), b)
        np.testing.assert_allclose(fused.values, plain.values, atol=1e-15)
        err = finite_diff_max_err(lambda: ad.sum(ad.mul(ad.affine(x, w, b), ad.affine(x, w, b))),
                                  [x, w, b])
        assert err < 1e-4


class TestBatchedGraphOps:
    """The batch-shaped ops of the graph path: (B, n, n) layouts, no add.at."""

    def test_batched_matmul_transpose_softmax_gradients(self):
        rng = np.random.default_rng(41)
        a = Tensor(rng.uniform(-1, 1, (2, 3, 4)))
        b = Tensor(rng.uniform(-1, 1, (2, 5, 4)))
        probe = Tensor(rng.uniform(-1, 1, (2, 3, 5)))
        out = ad.matmul(a, ad.transpose(b)).values
        np.testing.assert_allclose(out, np.einsum("bid,bjd->bij", a.values, b.values), atol=1e-15)
        err = finite_diff_max_err(
            lambda: ad.sum(ad.mul(ad.softmax_rows(ad.matmul(a, ad.transpose(b))), probe)), [a, b])
        assert err < 1e-4

    def test_batched_matmul_rejects_mismatched_batches(self):
        with pytest.raises(ShapeMismatch):
            ad.matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((3, 4, 5))))

    def test_key_axis_gather_gradient(self):
        rng = np.random.default_rng(42)
        a = Tensor(rng.uniform(-1, 1, (2, 3, 6)))
        idx = np.sort([[rng.permutation(6)[:4] for _ in range(3)] for _ in range(2)], axis=-1)
        out = ad.gather_last(a, idx).values
        for b in range(2):
            for i in range(3):
                np.testing.assert_array_equal(out[b, i], a.values[b, i, idx[b, i]])
        probe = Tensor(rng.uniform(-1, 1, (2, 3, 4)))
        err = finite_diff_max_err(lambda: ad.sum(ad.mul(ad.gather_last(a, idx), probe)), [a])
        assert err < 1e-4

    def test_take_rows_repeated_indices_gradient(self):
        # groups of one to a dozen repeats, one row never taken
        rng = np.random.default_rng(43)
        a = Tensor(rng.uniform(-1, 1, (5, 3)))
        idx = rng.permutation(np.repeat([0, 1, 2, 4], [1, 3, 8, 12]))
        probe = rng.uniform(-1, 1, (idx.size, 3))
        ad.backward(ad.sum(ad.mul(ad.take_rows(a, idx), Tensor(probe))))
        expected = np.zeros((5, 3))
        for e, row in enumerate(idx):
            expected[row] += probe[e]
        np.testing.assert_allclose(a.grad, expected, atol=1e-14)
        a.grad = None
        err = finite_diff_max_err(
            lambda: ad.sum(ad.mul(ad.take_rows(a, idx), ad.take_rows(a, idx))), [a])
        assert err < 1e-4

    def test_put_rows_into_unique_query_rows(self):
        rng = np.random.default_rng(44)
        a = Tensor(rng.uniform(-1, 1, (2, 3, 4)))
        rows = np.array([[0, 2, 4], [5, 6, 9]])
        out = ad.put_rows(a, rows, 10).values
        np.testing.assert_array_equal(out[rows], a.values)
        np.testing.assert_array_equal(out[[1, 3, 7, 8]], 0.0)
        probe = Tensor(rng.uniform(-1, 1, (10, 4)))
        err = finite_diff_max_err(lambda: ad.sum(ad.mul(ad.put_rows(a, rows, 10), probe)), [a])
        assert err < 1e-4


class TestAvgPool:
    def test_kernel_one_is_identity(self):
        x = Tensor(np.random.default_rng(0).uniform(-1, 1, (3, 7)))
        np.testing.assert_array_equal(ad.avgpool1d(x, 1).values, x.values)

    def test_constant_row_edge_padding_fixed_point(self):
        # dyadic constants keep the window means exact in float64
        for c in (-2.0, -0.5, 0.0, 0.25, 1.0, 3.0):
            x = Tensor(np.full((2, 9), c))
            np.testing.assert_array_equal(ad.avgpool1d(x, 5, "edge").values, x.values)

    def test_hand_windowed_average_zero_padding(self):
        out = ad.avgpool1d(Tensor([[0.0, 1.0, 2.0, 3.0]]), 3, "zero")
        np.testing.assert_allclose(out.values, [[1 / 3, 1.0, 2.0, 5 / 3]], atol=1e-15)

    def test_even_kernel_rejected(self):
        with pytest.raises(ContractError):
            ad.avgpool1d(Tensor(np.zeros((1, 4))), 2)

    def test_bad_padding_rejected(self):
        with pytest.raises(ContractError):
            ad.avgpool1d(Tensor(np.zeros((1, 4))), 3, "mirror")

    @pytest.mark.parametrize("padding", ["edge", "zero"])
    @pytest.mark.parametrize("kernel", [1, 3, 7])
    def test_gradients(self, padding, kernel):
        rng = np.random.default_rng(kernel)
        x = Tensor(rng.uniform(-1, 1, (2, 6)))
        err = finite_diff_max_err(
            lambda: ad.sum(ad.mul(ad.avgpool1d(x, kernel, padding),
                                  ad.avgpool1d(x, kernel, padding))),
            [x],
        )
        assert err < 1e-4

    def test_kernel_larger_than_row(self):
        x = Tensor(np.random.default_rng(3).uniform(-1, 1, (2, 3)))
        out = ad.avgpool1d(x, 9, "edge")
        assert out.shape == (2, 3)
        err = finite_diff_max_err(lambda: ad.sum(ad.mul(ad.avgpool1d(x, 9, "edge"),
                                                        ad.avgpool1d(x, 9, "edge"))), [x])
        assert err < 1e-4


class TestAgainstNumpyOracle:
    def test_softmax_matches_reference(self):
        rng = np.random.default_rng(21)
        x = rng.uniform(-5, 5, (6, 5))
        np.testing.assert_allclose(ad.softmax_rows(Tensor(x)).values, ref_softmax_rows(x),
                                   atol=1e-12)

    def test_reductions_match_numpy(self):
        rng = np.random.default_rng(22)
        x = rng.uniform(-3, 3, (4, 5))
        t = Tensor(x)
        np.testing.assert_allclose(ad.sum(t).values, x.sum())
        np.testing.assert_allclose(ad.sum(t, axis=0).values, x.sum(axis=0))
        np.testing.assert_allclose(ad.mean(t, axis=1).values, x.mean(axis=1))
