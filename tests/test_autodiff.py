"""Tensor arithmetic and reverse-mode gradients."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import affine, finite_diff_max_err, ref_avgpool1d, ref_softmax_rows, relu, scatter_2d
from hgmts import autodiff as ad
from hgmts.autodiff import ContractError, NumericError, ShapeMismatch, Tensor
from hgmts.message_passing import MessagePassingUnit, aggregate
from hgmts.nn import MLP2, ParamRegistry


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

    def test_leaves_fed_by_one_add_own_their_gradients(self):
        """``add`` hands one gradient array to both of its inputs; each leaf
        takes its own copy, so adding the second pass in place into one leaf's
        ``.grad`` leaves the other's alone."""
        x, y = Tensor(np.ones(3)), Tensor(np.ones(3))
        loss = ad.sum(ad.mul(ad.add(x, y), Tensor([1.0, 2.0, 3.0])))
        for passes in (1, 2):
            ad.backward(loss)
            assert not np.shares_memory(x.grad, y.grad)
            for leaf in (x, y):
                np.testing.assert_array_equal(leaf.grad, [passes, 2.0 * passes, 3.0 * passes])

    def test_only_leaves_keep_a_gradient(self):
        x = Tensor(3.0)
        sq = ad.mul(x, x)
        loss = ad.add(sq, sq)
        ad.backward(loss)
        np.testing.assert_allclose(x.grad, 12.0)
        assert sq.grad is None and loss.grad is None

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ContractError):
            ad.backward(Tensor([1.0, 2.0]))

    def test_scalar_leaf_loss_rejected(self):
        with pytest.raises(ContractError, match="leaf"):
            ad.backward(Tensor(2.0))

    def test_untaped_result_keeps_no_tape_and_is_refused(self):
        x = Tensor(3.0)
        with ad.recording(False):
            sq = ad.mul(x, x)
        assert sq._parents == () and sq._grad_fn is ad._no_tape
        np.testing.assert_array_equal(sq.values, 9.0)
        for loss in (sq, ad.add(sq, 1.0)):
            with pytest.raises(ContractError, match="without a tape"):
                ad.backward(loss)
        assert x.grad is None
        ad.backward(ad.mul(x, x))  # recording is back on after the block
        np.testing.assert_allclose(x.grad, 6.0)

    def test_recording_restores_the_previous_state(self):
        x = Tensor(3.0)

        def taped():
            return ad.mul(x, x)._parents == (x, x)

        with ad.recording(False):
            with ad.recording(True):
                assert taped()
            assert not taped()
            with pytest.raises(KeyError), ad.recording(True):
                raise KeyError
            assert not taped()
        assert taped()
        with pytest.raises(KeyError), ad.recording(False):
            raise KeyError
        assert taped()

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

        def loss():
            t = ad.add(ad.mul(ad.tanh(a), ad.sigmoid(b)), relu(ad.sub(a, b)))
            return ad.mean(ad.mul(t, t))

        assert finite_diff_max_err(loss, [a, b]) < 1e-4

    def test_reductions_and_structure(self):
        rng = np.random.default_rng(7)
        a = Tensor(rng.uniform(-1, 1, (5, 4)))

        def loss():
            s = ad.sum(a, axis=1)
            m = ad.mean(a, axis=0)
            cat = ad.matmul(ad.reshape(s, (5, 1)), Tensor(np.ones((1, 2))))  # [s, s]
            pick = ad.gather(cat, np.array([[0], [2], [4]]), axis=0)
            sliced = ad.gather(ad.gather(a, np.array([[1], [2], [3]]), axis=0),
                               np.tile([0, 1], (3, 1)), axis=-1)
            return ad.add(ad.sum(ad.mul(pick, pick)),
                          ad.add(ad.sum(ad.mul(sliced, sliced)), ad.sum(ad.mul(m, m))))

        assert finite_diff_max_err(loss, [a]) < 1e-4

    def test_gather_scatter_ops(self):
        rng = np.random.default_rng(9)
        a = Tensor(rng.uniform(-1, 1, (4, 6)))
        cols = np.array([[0, 2], [1, 3], [5, 0], [2, 4]])

        def loss():
            picked = ad.gather(a, cols, axis=-1)
            spread = scatter_2d(picked, np.array([1, 0, 3, 2]), cols, (4, 6))
            return ad.sum(ad.mul(spread, spread))

        assert finite_diff_max_err(loss, [a]) < 1e-4

    def test_affine_matches_matmul_plus_bias(self):
        """The tape affine of tests/helpers.py, MLP2's bitwise oracle."""
        rng = np.random.default_rng(13)
        x = Tensor(rng.uniform(-1, 1, (4, 3)))
        w = Tensor(rng.uniform(-1, 1, (3, 2)))
        b = Tensor(rng.uniform(-1, 1, 2))
        fused = affine(x, w, b)
        np.testing.assert_allclose(fused.values, x.values @ w.values + b.values, atol=1e-15)
        err = finite_diff_max_err(lambda: ad.sum(ad.mul(affine(x, w, b), affine(x, w, b))),
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
        out = ad.gather(a, idx, axis=-1).values
        for b in range(2):
            for i in range(3):
                np.testing.assert_array_equal(out[b, i], a.values[b, i, idx[b, i]])
        probe = Tensor(rng.uniform(-1, 1, (2, 3, 4)))
        err = finite_diff_max_err(lambda: ad.sum(ad.mul(ad.gather(a, idx, axis=-1), probe)), [a])
        assert err < 1e-4

    @pytest.mark.parametrize("axis", [0, 1, -1])
    def test_gather_with_broadcast_indices_matches_fancy_indexing(self, axis):
        # indices span one axis and broadcast over the other two; distinct along `axis`
        rng = np.random.default_rng(44)
        a = Tensor(rng.uniform(-1, 1, (4, 5, 6)))
        pos = axis % 3
        picked = rng.permutation(a.shape[pos])[:3]
        shape = [1, 1, 1]
        shape[pos] = 3
        idx = picked.reshape(shape)
        out = ad.gather(a, idx, axis=axis)
        expected = a.values[tuple(picked if d == pos else slice(None) for d in range(3))]
        np.testing.assert_array_equal(out.values, expected)
        probe = Tensor(rng.uniform(-1, 1, expected.shape))
        err = finite_diff_max_err(lambda: ad.sum(ad.mul(ad.gather(a, idx, axis=axis), probe)), [a])
        assert err < 1e-4


class TestEqualShapeArithmetic:
    @pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul])
    def test_tensors_of_different_shapes_rejected(self, op):
        # (5, 1) * (1, 2) would broadcast to (5, 2) under numpy rules
        with pytest.raises(ShapeMismatch, match=r"\(5, 1\).*\(1, 2\)"):
            op(Tensor(np.ones((5, 1))), Tensor(np.ones((1, 2))))

    @pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul])
    def test_non_scalar_array_operand_rejected(self, op):
        with pytest.raises(ShapeMismatch, match=r"\(3, 2\).*\(2,\)"):
            op(Tensor(np.ones((3, 2))), np.ones(2))

    @pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul])
    def test_scalar_on_the_left_rejected(self, op):
        with pytest.raises(ShapeMismatch):
            op(2.0, Tensor(np.ones(3)))

    def test_scalar_on_the_right_gradients(self):
        rng = np.random.default_rng(45)
        a = Tensor(rng.uniform(-1, 1, (3, 4)))
        err = finite_diff_max_err(
            lambda: ad.sum(ad.mul(ad.sub(ad.add(ad.mul(a, 1.5), 0.25), 2.0), a)), [a])
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

    @pytest.mark.parametrize("length", [3, 24, 48, 96])
    @pytest.mark.parametrize("padding", ["edge", "zero"])
    @pytest.mark.parametrize("kernel", [1, 3, 9, 25])
    def test_matches_shifted_add_oracle(self, kernel, padding, length):
        rng = np.random.default_rng(kernel * length)
        x = rng.uniform(-5, 5, (6, length))
        probe = Tensor(rng.uniform(-1, 1, (6, length)))
        grads = []
        for op in (ad.avgpool1d, ref_avgpool1d):
            leaf = Tensor(x)
            out = op(leaf, kernel, padding)
            ad.backward(ad.sum(ad.mul(out, probe)))
            grads.append((out.values, leaf.grad))
        (out, grad), (ref_out, ref_grad) = grads
        np.testing.assert_allclose(out, ref_out, rtol=0, atol=1e-12)
        np.testing.assert_allclose(grad, ref_grad, rtol=0, atol=1e-12)

    def test_count_matrix_is_cached_and_read_only(self):
        counts = ad.window_counts(48, 25, "edge")
        assert ad.window_counts(48, 25, "edge") is counts
        np.testing.assert_array_equal(counts.sum(axis=0), 25.0)
        with pytest.raises(ValueError, match="read-only"):
            counts[0, 0] = 0.0


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


def op_cases():
    """Op name -> a call that computes that op's result from fixed leaves."""
    rng = np.random.default_rng(70)

    def leaf(*shape):
        return Tensor(rng.uniform(-1, 1, shape))

    a, b, w, grid = leaf(3, 4), leaf(3, 4), leaf(4, 5), leaf(2, 3, 4)
    zero_d = Tensor(0.5)
    unit = MessagePassingUnit(ParamRegistry(seed=71), "u", 6, 4, 4)
    mlp = MLP2(ParamRegistry(seed=72), "m", 4, 3, 2)
    h, x, weights = leaf(6, 4), leaf(2, 4), leaf(2, 2, 2)
    query_rows = np.array([[0, 2], [3, 5]])
    key_rows = np.array([[[1, 2], [0, 1]], [[4, 5], [3, 4]]])
    return {
        "add": lambda: ad.add(a, b),
        "add scalar": lambda: ad.add(a, 0.25),
        "sub": lambda: ad.sub(a, b),
        "sub scalar": lambda: ad.sub(a, 0.25),
        "mul": lambda: ad.mul(a, b),
        "mul scalar": lambda: ad.mul(a, 0.25),
        "mul 0-d": lambda: ad.mul(zero_d, zero_d),
        "matmul": lambda: ad.matmul(a, w),
        "transpose": lambda: ad.transpose(grid),
        "reshape": lambda: ad.reshape(grid, (6, 4)),
        "sigmoid": lambda: ad.sigmoid(a),
        "tanh": lambda: ad.tanh(a),
        "sum": lambda: ad.sum(a),
        "sum axis": lambda: ad.sum(grid, axis=1),
        "mean": lambda: ad.mean(a),
        "mean axis": lambda: ad.mean(grid, axis=2, keepdims=True),
        "softmax_rows": lambda: ad.softmax_rows(grid),
        "gather": lambda: ad.gather(a, np.array([[2, 0], [1, 3], [0, 1]]), axis=1),
        "avgpool1d": lambda: ad.avgpool1d(a, 3),
        "gru_round": lambda: unit.gated_update(h, x, [3, 0]),
        "aggregate": lambda: aggregate(unit, h, query_rows, key_rows, weights),
        "MLP2": lambda: mlp(a),
    }


class TestRecordingOff:
    """Every op computed while recording is off gives the recorded values and keeps no tape."""

    @pytest.mark.parametrize("name", list(op_cases()))
    def test_tapeless_result(self, name):
        build = op_cases()[name]
        recorded = build()
        with ad.recording(False):
            bare = build()
        assert recorded._parents
        for result in (recorded, bare):
            assert type(result.values) is np.ndarray and result.values.dtype == np.float64
        assert bare.shape == recorded.shape
        assert bare.values.tobytes() == recorded.values.tobytes()
        assert bare._parents == ()
        with pytest.raises(ContractError, match="without a tape"):
            ad.backward(ad.sum(bare))
