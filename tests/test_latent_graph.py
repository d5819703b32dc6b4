"""Sparse attention graph inference against dense and brute-force oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import (
    build_sparse_adjacency,
    dense_adjacency,
    finite_diff_max_err,
    ref_select_queries,
    ref_softmax_rows,
    ref_sparse_adjacency_batch,
    select_keys,
)
from hgmts import autodiff as ad
from hgmts.autodiff import ContractError, NumericError, Tensor
from hgmts.latent_graph import (
    build_sparse_adjacency_batch,
    dump_edges,
    gamma_count,
    query_importance,
    sample_count,
    select_queries,
)
from hgmts.model import ModelConfig


def random_inputs(rng, n, d=4):
    h = Tensor(rng.uniform(-1, 1, (n, d)))
    wq = Tensor(rng.uniform(-1, 1, (d, d)))
    wk = Tensor(rng.uniform(-1, 1, (d, d)))
    return h, wq, wk


class TestSampleCount:
    def test_floor_and_clamp(self):
        assert sample_count(1.0, 8) == 2  # floor(ln 8) = 2
        assert sample_count(0.01, 8) == 1  # clamped up
        assert sample_count(100.0, 8) == 8  # clamped down
        assert sample_count(2.0, 1) == 1  # ln 1 = 0, clamped up

    def test_gamma_mapping_is_monotone_and_clamped(self):
        counts = [gamma_count(g, 8) for g in np.linspace(0.0, 1.2, 25)]
        assert counts == sorted(counts)
        assert counts[0] == 1 and counts[-1] == 8

    def test_gamma_hits_rounded_fraction(self):
        for n_nodes in (4, 8, 16, 64):
            for gamma in (0.2, 0.3, 0.5, 0.7, 1.0):
                n = ModelConfig(n_nodes=n_nodes, input_len=8, horizon=4,
                                gamma=gamma).selection_size()
                assert n == max(1, min(n_nodes, round(gamma * n_nodes)))


class TestProjectQK:
    """The builder projects queries as h @ wq and keys as h @ wk.  At n = N every
    query keeps every key, so a window's weights are its dense attention."""

    @staticmethod
    def weights(h, wq, wk):
        graphs = build_sparse_adjacency_batch(Tensor(h), Tensor(wq), Tensor(wk), h.shape[0],
                                              h.shape[0], seed=0)
        return graphs.weights.values[0]

    def test_identity_weights(self):
        h = np.random.default_rng(0).uniform(-1, 1, (5, 3))
        np.testing.assert_allclose(self.weights(h, np.eye(3), np.eye(3)),
                                   ref_softmax_rows(h @ h.T / math.sqrt(3)), atol=1e-15)

    def test_one_hot_rows_extract_weight_rows(self):
        rng = np.random.default_rng(1)
        wq, wk = rng.uniform(-1, 1, (3, 3)), rng.uniform(-1, 1, (3, 3))
        np.testing.assert_allclose(self.weights(np.eye(3), wq, wk),
                                   ref_softmax_rows(wq @ wk.T / math.sqrt(3)), atol=1e-15)

    def test_random_case_matches_hand_matmul(self):
        rng = np.random.default_rng(2)
        h, wq, wk = (rng.uniform(-1, 1, shape) for shape in ((4, 2), (2, 2), (2, 2)))
        np.testing.assert_allclose(self.weights(h, wq, wk),
                                   ref_softmax_rows((h @ wq) @ (h @ wk).T / math.sqrt(2)),
                                   atol=1e-15)


class TestQueryImportance:
    def test_uniform_attention_scores_zero(self):
        # zero queries give equal logits for every sampled key
        q = np.zeros((4, 3))
        keys = np.random.default_rng(0).uniform(-1, 1, (5, 3))
        scores = query_importance(q, keys)
        np.testing.assert_allclose(scores, 0.0, atol=1e-12)

    def test_closed_form_two_keys(self):
        # logits (0, ln 3) -> p = (1/4, 3/4); divergence from uniform = ln(4/3)/2
        q = np.array([[1.0]])
        keys = np.array([[0.0], [math.log(3.0)]])
        score = query_importance(q, keys)[0]
        np.testing.assert_allclose(score, 0.5 * math.log(4.0 / 3.0), atol=1e-10)

    def test_score_grows_with_concentration(self):
        rng = np.random.default_rng(3)
        q = rng.uniform(-1, 1, (1, 4))
        keys = rng.uniform(-1, 1, (6, 4))
        scores = [query_importance(q * s, keys)[0] for s in (1.0, 4.0, 16.0)]
        assert scores[0] < scores[1] < scores[2]

    def test_shift_invariance_per_query(self):
        # adding v to every key shifts each query's logits by a constant
        rng = np.random.default_rng(4)
        q = rng.uniform(-1, 1, (5, 3))
        keys = rng.uniform(-1, 1, (4, 3))
        v = rng.uniform(-2, 2, 3)
        base = query_importance(q, keys)
        shifted = query_importance(q, keys + v)
        np.testing.assert_allclose(base, shifted, atol=1e-12)

    def test_empty_sample_rejected(self):
        with pytest.raises(ContractError):
            query_importance(np.zeros((2, 3)), np.zeros((0, 3)))


class TestSelection:
    def test_equal_scores_take_lowest_indices(self):
        np.testing.assert_array_equal(select_queries(np.ones(6), 3), [0, 1, 2])

    def test_top_two_of_three(self):
        np.testing.assert_array_equal(select_queries(np.array([0.1, 0.9, 0.5]), 2), [1, 2])

    def test_n_equals_total(self):
        np.testing.assert_array_equal(select_queries(np.arange(4.0), 4), [0, 1, 2, 3])

    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_equals_the_stable_sort(self, data):
        """Ties (0.0 and -0.0 among them) and infinities, in 1-D to 3-D scores."""
        shape = (*data.draw(st.lists(st.integers(0, 3), max_size=2)), data.draw(st.integers(1, 9)))
        special = st.sampled_from([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf])
        scores = data.draw(arrays(np.float64, shape, elements=special | st.floats(-2.0, 2.0)))
        n = data.draw(st.integers(1, shape[-1]))
        got, want = select_queries(scores, n), ref_select_queries(scores, n)
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got, want)

    def test_nan_scores_refused(self):
        with pytest.raises(NumericError, match="NaN"):
            select_queries(np.array([[0.5, np.nan, 0.1], [0.2, 0.3, 0.4]]), 2)

    @pytest.mark.parametrize("n", [0, 4])
    def test_count_outside_one_to_size_refused(self, n):
        with pytest.raises(ContractError, match=f"cannot select {n} queries from 3"):
            select_queries(np.array([0.5, 0.2, 0.1]), n)

    def test_equals_the_stable_sort_at_train_wide_logits(self):
        logits = np.random.default_rng(4).normal(size=(8, 11, 321))
        rounded = np.round(logits, 1)  # ties at the cut in most rows
        assert (np.sum(rounded >= np.sort(rounded)[..., -11:-10], axis=-1) > 11).mean() > 0.5
        for scores in (logits, rounded):
            got = select_queries(scores, 11)
            np.testing.assert_array_equal(got, ref_select_queries(scores, 11))
            assert (got.base if got.base is not None else got).nbytes == got.nbytes  # no wider buffer

    def test_select_keys_all_when_n_equals_total(self):
        rng = np.random.default_rng(5)
        q = rng.uniform(-1, 1, (4, 3))
        k = rng.uniform(-1, 1, (4, 3))
        np.testing.assert_array_equal(select_keys(q, k), np.tile(np.arange(4), (4, 1)))

    def test_dominant_key_always_selected(self):
        k = np.zeros((5, 3))
        k[3] = [10.0, 0.0, 0.0]
        q = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        chosen = select_keys(q, k)
        assert all(3 in row for row in chosen)

    def test_against_brute_force_argsort(self):
        rng = np.random.default_rng(6)
        q = rng.uniform(-1, 1, (6, 4))
        k = rng.uniform(-1, 1, (6, 4))
        logits = q @ k.T / math.sqrt(4)
        chosen = select_keys(q, k)
        for i in range(6):
            expected = sorted(sorted(range(6), key=lambda j: (-logits[i, j], j))[:6])
            np.testing.assert_array_equal(chosen[i], expected)


class TestDenseAdjacency:
    def test_identical_embeddings_give_uniform(self):
        rng = np.random.default_rng(7)
        h = Tensor(np.tile(rng.uniform(-1, 1, (1, 4)), (2, 1)))
        wq, wk = Tensor(rng.uniform(-1, 1, (4, 4))), Tensor(rng.uniform(-1, 1, (4, 4)))
        np.testing.assert_allclose(dense_adjacency(h, wq, wk).values, 0.5, atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(8)
        h, wq, wk = random_inputs(rng, 7)
        np.testing.assert_allclose(dense_adjacency(h, wq, wk).values.sum(axis=1), 1.0, atol=1e-12)

    def test_five_node_case_matches_hand_softmax(self):
        rng = np.random.default_rng(9)
        h, wq, wk = random_inputs(rng, 5)
        expected = ref_softmax_rows(
            (h.values @ wq.values) @ (h.values @ wk.values).T / math.sqrt(4)
        )
        np.testing.assert_allclose(dense_adjacency(h, wq, wk).values, expected, atol=1e-12)


class TestSparseAdjacency:
    def test_matches_dense_when_n_forced_to_total(self):
        rng = np.random.default_rng(10)
        for n in range(2, 17):
            h, wq, wk = random_inputs(rng, n)
            sparse = build_sparse_adjacency(h, wq, wk, n, seed=n)
            dense = dense_adjacency(h, wq, wk)
            np.testing.assert_allclose(sparse.matrix.values, dense.values, atol=1e-10)

    def test_single_node(self):
        rng = np.random.default_rng(11)
        h, wq, wk = random_inputs(rng, 1)
        adj = build_sparse_adjacency(h, wq, wk, sample_count(1.0, 1))
        np.testing.assert_array_equal(adj.matrix.values, [[1.0]])
        assert adj.dot_product_count <= 2

    def test_unselected_rows_exactly_zero_and_selected_stochastic(self):
        rng = np.random.default_rng(12)
        h, wq, wk = random_inputs(rng, 10)
        adj = build_sparse_adjacency(h, wq, wk, sample_count(1.0, 10), seed=0)  # n = floor(ln 10) = 2
        matrix = adj.matrix.values
        selected = set(adj.selected_queries.tolist())
        keys_of = dict(zip(adj.selected_queries.tolist(), adj.selected_keys))
        assert len(selected) == 2
        for i in range(10):
            if i in selected:
                np.testing.assert_allclose(matrix[i].sum(), 1.0, atol=1e-10)
                assert (matrix[i][keys_of[i]] > 0).all()
                mask = np.ones(10, bool)
                mask[keys_of[i]] = False
                np.testing.assert_array_equal(matrix[i][mask], 0.0)
            else:
                np.testing.assert_array_equal(matrix[i], 0.0)

    def test_dot_product_budget(self):
        rng = np.random.default_rng(13)
        for n_nodes in (4, 16, 64):
            h, wq, wk = random_inputs(rng, n_nodes)
            adj = build_sparse_adjacency(h, wq, wk, sample_count(2.0, n_nodes), seed=1)
            assert adj.dot_product_count <= 2 * n_nodes * sample_count(2.0, n_nodes)

    def test_permutation_consistency_with_full_selection(self):
        rng = np.random.default_rng(14)
        h, wq, wk = random_inputs(rng, 6)
        perm = rng.permutation(6)
        base = build_sparse_adjacency(h, wq, wk, 6, seed=0)
        permuted = build_sparse_adjacency(
            Tensor(h.values[perm]), wq, wk, 6, seed=0
        )
        np.testing.assert_allclose(
            permuted.matrix.values[np.ix_(np.argsort(perm), np.argsort(perm))],
            base.matrix.values,
            atol=1e-12,
        )

    def test_gradients_flow_through_weights(self):
        rng = np.random.default_rng(15)
        h, wq, wk = random_inputs(rng, 5)
        probe = rng.uniform(-1, 1, (5, 5))

        def loss():
            adj = build_sparse_adjacency(h, wq, wk, sample_count(1.2, 5), seed=3)
            return ad.sum(ad.mul(adj.matrix, Tensor(probe)))

        assert finite_diff_max_err(loss, [h, wq, wk]) < 1e-4

    def test_batch_builder_matches_single(self):
        rng = np.random.default_rng(16)
        n_nodes, d, batch = 5, 4, 3
        h = Tensor(rng.uniform(-1, 1, (batch * n_nodes, d)))
        wq = Tensor(rng.uniform(-1, 1, (d, d)))
        wk = Tensor(rng.uniform(-1, 1, (d, d)))
        seed = np.random.SeedSequence([1, 2, 3])
        for n in (2, n_nodes):  # the numpy oracle also covers a proper subset
            ref_q, ref_k, ref_w = ref_sparse_adjacency_batch(
                h.values, wq.values, wk.values, n_nodes, n, seed)
            batched = build_sparse_adjacency_batch(h, wq, wk, n_nodes, n, seed)
            assert batched.weights.shape == (batch, n, n)
            np.testing.assert_array_equal(batched.selected_queries, ref_q)
            np.testing.assert_array_equal(batched.selected_keys, ref_k)
            np.testing.assert_allclose(batched.weights.values, ref_w, atol=1e-12)
        for b, adj in enumerate(batched):
            win = Tensor(h.values[b * n_nodes : (b + 1) * n_nodes])
            single = build_sparse_adjacency(win, wq, wk, n_nodes, seed=0)
            np.testing.assert_array_equal(adj.selected_queries, single.selected_queries)
            np.testing.assert_array_equal(adj.selected_keys, single.selected_keys)
            np.testing.assert_allclose(adj.weights.values, single.weights.values, atol=1e-12)
            assert adj.num_nodes == n_nodes

    def test_dump_edges_matches_matrix(self):
        rng = np.random.default_rng(17)
        h, wq, wk = random_inputs(rng, 6)
        adj = build_sparse_adjacency(h, wq, wk, sample_count(1.0, 6), seed=2)
        for i, j, w in dump_edges(adj):
            np.testing.assert_allclose(adj.matrix.values[i, j], w)
