"""Sparse attention graph inference against dense and brute-force oracles."""

import math

import numpy as np
import pytest

from helpers import finite_diff_max_err, ref_softmax_rows, ref_sparse_adjacency_batch
from hgmts import autodiff as ad
from hgmts.autodiff import ContractError, Tensor
from hgmts.latent_graph import (
    LgslConfig,
    build_sparse_adjacency,
    build_sparse_adjacency_batch,
    c_for_gamma,
    dense_adjacency,
    dump_edges,
    project_qk,
    query_importance,
    sample_count,
    select_keys,
    select_queries,
)


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
        counts = [sample_count(c_for_gamma(g, 8), 8) for g in np.linspace(0.0, 1.2, 25)]
        assert counts == sorted(counts)
        assert counts[0] == 1 and counts[-1] == 8

    def test_gamma_hits_rounded_fraction(self):
        for n_nodes in (4, 8, 16, 64):
            for gamma in (0.2, 0.3, 0.5, 0.7, 1.0):
                n = sample_count(c_for_gamma(gamma, n_nodes), n_nodes)
                assert n == max(1, min(n_nodes, round(gamma * n_nodes)))


class TestProjectQK:
    def test_identity_weights(self):
        rng = np.random.default_rng(0)
        h = Tensor(rng.uniform(-1, 1, (5, 3)))
        eye = Tensor(np.eye(3))
        q, k = project_qk(h, eye, eye)
        np.testing.assert_array_equal(q.values, h.values)
        np.testing.assert_array_equal(k.values, h.values)

    def test_one_hot_rows_extract_weight_rows(self):
        wq = Tensor(np.random.default_rng(1).uniform(-1, 1, (3, 3)))
        h = Tensor(np.eye(3))
        q, _ = project_qk(h, wq, wq)
        np.testing.assert_array_equal(q.values, wq.values)

    def test_random_case_matches_hand_matmul(self):
        rng = np.random.default_rng(2)
        h = rng.uniform(-1, 1, (3, 2))
        wq = rng.uniform(-1, 1, (2, 2))
        q, _ = project_qk(Tensor(h), Tensor(wq), Tensor(wq))
        np.testing.assert_allclose(q.values, h @ wq, atol=1e-15)


class TestQueryImportance:
    def test_uniform_attention_scores_zero(self):
        # zero queries give equal logits for every sampled key
        q = np.zeros((4, 3))
        keys = np.random.default_rng(0).uniform(-1, 1, (5, 3))
        scores = query_importance(q, keys).values
        np.testing.assert_allclose(scores, 0.0, atol=1e-12)

    def test_closed_form_two_keys(self):
        # logits (0, ln 3) -> p = (1/4, 3/4); divergence from uniform = ln(4/3)/2
        q = np.array([[1.0]])
        keys = np.array([[0.0], [math.log(3.0)]])
        score = query_importance(q, keys).values[0]
        np.testing.assert_allclose(score, 0.5 * math.log(4.0 / 3.0), atol=1e-10)

    def test_score_grows_with_concentration(self):
        rng = np.random.default_rng(3)
        q = rng.uniform(-1, 1, (1, 4))
        keys = rng.uniform(-1, 1, (6, 4))
        scores = [query_importance(q * s, keys).values[0] for s in (1.0, 4.0, 16.0)]
        assert scores[0] < scores[1] < scores[2]

    def test_shift_invariance_per_query(self):
        # adding v to every key shifts each query's logits by a constant
        rng = np.random.default_rng(4)
        q = rng.uniform(-1, 1, (5, 3))
        keys = rng.uniform(-1, 1, (4, 3))
        v = rng.uniform(-2, 2, 3)
        base = query_importance(q, keys).values
        shifted = query_importance(q, keys + v).values
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
            sparse = build_sparse_adjacency(h, wq, wk, LgslConfig(1.0, seed=n), n_override=n)
            dense = dense_adjacency(h, wq, wk)
            np.testing.assert_allclose(sparse.matrix.values, dense.values, atol=1e-10)

    def test_single_node(self):
        rng = np.random.default_rng(11)
        h, wq, wk = random_inputs(rng, 1)
        adj = build_sparse_adjacency(h, wq, wk, LgslConfig(1.0))
        np.testing.assert_array_equal(adj.matrix.values, [[1.0]])
        assert adj.dot_product_count <= 2

    def test_unselected_rows_exactly_zero_and_selected_stochastic(self):
        rng = np.random.default_rng(12)
        h, wq, wk = random_inputs(rng, 10)
        adj = build_sparse_adjacency(h, wq, wk, LgslConfig(1.0, seed=0))  # n = floor(ln 10) = 2
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
            cfg = LgslConfig(2.0, seed=1)
            adj = build_sparse_adjacency(h, wq, wk, cfg)
            assert adj.dot_product_count <= 2 * n_nodes * sample_count(2.0, n_nodes)

    def test_permutation_consistency_with_full_selection(self):
        rng = np.random.default_rng(14)
        h, wq, wk = random_inputs(rng, 6)
        perm = rng.permutation(6)
        base = build_sparse_adjacency(h, wq, wk, LgslConfig(1.0, seed=0), n_override=6)
        permuted = build_sparse_adjacency(
            Tensor(h.values[perm]), wq, wk, LgslConfig(1.0, seed=0), n_override=6
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
            adj = build_sparse_adjacency(h, wq, wk, LgslConfig(1.2, seed=3))
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
                h.values, wq.values, wk.values, n_nodes, n, batch, seed)
            batched = build_sparse_adjacency_batch(h, wq, wk, n_nodes, n, batch, seed)
            assert batched.weights.shape == (batch, n, n)
            np.testing.assert_array_equal(batched.selected_queries, ref_q)
            np.testing.assert_array_equal(batched.selected_keys, ref_k)
            np.testing.assert_allclose(batched.weights.values, ref_w, atol=1e-12)
        for b, adj in enumerate(batched):
            win = Tensor(h.values[b * n_nodes : (b + 1) * n_nodes])
            single = build_sparse_adjacency(win, wq, wk, LgslConfig(1.0), n_override=n_nodes)
            np.testing.assert_array_equal(adj.selected_queries, single.selected_queries)
            np.testing.assert_array_equal(adj.selected_keys, single.selected_keys)
            np.testing.assert_allclose(adj.weights.values, single.weights.values, atol=1e-12)
            assert adj.num_nodes == n_nodes

    def test_dump_edges_matches_matrix(self):
        rng = np.random.default_rng(17)
        h, wq, wk = random_inputs(rng, 6)
        adj = build_sparse_adjacency(h, wq, wk, LgslConfig(1.0, seed=2))
        for i, j, w in dump_edges(adj):
            np.testing.assert_allclose(adj.matrix.values[i, j], w)
