"""Node encoding, difference messages, weighted aggregation, gated updates."""

import numpy as np
import pytest

from helpers import (
    finite_diff_max_err,
    gru_param_values,
    jitter_params,
    mlp_param_values,
    ref_gated_update,
    ref_gru,
    ref_mlp2,
    ref_sigmoid,
)
from hgmts import autodiff as ad
from hgmts.autodiff import ContractError, Tensor
from hgmts.latent_graph import (
    GraphBatch,
    LgslConfig,
    build_sparse_adjacency,
    build_sparse_adjacency_batch,
)
from hgmts.message_passing import MessagePassingUnit, aggregate
from hgmts.nn import ParamRegistry, gru_round


def make_unit(input_len=6, embed=4, hidden=4, seed=0, **kw):
    reg = ParamRegistry(seed=seed)
    unit = MessagePassingUnit(reg, "u", input_len, embed, hidden, **kw)
    return unit, reg


def full_graph(n):
    """Dense uniform adjacency over n nodes as a (1, n, n) graph batch."""
    return GraphBatch(selected_queries=np.arange(n)[None],
                      selected_keys=np.tile(np.arange(n), (1, n, 1)),
                      weights=Tensor(np.full((1, n, n), 1.0 / n)), num_nodes=n)


class TestEncodeNodes:
    def test_identical_windows_get_identical_embeddings(self):
        unit, _ = make_unit()
        x = np.random.default_rng(0).uniform(-1, 1, 6)
        h = unit.encode_nodes(Tensor(np.stack([x, x, x]))).values
        np.testing.assert_array_equal(h[0], h[1])
        np.testing.assert_array_equal(h[1], h[2])

    def test_zero_window_with_zero_bias_encoder_gives_zero(self):
        unit, _ = make_unit()  # biases initialize to zero
        h = unit.encode_nodes(Tensor(np.zeros((3, 6)))).values
        np.testing.assert_array_equal(h, np.zeros((3, 4)))

    def test_shape_contract(self):
        unit, _ = make_unit(input_len=96, embed=64)
        h = unit.encode_nodes(Tensor(np.zeros((7, 96))))
        assert h.shape == (7, 64)

    def test_wrong_length_rejected(self):
        unit, _ = make_unit(input_len=6)
        with pytest.raises(ContractError):
            unit.encode_nodes(Tensor(np.zeros((3, 5))))

    def test_matches_reference_mlp(self):
        unit, _ = make_unit(seed=3)
        x = np.random.default_rng(1).uniform(-1, 1, (4, 6))
        expected = ref_mlp2(x, *mlp_param_values(unit.encoder))
        np.testing.assert_allclose(unit.encode_nodes(Tensor(x)).values, expected, atol=1e-12)


class TestComputeMessages:
    def test_equal_states_give_message_of_zero_difference(self):
        unit, reg = make_unit(seed=1)
        for p in reg.params.values():  # nonzero biases make g(0) a nontrivial constant
            if p.name.endswith(".b"):
                p.tensor.values = np.random.default_rng(2).uniform(-1, 1, p.values.shape)
        h = Tensor(np.tile(np.random.default_rng(3).uniform(-1, 1, (1, 4)), (3, 1)))
        msgs = unit.compute_messages(h, [0, 1], [1, 2]).values
        expected = ref_mlp2(np.zeros((1, 4)), *mlp_param_values(unit.message_net))
        np.testing.assert_allclose(msgs, np.tile(expected, (2, 1)), atol=1e-12)

    def test_messages_not_antisymmetric(self):
        unit, _ = make_unit(seed=4)
        h = Tensor(np.random.default_rng(5).uniform(-1, 1, (3, 4)))
        msgs = unit.compute_messages(h, [0, 1], [1, 0]).values
        assert np.abs(msgs[0] + msgs[1]).max() > 1e-6  # g nonlinear

    def test_three_node_chain_matches_direct_evaluation(self):
        unit, _ = make_unit(seed=6)
        h = np.random.default_rng(7).uniform(-1, 1, (3, 4))
        src, dst = [0, 1], [1, 2]
        out = unit.compute_messages(Tensor(h), src, dst).values
        expected = ref_mlp2(h[src] - h[dst], *mlp_param_values(unit.message_net))
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_empty_edges(self):
        unit, _ = make_unit()
        h = Tensor(np.zeros((3, 4)))
        assert unit.compute_messages(h, [], []).shape == (0, 4)


class TestAggregate:
    def test_empty_neighborhood_is_zero(self):
        no_queries = np.zeros((1, 0), int)
        out = aggregate(Tensor(np.zeros((0, 4))), Tensor(np.zeros((1, 0, 0))), no_queries, 3)
        np.testing.assert_array_equal(out.values, np.zeros((3, 4)))

    def test_single_neighbor_full_weight(self):
        m = np.random.default_rng(8).uniform(-1, 1, (1, 4))
        out = aggregate(Tensor(m), Tensor(np.ones((1, 1, 1))), [[2]], 3)
        np.testing.assert_array_equal(out.values[2], m[0])
        np.testing.assert_array_equal(out.values[[0, 1]], np.zeros((2, 4)))

    def test_two_neighbors_weighted_sum(self):
        m = np.random.default_rng(9).uniform(-1, 1, (2, 4))
        out = aggregate(Tensor(m), Tensor(np.array([[[0.25, 0.75]]])), [[1]], 3)
        np.testing.assert_allclose(out.values[1], 0.25 * m[0] + 0.75 * m[1], atol=1e-15)


class TestGatedUpdate:
    def test_saturated_gate_selects_first_gru(self):
        unit, _ = make_unit(seed=10)
        unit.gate.l2.b.tensor.values = np.array([20.0])  # beta -> 1
        rng = np.random.default_rng(11)
        h = Tensor(rng.uniform(-1, 1, (3, 4)))
        agg = Tensor(rng.uniform(-1, 1, (3, 4)))
        out = unit.gated_update(h, agg).values
        h1 = unit.gru1(h, agg).values
        np.testing.assert_allclose(out, h1, atol=1e-8)

    def test_identical_grus_make_gate_irrelevant(self):
        unit, reg = make_unit(seed=12)
        for name in ("wz", "bz", "wr", "br", "wh", "bh"):
            getattr(unit.gru2, name).tensor.values = getattr(unit.gru1, name).values.copy()
        rng = np.random.default_rng(13)
        h = Tensor(rng.uniform(-1, 1, (3, 4)))
        agg = Tensor(rng.uniform(-1, 1, (3, 4)))
        out = unit.gated_update(h, agg).values
        np.testing.assert_allclose(out, unit.gru1(h, agg).values, atol=1e-12)

    def test_matches_reference_gru_blend(self):
        unit, _ = make_unit(seed=14)
        rng = np.random.default_rng(15)
        h = rng.uniform(-1, 1, (3, 4))
        agg = rng.uniform(-1, 1, (3, 4))
        h1 = ref_gru(h, agg, *gru_param_values(unit.gru1))
        h2 = ref_gru(h, agg, *gru_param_values(unit.gru2))
        hx = np.concatenate([h, agg], axis=1)
        gate_hidden = np.maximum(hx @ unit.gate.l1.w.values + unit.gate.l1.b.values, 0.0)
        beta = ref_sigmoid(gate_hidden @ unit.gate.l2.w.values + unit.gate.l2.b.values)
        expected = beta * h1 + (1.0 - beta) * h2
        out = unit.gated_update(Tensor(h), Tensor(agg)).values
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_gate_strictly_inside_unit_interval_and_convex(self):
        unit, _ = make_unit(seed=16)
        rng = np.random.default_rng(17)
        h = Tensor(rng.uniform(-3, 3, (5, 4)))
        agg = Tensor(rng.uniform(-3, 3, (5, 4)))
        beta = unit.gate(ad.concat([h, agg], axis=1)).values
        assert (beta > 0).all() and (beta < 1).all()
        out = unit.gated_update(h, agg).values
        h1 = unit.gru1(h, agg).values
        h2 = unit.gru2(h, agg).values
        lo = np.minimum(h1, h2) - 1e-12
        hi = np.maximum(h1, h2) + 1e-12
        assert (out >= lo).all() and (out <= hi).all()

    @pytest.mark.parametrize("single_gru", [False, True])
    def test_fused_round_matches_reference_oracle(self, single_gru):
        unit, reg = make_unit(seed=40, single_gru=single_gru)
        jitter_params(reg, seed=41)
        rng = np.random.default_rng(42)
        h = rng.uniform(-1, 1, (5, 4))
        agg = rng.uniform(-1, 1, (5, 4))
        cells = (unit.gru1,) if single_gru else (unit.gru1, unit.gru2)
        gate = None if single_gru else unit.gate
        expected = ref_gated_update(
            h, agg, *[gru_param_values(c) for c in cells],
            gate=None if gate is None else mlp_param_values(gate))
        out = gru_round(Tensor(h), Tensor(agg), cells, gate)
        np.testing.assert_allclose(out.values, expected, atol=1e-12)
        via_unit = unit.gated_update(Tensor(h), Tensor(agg))
        np.testing.assert_array_equal(via_unit.values, out.values)

    @pytest.mark.parametrize("single_gru", [False, True])
    def test_fused_round_gradient_check(self, single_gru):
        unit, reg = make_unit(input_len=5, embed=3, hidden=3, seed=43, single_gru=single_gru)
        jitter_params(reg, seed=44)
        rng = np.random.default_rng(45)
        h = Tensor(rng.uniform(-1, 1, (4, 3)))
        agg = Tensor(rng.uniform(-1, 1, (4, 3)))
        probe = Tensor(rng.uniform(-1, 1, (4, 3)))
        recurrent = [p.tensor for name, p in reg.params.items()
                     if ".gru" in name or ".gate" in name]

        def loss():
            out = unit.gated_update(h, agg)
            return ad.sum(ad.mul(ad.mul(out, out), probe))

        assert finite_diff_max_err(loss, [h, agg] + recurrent) < 1e-4

    def test_single_gru_unit_returns_first_update(self):
        unit, _ = make_unit(seed=18, single_gru=True)
        assert unit.gru2 is None and unit.gate is None
        rng = np.random.default_rng(19)
        h = Tensor(rng.uniform(-1, 1, (3, 4)))
        agg = Tensor(rng.uniform(-1, 1, (3, 4)))
        np.testing.assert_array_equal(unit.gated_update(h, agg).values,
                                      unit.gru1(h, agg).values)


class TestRunMessagePassing:
    def test_zero_rounds_returns_encoding(self):
        unit, _ = make_unit(seed=20)
        x = Tensor(np.random.default_rng(21).uniform(-1, 1, (3, 6)))
        out = unit.run(x, lambda h: full_graph(3), 0)
        np.testing.assert_array_equal(out.values, unit.encode_nodes(x).values)

    def test_negative_rounds_rejected(self):
        unit, _ = make_unit()
        with pytest.raises(ContractError):
            unit.run(Tensor(np.zeros((2, 6))), lambda h: full_graph(2), -1)

    def test_single_node_self_message(self):
        """N=1: the graph is the self-loop with weight one and g(0) drives the update."""
        unit, reg = make_unit(seed=22)
        wq = reg.weight("wq", 4, 4)
        wk = reg.weight("wk", 4, 4)
        x = Tensor(np.random.default_rng(23).uniform(-1, 1, (1, 6)))

        def graph_fn(h):
            adj = build_sparse_adjacency(h, wq.tensor, wk.tensor, LgslConfig(1.0))
            np.testing.assert_array_equal(adj.matrix.values, [[1.0]])
            return build_sparse_adjacency_batch(h, wq.tensor, wk.tensor, 1, 1, 1, 0)

        out = unit.run(x, graph_fn, 1).values
        h0 = unit.encode_nodes(x).values
        g0 = ref_mlp2(np.zeros((1, 4)), *mlp_param_values(unit.message_net))
        h1 = ref_gru(h0, g0, *gru_param_values(unit.gru1))
        h2 = ref_gru(h0, g0, *gru_param_values(unit.gru2))
        hx = np.concatenate([h0, g0], axis=1)
        gate_hidden = np.maximum(hx @ unit.gate.l1.w.values + unit.gate.l1.b.values, 0.0)
        beta = ref_sigmoid(gate_hidden @ unit.gate.l2.w.values + unit.gate.l2.b.values)
        np.testing.assert_allclose(out, beta * h1 + (1 - beta) * h2, atol=1e-12)

    def test_one_round_matches_stepwise_composition(self):
        unit, _ = make_unit(seed=24)
        x = Tensor(np.random.default_rng(25).uniform(-1, 1, (3, 6)))
        edges = full_graph(3)
        out = unit.run(x, lambda h: edges, 1).values

        h0 = unit.encode_nodes(x)
        query_rows, key_rows = edges.rows()
        msgs = unit.compute_messages(h0, np.repeat(query_rows, 3), key_rows.reshape(-1))
        agg = aggregate(msgs, edges.weights, query_rows, 3)
        expected = unit.gated_update(h0, agg).values
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_node_permutation_equivariance(self):
        unit, _ = make_unit(seed=26)
        rng = np.random.default_rng(27)
        x = rng.uniform(-1, 1, (4, 6))
        perm = rng.permutation(4)

        base = unit.run(Tensor(x), lambda h: full_graph(4), 3).values
        permuted = unit.run(Tensor(x[perm]), lambda h: full_graph(4), 3).values
        np.testing.assert_allclose(permuted, base[perm], atol=1e-12)

    def test_zero_adjacency_keeps_nodes_independent(self):
        unit, _ = make_unit(seed=28)
        empty = GraphBatch(selected_queries=np.zeros((1, 0), int),
                           selected_keys=np.zeros((1, 0, 0), int),
                           weights=Tensor(np.zeros((1, 0, 0))), num_nodes=3)
        rng = np.random.default_rng(29)
        x = rng.uniform(-1, 1, (3, 6))
        base = unit.run(Tensor(x), lambda h: empty, 2).values
        x2 = x.copy()
        x2[1] += rng.uniform(0.5, 1.0, 6)
        changed = unit.run(Tensor(x2), lambda h: empty, 2).values
        np.testing.assert_array_equal(changed[0], base[0])
        np.testing.assert_array_equal(changed[2], base[2])
        assert (changed[1] != base[1]).any()

    def test_full_three_round_gradient_check(self):
        # full selection keeps the check away from top-n flip discontinuities
        unit, reg = make_unit(input_len=5, embed=3, hidden=3, seed=30)
        wq = reg.weight("wq", 3, 3)
        wk = reg.weight("wk", 3, 3)
        jitter_params(reg, seed=36)
        x = Tensor(np.random.default_rng(31).uniform(-1, 1, (3, 5)))
        probe = np.random.default_rng(32).uniform(-1, 1, (3, 3))

        def graph_fn(h):
            return build_sparse_adjacency_batch(h, wq.tensor, wk.tensor, 3, 3, 1, 5)

        def loss():
            out = unit.run(x, graph_fn, 3)
            return ad.sum(ad.mul(out, Tensor(probe)))

        leaves = [x] + [p.tensor for p in reg.params.values()]
        assert finite_diff_max_err(loss, leaves, max_per_leaf=6) < 1e-4

    def test_three_round_gradient_check_with_frozen_sparse_structure(self):
        """With n < N the backward pass holds the selected structure constant;
        the finite-difference oracle must compare against the same function."""
        unit, reg = make_unit(input_len=5, embed=3, hidden=3, seed=33)
        wq = reg.weight("wq", 3, 3)
        wk = reg.weight("wk", 3, 3)
        jitter_params(reg, seed=37)
        x = Tensor(np.random.default_rng(34).uniform(-1, 1, (3, 5)))
        probe = np.random.default_rng(35).uniform(-1, 1, (3, 3))
        frozen = {}

        def graph_fn(h):
            if "idx" not in frozen:
                adj = build_sparse_adjacency(h, wq.tensor, wk.tensor,
                                             LgslConfig(1.0, seed=5), n_override=2)
                frozen["idx"] = (adj.selected_queries, adj.selected_keys)
            sel_q, sel_keys = frozen["idx"]
            q, k = ad.matmul(h, wq.tensor), ad.matmul(h, wk.tensor)
            logits = ad.mul(ad.matmul(ad.take_rows(q, sel_q), ad.transpose(k)),
                            1.0 / np.sqrt(3))
            weights = ad.softmax_rows(ad.gather_last(logits, sel_keys))
            return GraphBatch(selected_queries=sel_q[None], selected_keys=sel_keys[None],
                              weights=ad.reshape(weights, (1, 2, 2)), num_nodes=3)

        def loss():
            return ad.sum(ad.mul(unit.run(x, graph_fn, 3), Tensor(probe)))

        leaves = [x] + [p.tensor for p in reg.params.values()]
        assert finite_diff_max_err(loss, leaves, max_per_leaf=6) < 1e-4
