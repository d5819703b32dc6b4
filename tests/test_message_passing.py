"""Node encoding, difference messages, weighted aggregation, gated updates."""

import numpy as np
import pytest

from helpers import (
    affine,
    build_sparse_adjacency,
    closure_arrays,
    finite_diff_max_err,
    gru_param_values,
    jitter_params,
    mlp_param_values,
    ref_gated_update,
    ref_gru,
    ref_message_round,
    ref_mlp2,
    ref_sigmoid,
    relu,
    saving_aggregate,
    saving_gru_round,
)
from hgmts import autodiff as ad
from hgmts.autodiff import ContractError, ShapeMismatch, Tensor
from hgmts.latent_graph import GraphBatch, build_sparse_adjacency_batch, sample_count
from hgmts.message_passing import MessagePassingUnit, aggregate
from hgmts.nn import MLP2, GateUnit, ParamRegistry, gru_round


def make_unit(input_len=6, embed=4, hidden=4, seed=0, **kw):
    reg = ParamRegistry(seed=seed)
    unit = MessagePassingUnit(reg, "u", input_len, embed, hidden, **kw)
    return unit, reg


def full_graph(n):
    """Dense uniform adjacency over n nodes as a (1, n, n) graph batch."""
    return GraphBatch(selected_queries=np.arange(n)[None],
                      selected_keys=np.tile(np.arange(n), (1, n, 1)),
                      weights=Tensor(np.full((1, n, n), 1.0 / n)), num_nodes=n)


def edge_messages(unit, h, src, dst):
    """g(h_src - h_dst) per edge through the round's message op: each edge is a
    query with one key of weight one."""
    src = np.asarray(src, dtype=int).reshape(1, -1)
    dst = np.asarray(dst, dtype=int).reshape(1, -1, 1)
    return aggregate(unit, h, src, dst, Tensor(np.ones(src.shape + (1,))))


def identity_unit(d):
    """A unit whose message net is g(v) = v exactly: W1 = [I, -I], b1 = 0,
    W2 = [I; -I], b2 = 0, so relu(v) - relu(-v) comes back; aggregate then
    returns the weighted sum of h_q - h_k itself."""
    unit, _ = make_unit(embed=d, hidden=2 * d)
    net = unit.message_net
    net.l1.w.values = np.hstack([np.eye(d), -np.eye(d)])
    net.l2.w.values = np.vstack([np.eye(d), -np.eye(d)])
    return unit


def leaf_grads(out, probe, leaves):
    """The gradients of sum(out * probe) in ``leaves``, which are cleared afterwards."""
    ad.backward(ad.sum(ad.mul(out, Tensor(probe))))
    grads = [leaf.grad for leaf in leaves]
    for leaf in leaves:
        leaf.grad = None
    return grads


def sample_graph(n_nodes, n, batch, seed):
    """A GraphBatch with random distinct queries, random keys per query and
    random positive weights whose rows do not sum to one."""
    rng = np.random.default_rng(seed)
    queries = np.stack([np.sort(rng.choice(n_nodes, n, replace=False)) for _ in range(batch)])
    keys = np.array([[rng.choice(n_nodes, n, replace=False) for _ in range(n)]
                     for _ in range(batch)], dtype=int).reshape(batch, n, n)
    return GraphBatch(selected_queries=queries, selected_keys=np.sort(keys, axis=2),
                      weights=Tensor(rng.uniform(0.1, 1.0, (batch, n, n))), num_nodes=n_nodes)


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


class TestMLP2:
    """MLP2 is one tape node with a written-out backward."""

    def make(self, seed=80):
        reg = ParamRegistry(seed=seed)
        mlp = MLP2(reg, "m", 5, 4, 3)
        jitter_params(reg, seed=seed + 1, scale=0.5)  # biases off zero: no ReLU on its kink
        x = Tensor(np.random.default_rng(seed + 2).uniform(-1, 1, (6, 5)))
        probe = np.random.default_rng(seed + 3).uniform(-1, 1, (6, 3))
        return mlp, x, probe

    def test_gradient_check(self):
        mlp, x, probe = self.make()
        leaves = [x, mlp.l1.w, mlp.l1.b, mlp.l2.w, mlp.l2.b]

        def loss():
            out = mlp(x)
            return ad.sum(ad.mul(ad.mul(out, out), Tensor(probe)))

        assert finite_diff_max_err(loss, leaves) < 1e-6

    def test_bitwise_equal_to_the_three_op_composition(self):
        mlp, x, probe = self.make(seed=90)
        leaves = [x, mlp.l1.w, mlp.l1.b, mlp.l2.w, mlp.l2.b]
        results = []

        def chain(v):  # affine, relu, affine: three tape nodes
            return affine(relu(affine(v, mlp.l1.w, mlp.l1.b)), mlp.l2.w, mlp.l2.b)

        for forward in (mlp, chain):
            out = forward(x)
            ad.backward(ad.sum(ad.mul(out, Tensor(probe))))
            results.append([out.values] + [leaf.grad for leaf in leaves])
            for leaf in leaves:
                leaf.grad = None
        (out, *grads), (ref_out, *ref_grads) = results
        assert out.tobytes() == ref_out.tobytes()
        assert out.tobytes() == ref_mlp2(x.values, *mlp_param_values(mlp)).tobytes()
        for grad, ref_grad in zip(grads, ref_grads):
            assert grad.shape == ref_grad.shape and grad.tobytes() == ref_grad.tobytes()

    def test_one_tape_node_over_its_five_leaves(self):
        mlp, x, _ = self.make()
        out = mlp(x)
        assert out._parents == (x, mlp.l1.w, mlp.l1.b, mlp.l2.w, mlp.l2.b)
        assert all(p._parents == () for p in out._parents)

    def test_width_mismatch_rejected(self):
        mlp, _, _ = self.make()
        with pytest.raises(ShapeMismatch, match="MLP2"):
            mlp(Tensor(np.zeros((2, 4))))


class TestComputeMessages:
    def test_equal_states_give_message_of_zero_difference(self):
        unit, reg = make_unit(seed=1)
        for name, p in reg.params.items():  # nonzero biases make g(0) a nontrivial constant
            if name.endswith(".b"):
                p.values = np.random.default_rng(2).uniform(-1, 1, p.values.shape)
        h = Tensor(np.tile(np.random.default_rng(3).uniform(-1, 1, (1, 4)), (3, 1)))
        msgs = edge_messages(unit, h, [0, 1], [1, 2]).values
        expected = ref_mlp2(np.zeros((1, 4)), *mlp_param_values(unit.message_net))
        np.testing.assert_allclose(msgs, np.tile(expected, (2, 1)), atol=1e-12)

    def test_messages_not_antisymmetric(self):
        unit, _ = make_unit(seed=4)
        h = Tensor(np.random.default_rng(5).uniform(-1, 1, (3, 4)))
        msgs = edge_messages(unit, h, [0, 1], [1, 0]).values
        assert np.abs(msgs[0] + msgs[1]).max() > 1e-6  # g nonlinear

    def test_three_node_chain_matches_direct_evaluation(self):
        unit, _ = make_unit(seed=6)
        h = np.random.default_rng(7).uniform(-1, 1, (3, 4))
        src, dst = [0, 1], [1, 2]
        out = edge_messages(unit, Tensor(h), src, dst).values
        expected = ref_mlp2(h[src] - h[dst], *mlp_param_values(unit.message_net))
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_empty_edges(self):
        unit, _ = make_unit()
        h = Tensor(np.zeros((3, 4)))
        assert edge_messages(unit, h, [], []).shape == (0, 4)

    def test_gradient_check_with_keys_shared_across_queries(self):
        unit, reg = make_unit(embed=3, hidden=4, seed=50)
        jitter_params(reg, seed=51)
        query_rows, key_rows = sample_graph(5, 3, 2, seed=52).rows()
        assert len(np.unique(key_rows)) < key_rows.size  # the key-side sum has repeats
        rng = np.random.default_rng(53)
        h = Tensor(rng.uniform(-1, 1, (10, 3)))
        probe = Tensor(rng.uniform(-1, 1, (6, 3)))
        l1 = unit.message_net.l1
        ones = Tensor(np.ones((2, 3, 3)))

        def loss():
            return ad.sum(ad.mul(aggregate(unit, h, query_rows, key_rows, ones), probe))

        assert finite_diff_max_err(loss, [h, l1.w, l1.b]) < 1e-4

    def test_builds_the_hidden_layer_as_a_plain_array(self):
        unit, reg = make_unit(embed=3, hidden=4, seed=50)
        jitter_params(reg, seed=51)
        query_rows, key_rows = sample_graph(5, 3, 2, seed=52).rows()
        h = np.random.default_rng(53).uniform(-1, 1, (10, 3))
        hidden = unit.compute_messages(h, query_rows, key_rows)
        assert type(hidden) is np.ndarray and hidden.shape == (2, 3, 3, 4)
        l1 = unit.message_net.l1
        src = np.repeat(query_rows.reshape(-1), 3)
        expected = np.maximum((h[src] - h[key_rows.reshape(-1)]) @ l1.w.values + l1.b.values, 0.0)
        np.testing.assert_allclose(hidden.reshape(-1, 4), expected, atol=1e-12)


class TestAggregate:
    """Messages and their weighted sum: one tape op per round."""

    def test_empty_neighborhood_is_zero(self):
        unit = identity_unit(4)
        h = Tensor(np.random.default_rng(8).uniform(-1, 1, (2, 4)))
        no_queries = aggregate(unit, h, np.zeros((1, 0), int), np.zeros((1, 0, 0), int),
                               Tensor(np.zeros((1, 0, 0))))
        assert no_queries.shape == (0, 4)
        no_keys = aggregate(unit, h, np.zeros((1, 1), int), np.zeros((1, 1, 0), int),
                            Tensor(np.zeros((1, 1, 0))))
        np.testing.assert_array_equal(no_keys.values, np.zeros((1, 4)))

    def test_single_neighbor_full_weight(self):
        m = np.random.default_rng(8).uniform(-1, 1, (1, 4))
        h = Tensor(np.vstack([m, np.zeros((1, 4))]))  # h_0 - h_1 = m
        out = aggregate(identity_unit(4), h, np.array([[0]]), np.array([[[1]]]),
                        Tensor(np.ones((1, 1, 1))))
        np.testing.assert_array_equal(out.values[0], m[0])

    def test_two_neighbors_weighted_sum(self):
        m = np.random.default_rng(9).uniform(-1, 1, (2, 4))
        h = Tensor(np.vstack([np.zeros((1, 4)), -m]))  # h_0 - h_k = m_k
        out = aggregate(identity_unit(4), h, np.array([[0]]), np.array([[[1, 2]]]),
                        Tensor(np.array([[[0.25, 0.75]]])))
        np.testing.assert_allclose(out.values[0], 0.25 * m[0] + 0.75 * m[1], atol=1e-15)

    def test_gradient_check_with_weights_not_summing_to_one(self):
        unit, reg = make_unit(embed=3, hidden=4, seed=54)
        jitter_params(reg, seed=55)  # a nonzero b2, so the (sum_k w_qk) b2 term counts
        rng = np.random.default_rng(56)
        h = Tensor(rng.uniform(-1, 1, (10, 3)))
        weights = Tensor(rng.uniform(0.1, 1.0, (2, 3, 3)))
        assert np.abs(weights.values.sum(axis=2) - 1.0).min() > 0.1
        query_rows, key_rows = sample_graph(5, 3, 2, seed=52).rows()
        net = unit.message_net

        def loss():
            out = aggregate(unit, h, query_rows, key_rows, weights)
            return ad.sum(ad.mul(out, out))

        leaves = [h, weights, net.l1.w, net.l1.b, net.l2.w, net.l2.b]
        assert finite_diff_max_err(loss, leaves) < 1e-4

    @pytest.mark.parametrize("single_gru", [False, True])
    @pytest.mark.parametrize("n", [5, 3, 0])
    def test_gradient_check(self, n, single_gru):
        """n = N, n < N (queries of a window share keys) and the empty graph, with
        weights that do not sum to one and a nonzero b2."""
        unit, reg = make_unit(embed=3, hidden=4, seed=70, single_gru=single_gru)
        jitter_params(reg, seed=71)
        graph = sample_graph(5, n, 2, seed=72)
        query_rows, key_rows = graph.rows()
        if n:
            assert not np.allclose(graph.weights.values.sum(axis=2), 1.0)
        if 1 < n < 5:
            assert len(np.unique(key_rows[0])) < key_rows[0].size
        rng = np.random.default_rng(73)
        h = Tensor(rng.uniform(-1, 1, (10, 3)))
        probe = Tensor(rng.uniform(-1, 1, (2 * n, 3)))
        net = unit.message_net
        assert np.abs(net.l2.b.values).min() > 0

        def loss():
            out = aggregate(unit, h, query_rows, key_rows, graph.weights)
            return ad.sum(ad.mul(ad.mul(out, out), probe))

        leaves = [h, graph.weights, net.l1.w, net.l1.b, net.l2.w, net.l2.b]
        assert finite_diff_max_err(loss, leaves) < 1e-4

    @pytest.mark.parametrize("single_gru", [False, True])
    @pytest.mark.parametrize("n", [5, 3, 0])
    def test_bitwise_equal_to_the_two_node_composition(self, n, single_gru):
        unit, reg = make_unit(embed=4, hidden=3, seed=75, single_gru=single_gru)
        jitter_params(reg, seed=76, scale=0.5)
        graph = sample_graph(5, n, 3, seed=77)
        query_rows, key_rows = graph.rows()
        rng = np.random.default_rng(78)
        h = Tensor(rng.uniform(-1, 1, (15, 4)))
        probe = rng.uniform(-1, 1, (3 * n, 4))
        net = unit.message_net
        leaves = [h, graph.weights, net.l1.w, net.l1.b, net.l2.w, net.l2.b]
        out = aggregate(unit, h, query_rows, key_rows, graph.weights)
        ref = saving_aggregate(unit, h, query_rows, key_rows, graph.weights)
        assert out.values.tobytes() == ref.values.tobytes()
        for grad, ref_grad in zip(leaf_grads(out, probe, leaves), leaf_grads(ref, probe, leaves)):
            assert grad.shape == ref_grad.shape and grad.tobytes() == ref_grad.tobytes()

    def test_one_tape_node_that_keeps_no_edge_array(self):
        unit, _ = make_unit(embed=4, hidden=3, seed=79)
        graph = sample_graph(5, 3, 2, seed=80)
        query_rows, key_rows = graph.rows()
        h = Tensor(np.random.default_rng(81).uniform(-1, 1, (10, 4)))
        out = aggregate(unit, h, query_rows, key_rows, graph.weights)
        net = unit.message_net
        assert out._parents == (h, graph.weights, net.l1.w, net.l1.b, net.l2.w, net.l2.b)
        parent_values = [id(p.values) for p in out._parents]
        kept = sorted(a.shape for a in closure_arrays(out._grad_fn)
                      if a.dtype == np.float64 and id(a) not in parent_values)
        assert kept == [(6, 1), (6, 3)]  # the weight sums and the weighted sum


class TestGatedUpdate:
    def test_saturated_gate_selects_first_gru(self):
        unit, _ = make_unit(seed=10)
        unit.gate.l2.b.values = np.array([20.0])  # beta -> 1
        rng = np.random.default_rng(11)
        h = Tensor(rng.uniform(-1, 1, (3, 4)))
        agg = Tensor(rng.uniform(-1, 1, (3, 4)))
        out = unit.gated_update(h, agg, np.arange(h.shape[0])).values
        h1 = unit.gru1(h, agg).values
        np.testing.assert_allclose(out, h1, atol=1e-8)

    def test_identical_grus_make_gate_irrelevant(self):
        unit, reg = make_unit(seed=12)
        for name in ("wz", "bz", "wr", "br", "wh", "bh"):
            getattr(unit.gru2, name).values = getattr(unit.gru1, name).values.copy()
        rng = np.random.default_rng(13)
        h = Tensor(rng.uniform(-1, 1, (3, 4)))
        agg = Tensor(rng.uniform(-1, 1, (3, 4)))
        out = unit.gated_update(h, agg, np.arange(h.shape[0])).values
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
        out = unit.gated_update(Tensor(h), Tensor(agg), np.arange(3)).values
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_gate_strictly_inside_unit_interval_and_convex(self):
        unit, _ = make_unit(seed=16)
        rng = np.random.default_rng(17)
        h = Tensor(rng.uniform(-3, 3, (5, 4)))
        agg = Tensor(rng.uniform(-3, 3, (5, 4)))
        beta = unit.gate(Tensor(np.concatenate([h.values, agg.values], axis=1))).values
        assert (beta > 0).all() and (beta < 1).all()
        out = unit.gated_update(h, agg, np.arange(h.shape[0])).values
        h1 = unit.gru1(h, agg).values
        h2 = unit.gru2(h, agg).values
        lo = np.minimum(h1, h2) - 1e-12
        hi = np.maximum(h1, h2) + 1e-12
        assert (out >= lo).all() and (out <= hi).all()

    def test_gate_is_the_one_output_mlp2_under_a_sigmoid(self):
        reg = ParamRegistry(seed=18)
        gate = GateUnit(reg, "g", 6, 4)
        assert list(reg.params) == ["g.l1.w", "g.l1.b", "g.l2.w", "g.l2.b"]
        assert gate.l2.w.shape == (4, 1)
        jitter_params(reg, seed=19)
        x = Tensor(np.random.default_rng(20).uniform(-1, 1, (5, 6)))
        ref = ref_sigmoid(ref_mlp2(x.values, *mlp_param_values(gate)))
        np.testing.assert_allclose(gate(x).values, ref, atol=1e-15)

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
        out = gru_round(Tensor(h), Tensor(agg), np.arange(5), cells, gate)
        np.testing.assert_allclose(out.values, expected, atol=1e-12)
        via_unit = unit.gated_update(Tensor(h), Tensor(agg), np.arange(5))
        np.testing.assert_array_equal(via_unit.values, out.values)

    @pytest.mark.parametrize("single_gru", [False, True])
    def test_fused_round_gradient_check(self, single_gru):
        unit, reg = make_unit(input_len=5, embed=3, hidden=3, seed=43, single_gru=single_gru)
        jitter_params(reg, seed=44)
        rng = np.random.default_rng(45)
        h = Tensor(rng.uniform(-1, 1, (4, 3)))
        agg = Tensor(rng.uniform(-1, 1, (4, 3)))
        probe = Tensor(rng.uniform(-1, 1, (4, 3)))
        recurrent = [p for name, p in reg.params.items()
                     if ".gru" in name or ".gate" in name]

        def loss():
            out = unit.gated_update(h, agg, np.arange(4))
            return ad.sum(ad.mul(ad.mul(out, out), probe))

        assert finite_diff_max_err(loss, [h, agg] + recurrent) < 1e-4

    @pytest.mark.parametrize("single_gru", [False, True])
    def test_query_row_input_matches_zero_padded_input(self, single_gru):
        unit, reg = make_unit(seed=57, single_gru=single_gru)
        jitter_params(reg, seed=58)
        rng = np.random.default_rng(59)
        h = rng.uniform(-1, 1, (6, 4))
        rows = np.array([4, 1, 2])
        x = rng.uniform(-1, 1, (3, 4))
        padded = np.zeros((6, 4))
        padded[rows] = x
        cells = (unit.gru1,) if single_gru else (unit.gru1, unit.gru2)
        expected = ref_gated_update(
            h, padded, *[gru_param_values(c) for c in cells],
            gate=None if single_gru else mlp_param_values(unit.gate))
        out = unit.gated_update(Tensor(h), Tensor(x), rows)
        np.testing.assert_allclose(out.values, expected, atol=1e-12)

    @pytest.mark.parametrize("single_gru", [False, True])
    def test_query_row_round_gradient_check(self, single_gru):
        unit, reg = make_unit(input_len=5, embed=3, hidden=3, seed=60, single_gru=single_gru)
        jitter_params(reg, seed=61)
        rng = np.random.default_rng(62)
        h = Tensor(rng.uniform(-1, 1, (5, 3)))
        x = Tensor(rng.uniform(-1, 1, (2, 3)))
        probe = Tensor(rng.uniform(-1, 1, (5, 3)))
        recurrent = [p for name, p in reg.params.items()
                     if ".gru" in name or ".gate" in name]

        def loss():
            out = unit.gated_update(h, x, [3, 0])
            return ad.sum(ad.mul(ad.mul(out, out), probe))

        assert finite_diff_max_err(loss, [h, x] + recurrent) < 1e-4

    @pytest.mark.parametrize("single_gru", [False, True])
    def test_round_is_bitwise_the_round_that_saves_every_array(self, single_gru):
        unit, reg = make_unit(embed=4, hidden=3, seed=65, single_gru=single_gru)
        jitter_params(reg, seed=66, scale=0.5)
        rng = np.random.default_rng(67)
        h, x = Tensor(rng.uniform(-1, 1, (5, 4))), Tensor(rng.uniform(-1, 1, (2, 4)))
        g = rng.uniform(-1, 1, (5, 4))
        cells = (unit.gru1,) if single_gru else (unit.gru1, unit.gru2)
        out = gru_round(h, x, [3, 0], cells, unit.gate)
        ref = saving_gru_round(h, x, [3, 0], cells, unit.gate)
        assert out.values.tobytes() == ref.values.tobytes()
        grads, ref_grads = out._grad_fn(g), ref._grad_fn(g)
        assert out._parents == ref._parents and len(grads) == len(out._parents)
        for grad, ref_grad in zip(grads, ref_grads):
            assert grad.shape == ref_grad.shape and grad.tobytes() == ref_grad.tobytes()

    @pytest.mark.parametrize("single_gru", [False, True])
    def test_round_keeps_only_what_its_backward_reads(self, single_gru):
        unit, _ = make_unit(embed=4, hidden=3, seed=63, single_gru=single_gru)
        rng = np.random.default_rng(64)
        h, x = Tensor(rng.uniform(-1, 1, (5, 4))), Tensor(rng.uniform(-1, 1, (2, 4)))
        out = unit.gated_update(h, x, [3, 0])
        parent_values = [id(p.values) for p in out._parents]
        kept = sorted(a.shape for a in closure_arrays(out._grad_fn)
                      if a.dtype == np.float64 and id(a) not in parent_values)
        # z, r and the candidate of each cell; the gate's ReLU output and beta
        assert kept == ([(5, 4)] * 3 if single_gru else [(5, 1), (5, 3)] + [(5, 4)] * 6)

    def test_single_gru_unit_returns_first_update(self):
        unit, _ = make_unit(seed=18, single_gru=True)
        assert unit.gru2 is None and unit.gate is None
        rng = np.random.default_rng(19)
        h = Tensor(rng.uniform(-1, 1, (3, 4)))
        agg = Tensor(rng.uniform(-1, 1, (3, 4)))
        np.testing.assert_array_equal(unit.gated_update(h, agg, np.arange(h.shape[0])).values,
                                      unit.gru1(h, agg).values)


class TestRunMessagePassing:
    def test_zero_rounds_returns_encoding(self):
        unit, _ = make_unit(seed=20)
        x = Tensor(np.random.default_rng(21).uniform(-1, 1, (3, 6)))
        out = unit.run(unit.encode_nodes(x), full_graph(3), 0)
        np.testing.assert_array_equal(out.values, unit.encode_nodes(x).values)

    def test_negative_rounds_rejected(self):
        unit, _ = make_unit()
        with pytest.raises(ContractError):
            unit.run(unit.encode_nodes(Tensor(np.zeros((2, 6)))), full_graph(2), -1)

    def test_single_node_self_message(self):
        """N=1: the graph is the self-loop with weight one and g(0) drives the update."""
        unit, reg = make_unit(seed=22)
        wq = reg.weight("wq", 4, 4)
        wk = reg.weight("wk", 4, 4)
        x = Tensor(np.random.default_rng(23).uniform(-1, 1, (1, 6)))

        h = unit.encode_nodes(x)
        adj = build_sparse_adjacency(h, wq, wk, sample_count(1.0, 1))
        np.testing.assert_array_equal(adj.matrix.values, [[1.0]])
        graph = build_sparse_adjacency_batch(h, wq, wk, 1, 1, 0)

        out = unit.run(h, graph, 1).values
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
        out = unit.run(unit.encode_nodes(x), edges, 1).values

        h0 = unit.encode_nodes(x)
        query_rows, key_rows = edges.rows()
        agg = aggregate(unit, h0, query_rows, key_rows, edges.weights)
        expected = unit.gated_update(h0, agg, query_rows.reshape(-1)).values
        np.testing.assert_allclose(out, expected, atol=1e-12)

    @pytest.mark.parametrize("single_gru", [False, True])
    @pytest.mark.parametrize("n", [5, 3, 0])
    def test_rounds_match_per_edge_oracle(self, n, single_gru):
        """n = N, n < N (several queries of a window share keys) and no queries."""
        unit, reg = make_unit(seed=63, single_gru=single_gru)
        jitter_params(reg, seed=64)
        graph = sample_graph(5, n, 3, seed=65)
        query_rows, key_rows = graph.rows()
        if n > 1:
            assert len(np.unique(key_rows[0])) < key_rows[0].size
        x = Tensor(np.random.default_rng(66).uniform(-1, 1, (15, 6)))
        params = dict(msg=mlp_param_values(unit.message_net),
                      gru1=gru_param_values(unit.gru1),
                      gru2=None if single_gru else gru_param_values(unit.gru2),
                      gate=None if single_gru else mlp_param_values(unit.gate))
        expected = unit.encode_nodes(x).values
        for _ in range(2):
            expected = ref_message_round(expected, query_rows, key_rows, graph.weights.values,
                                         **params)
        out = unit.run(unit.encode_nodes(x), graph, 2).values
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_node_permutation_equivariance(self):
        unit, _ = make_unit(seed=26)
        rng = np.random.default_rng(27)
        x = rng.uniform(-1, 1, (4, 6))
        perm = rng.permutation(4)

        base = unit.run(unit.encode_nodes(Tensor(x)), full_graph(4), 3).values
        permuted = unit.run(unit.encode_nodes(Tensor(x[perm])), full_graph(4), 3).values
        np.testing.assert_allclose(permuted, base[perm], atol=1e-12)

    def test_zero_adjacency_keeps_nodes_independent(self):
        unit, _ = make_unit(seed=28)
        empty = GraphBatch(selected_queries=np.zeros((1, 0), int),
                           selected_keys=np.zeros((1, 0, 0), int),
                           weights=Tensor(np.zeros((1, 0, 0))), num_nodes=3)
        rng = np.random.default_rng(29)
        x = rng.uniform(-1, 1, (3, 6))
        base = unit.run(unit.encode_nodes(Tensor(x)), empty, 2).values
        x2 = x.copy()
        x2[1] += rng.uniform(0.5, 1.0, 6)
        changed = unit.run(unit.encode_nodes(Tensor(x2)), empty, 2).values
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

        def loss():
            h = unit.encode_nodes(x)
            graph = build_sparse_adjacency_batch(h, wq, wk, 3, 3, 5)
            return ad.sum(ad.mul(unit.run(h, graph, 3), Tensor(probe)))

        leaves = [x, *reg.params.values()]
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
                adj = build_sparse_adjacency(h, wq, wk, 2, seed=5)
                frozen["idx"] = (adj.selected_queries, adj.selected_keys)
            sel_q, sel_keys = frozen["idx"]
            q, k = ad.matmul(h, wq), ad.matmul(h, wk)
            logits = ad.mul(ad.matmul(ad.gather(q, sel_q[:, None], axis=0), ad.transpose(k)),
                            1.0 / np.sqrt(3))
            weights = ad.softmax_rows(ad.gather(logits, sel_keys, axis=-1))
            return GraphBatch(selected_queries=sel_q[None], selected_keys=sel_keys[None],
                              weights=ad.reshape(weights, (1, 2, 2)), num_nodes=3)

        def loss():
            h = unit.encode_nodes(x)
            return ad.sum(ad.mul(unit.run(h, graph_fn(h), 3), Tensor(probe)))

        leaves = [x, *reg.params.values()]
        assert finite_diff_max_err(loss, leaves, max_per_leaf=6) < 1e-4
