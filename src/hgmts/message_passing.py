"""Message passing over an inferred graph with a gated dual-GRU update.

Each pathway owns a node encoder f (window -> embedding), a message net g
applied to embedding differences, two GRUs, and a scalar gate network.  One
round sends each query q the weighted sum of messages g(h_q - h_k) over its
keys k, and blends the two GRU updates with the learned gate.

Node states of a batch are stacked as (B*N, D) rows.  The graphs come as a
:class:`~hgmts.latent_graph.GraphBatch`: n queries per window with n keys
each, so the edges of a batch have the regular layout (B, n, n).  The round
never forms a per-edge input or output row, by two identities of the message
net g(v) = relu(v W1 + b1) W2 + b2:

- its first layer is linear, so (h_q - h_k) W1 + b1 = P_q - P_k + b1 with
  P = h W1 computed once on the B*N node rows;
- its output layer is affine, so sum_k w_qk g(h_q - h_k)
  = (sum_k w_qk a_qk) W2 + (sum_k w_qk) b2, where a_qk is the hidden layer,
  and it runs on the B*n query rows.

The GRU input (the aggregate) exists only on the B*n query rows; every other
row's input is zero and never stored.
"""

from __future__ import annotations

import numpy as np

from .autodiff import ContractError, Tensor
from .latent_graph import GraphBatch
from .nn import GateUnit, GRUCell, Linear, MLP2, ParamRegistry, gru_round


def aggregate(hidden: Tensor, weights: Tensor, out_layer: Linear) -> Tensor:
    """Weighted sum of each query's messages over its keys, on the query rows.

    hidden: (B, q, k, H) message hidden layer a_qk; weights: (B, q, k).
    Returns (B*q, D) = (sum_k w_qk a_qk) W2 + (sum_k w_qk) b2, one row per
    query in (window, query) order: the output layer runs once per query.
    """
    av, wv = hidden.values, weights.values
    b, q, k, width = av.shape
    w2, b2 = out_layer.w, out_layer.b
    summed = np.einsum("bqk,bqkh->bqh", wv, av).reshape(b * q, width)
    w_sum = wv.sum(axis=2).reshape(b * q, 1)
    out = summed @ w2.values
    out += w_sum * b2.values

    def grad_fn(g):
        d_summed = (g @ w2.values.T).reshape(b, q, width)
        d_weights = np.einsum("bqkh,bqh->bqk", av, d_summed)
        d_weights += (g @ b2.values).reshape(b, q, 1)
        d_hidden = wv[..., None] * d_summed[:, :, None, :]
        return d_hidden, d_weights, summed.T @ g, (w_sum * g).sum(axis=0)

    return Tensor(out, (hidden, weights, w2, b2), grad_fn)


class MessagePassingUnit:
    """The per-pathway networks; ``messages=False`` keeps only the encoder."""

    def __init__(
        self,
        reg: ParamRegistry,
        prefix: str,
        input_len: int,
        embed_dim: int,
        hidden_dim: int,
        *,
        single_gru: bool = False,
        messages: bool = True,
    ):
        self.input_len = input_len
        self.embed_dim = embed_dim
        self.encoder = MLP2(reg, f"{prefix}.enc", input_len, hidden_dim, embed_dim)
        if messages:
            self.message_net = MLP2(reg, f"{prefix}.msg", embed_dim, hidden_dim, embed_dim)
            # update gates start mostly closed so the encoder output survives the
            # early rounds and message corrections phase in during training
            self.gru1 = GRUCell(reg, f"{prefix}.gru1", embed_dim, embed_dim, update_bias=-3.0)
            self.gru2 = None if single_gru else GRUCell(reg, f"{prefix}.gru2", embed_dim, embed_dim,
                                                        update_bias=-3.0)
            self.gate = None if single_gru else GateUnit(reg, f"{prefix}.gate", 2 * embed_dim, hidden_dim)
        else:
            self.message_net = None
            self.gru1 = None
            self.gru2 = None
            self.gate = None

    def encode_nodes(self, x: Tensor) -> Tensor:
        if x.shape[1] != self.input_len:
            raise ContractError(f"window length {x.shape[1]} != configured {self.input_len}")
        return self.encoder(x)

    def compute_messages(self, h: Tensor, query_rows, key_rows) -> Tensor:
        """Hidden layer of the message net on every edge, (B, q, k, H).

        a_qk = relu((h_q - h_k) W1 + b1), computed as relu(P_q - P_k + b1) with
        P = h W1 on the node rows.  query_rows (B, q) are distinct rows of h;
        key_rows (B, q, k) are distinct within each query's row.
        """
        l1 = self.message_net.l1
        w1, b1 = l1.w, l1.b
        hv = h.values
        p = hv @ w1.values
        pre = p[query_rows][:, :, None, :] - p[key_rows]
        pre += b1.values
        out = np.maximum(pre, 0.0, out=pre)  # backward reads only the mask out > 0
        p_shape = p.shape

        def grad_fn(g):
            d_pre = g * (out > 0)
            d_p = np.zeros(p_shape)
            d_query = np.einsum("bqkh->bqh", d_pre)
            d_p[query_rows] = d_query
            # queries share keys; one query at a time keeps each write free of
            # repeats and the sum in a fixed order
            for j in range(key_rows.shape[1]):
                d_p[key_rows[:, j]] -= d_pre[:, j]
            return d_p @ w1.values.T, hv.T @ d_p, d_query.sum(axis=(0, 1))

        return Tensor(out, (h, w1, b1), grad_fn)

    def gated_update(self, h: Tensor, agg: Tensor, rows) -> Tensor:
        """Blend the two GRU updates with a per-node sigmoid gate (fixed to the
        first GRU when running single-GRU); one tape node either way.  ``agg``
        is the input of rows ``rows``; every other row's input is zero."""
        if self.gru2 is None:
            return gru_round(h, agg, rows, (self.gru1,))
        return gru_round(h, agg, rows, (self.gru1, self.gru2), self.gate)

    def run(self, h: Tensor, graph: GraphBatch, rounds: int) -> Tensor:
        """``rounds`` iterations of messages/aggregate/update from the encoded
        states ``h``.  ``graph`` stays fixed for every round; the model picks it
        by graph key, so several pathways may run on one.  rounds=0 returns ``h``."""
        if rounds < 0:
            raise ContractError(f"rounds must be >= 0, got {rounds}")
        query_rows, key_rows = graph.rows()
        for _ in range(rounds):
            hidden = self.compute_messages(h, query_rows, key_rows)
            agg = aggregate(hidden, graph.weights, self.message_net.l2)
            h = self.gated_update(h, agg, query_rows.reshape(-1))
        return h
