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

Messages and their weighted sum are one tape op per round (:func:`aggregate`).
The (B, n, n, H) hidden layer a_qk is the one array of a round whose size
grows with n^2; the tape never keeps it.  The forward sums it into the query
rows and drops it, and the backward rebuilds it from h with the forward's own
GEMM and elementwise ops, so gradients are those of the stored layer, bitwise.
The GRU input (the aggregate) exists only on the B*n query rows; every other
row's input is zero and never stored.
"""

from __future__ import annotations

import numpy as np

from .autodiff import ContractError, Tensor
from .latent_graph import GraphBatch
from .nn import GateUnit, GRUCell, MLP2, ParamRegistry, gru_round


# (B, n, n, H) arrays one round holds at once: a_qk, and in the backward a_qk
# with its ReLU mask (1.24 measured by tracemalloc at B=4, n=64, H=32)
EDGE_ARRAYS = 1.25
EDGE_BUDGET = 2**30  # bytes; a forward pass whose round would need more is refused


def edge_bytes(batch: int, n: int, hidden: int) -> int:
    """Estimated peak bytes of one message round's (B, n, n, H) arrays."""
    return int(EDGE_ARRAYS * batch * n * n * hidden * 8)


def aggregate(unit: MessagePassingUnit, h: Tensor, query_rows, key_rows,
              weights: Tensor) -> Tensor:
    """Weighted sum of each query's messages over its keys, on the query rows.

    weights (B, q, k) align with ``unit.compute_messages``'s edges.  Returns
    (B*q, D) = (sum_k w_qk a_qk) W2 + (sum_k w_qk) b2, one row per query in
    (window, query) order: the output layer runs once per query.  The closure
    keeps the (B*q, H) weighted sum and the (B*q, 1) weight sums; the backward
    rebuilds a_qk with ``compute_messages`` and runs in a_qk's buffer.
    """
    hv, wv = h.values, weights.values
    l1, l2 = unit.message_net.l1, unit.message_net.l2
    b, q, _ = wv.shape
    width = l1.w.shape[1]
    summed = np.einsum("bqk,bqkh->bqh", wv, unit.compute_messages(hv, query_rows, key_rows))
    summed = summed.reshape(b * q, width)
    w_sum = wv.sum(axis=2).reshape(b * q, 1)
    out = summed @ l2.w.values
    out += w_sum * l2.b.values

    def grad_fn(g):
        a = unit.compute_messages(hv, query_rows, key_rows)
        d_summed = (g @ l2.w.values.T).reshape(b, q, width)
        d_weights = np.einsum("bqkh,bqh->bqk", a, d_summed)
        d_weights += (g @ l2.b.values).reshape(b, q, 1)
        mask = a > 0
        d_pre = np.multiply(wv[..., None], d_summed[:, :, None, :], out=a)
        d_pre *= mask
        del mask  # the loop below then holds d_pre alone
        d_p = np.zeros((hv.shape[0], width))
        d_query = np.einsum("bqkh->bqh", d_pre)
        d_p[query_rows] = d_query
        # queries share keys; one query at a time keeps each write free of
        # repeats and the sum in a fixed order
        for j in range(q):
            d_p[key_rows[:, j]] -= d_pre[:, j]
        return (d_p @ l1.w.values.T, d_weights, hv.T @ d_p, d_query.sum(axis=(0, 1)),
                summed.T @ g, (w_sum * g).sum(axis=0))

    return Tensor(out, (h, weights, l1.w, l1.b, l2.w, l2.b), grad_fn)


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

    def compute_messages(self, hv: np.ndarray, query_rows, key_rows) -> np.ndarray:
        """Hidden layer of the message net on every edge, (B, q, k, H), a plain array.

        a_qk = relu((h_q - h_k) W1 + b1), computed as relu(P_q - P_k + b1) with
        P = hv W1 on the node rows, in one (B, q, k, H) buffer.  query_rows
        (B, q) are distinct rows of hv; key_rows (B, q, k) are distinct within
        each query's row.
        """
        l1 = self.message_net.l1
        p = hv @ l1.w.values
        out = p[key_rows]
        np.subtract(p[query_rows][:, :, None, :], out, out=out)
        out += l1.b.values
        return np.maximum(out, 0.0, out=out)

    def gated_update(self, h: Tensor, agg: Tensor, rows) -> Tensor:
        """Blend the two GRU updates with a per-node sigmoid gate (fixed to the
        first GRU when running single-GRU); one tape node either way.  ``agg``
        is the input of rows ``rows``; every other row's input is zero."""
        if self.gru2 is None:
            return gru_round(h, agg, rows, (self.gru1,))
        return gru_round(h, agg, rows, (self.gru1, self.gru2), self.gate)

    def run(self, h: Tensor, graph: GraphBatch, rounds: int) -> Tensor:
        """``rounds`` iterations of aggregate/update from the encoded
        states ``h``.  ``graph`` stays fixed for every round; the model picks it
        by graph key, so several pathways may run on one.  rounds=0 returns ``h``."""
        if rounds < 0:
            raise ContractError(f"rounds must be >= 0, got {rounds}")
        query_rows, key_rows = graph.rows()
        for _ in range(rounds):
            agg = aggregate(self, h, query_rows, key_rows, graph.weights)
            h = self.gated_update(h, agg, query_rows.reshape(-1))
        return h
