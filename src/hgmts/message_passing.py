"""Message passing over an inferred graph with a gated dual-GRU update.

Each pathway owns a node encoder f (window -> embedding), a message net g
applied to embedding differences, two GRUs, and a scalar gate network.  One
round computes messages on the current edges, aggregates them per node with
the adjacency weights, and blends the two GRU updates with the learned gate.

Node states of a batch are stacked as (B*N, D) rows.  The graphs come as a
:class:`~hgmts.latent_graph.GraphBatch`: n queries per window with n keys
each, so the edges of a batch have the regular layout (B, n, n).
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import ContractError, Tensor
from .latent_graph import GraphBatch
from .nn import GateUnit, GRUCell, MLP2, ParamRegistry, gru_round


def aggregate(messages: Tensor, weights: Tensor, rows, num_rows: int) -> Tensor:
    """Weighted sum of each query's messages over its keys, written into its row.

    messages: (B*q*k, D) in (window, query, key) order; weights: (B, q, k);
    rows: (B, q) distinct rows of the queries.  Rows of no query stay zero.
    """
    b, q, k = weights.shape
    m = ad.reshape(messages, (b, q, k, messages.shape[1]))
    summed = ad.sum(ad.mul(m, ad.reshape(weights, (b, q, k, 1))), axis=2)  # (B, q, D)
    return ad.put_rows(summed, rows, num_rows)


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

    def compute_messages(self, h: Tensor, src, dst) -> Tensor:
        """g(h_src - h_dst) for each edge; (E, D)."""
        diff = ad.sub(ad.take_rows(h, src), ad.take_rows(h, dst))
        return self.message_net(diff)

    def gated_update(self, h: Tensor, agg: Tensor) -> Tensor:
        """Blend the two GRU updates with a per-node sigmoid gate (fixed to the
        first GRU when running single-GRU); one tape node either way."""
        if self.gru2 is None:
            return self.gru1(h, agg)
        return gru_round(h, agg, (self.gru1, self.gru2), self.gate)

    def run(self, x: Tensor, graph_fn, rounds: int, *, recompute_each_round: bool = False):
        """Encode, then ``rounds`` iterations of messages/aggregate/update.

        ``graph_fn(h)`` returns the GraphBatch to use; by default it is called
        once on the initial embeddings and the graphs stay fixed.  rounds=0
        returns the raw encoding (testing hook).
        """
        if rounds < 0:
            raise ContractError(f"rounds must be >= 0, got {rounds}")
        h = self.encode_nodes(x)
        graph: GraphBatch | None = None
        for _ in range(rounds):
            if graph is None or recompute_each_round:
                graph = graph_fn(h)
                query_rows, key_rows = graph.rows()
                src = np.repeat(query_rows, key_rows.shape[-1])
                dst = key_rows.reshape(-1)
            m = self.compute_messages(h, src, dst)
            agg = aggregate(m, graph.weights, query_rows, h.shape[0])
            h = self.gated_update(h, agg)
        return h
