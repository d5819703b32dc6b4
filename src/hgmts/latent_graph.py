"""Latent graph inference from node embeddings via sparse self-attention.

A dense attention matrix over N nodes costs N^2 query-key dot products.  This
module keeps that to O(N log N): score every query against a small random key
sample, keep the n = floor(c * ln N) most concentrated queries, then attend
each of those only to its n strongest keys.  Rows of the resulting adjacency
that belong to unselected queries are exactly zero; selected rows are a
softmax over their selected keys and sum to one.

Gradients flow through the retained attention weights; the discrete top-n
choices are made on plain arrays and act as constants during backward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ContractError, NumericError, Tensor


def sample_count(c: float, n_nodes: int) -> int:
    """n = floor(c * ln N), clamped to [1, N]. Natural log throughout."""
    if n_nodes < 1:
        raise ContractError(f"need at least one node, got {n_nodes}")
    raw = math.floor(c * math.log(n_nodes)) if n_nodes > 1 else 0
    return max(1, min(n_nodes, raw))


def gamma_count(gamma: float, n_nodes: int) -> int:
    """n = round(gamma * N), clamped to [1, N]: the selection size of sparsity ratio gamma."""
    return max(1, min(n_nodes, round(gamma * n_nodes)))


@dataclass
class SparseAdjacency:
    """One window's graph: row-stochastic on the selected query rows, exact zeros elsewhere."""

    selected_queries: np.ndarray  # (n,) ascending
    selected_keys: np.ndarray  # (n, n); row i holds keys of selected_queries[i], ascending
    weights: Tensor  # (n, n) row-softmax aligned with selected_keys
    dot_product_count: int
    num_nodes: int


@dataclass
class GraphBatch:
    """The graphs of B windows in one regular layout.

    Every window selects exactly n queries with exactly n keys each, so the
    whole batch is three dense arrays.  Node indices are per window (0..N-1).
    """

    selected_queries: np.ndarray  # (B, n) ascending per window
    selected_keys: np.ndarray  # (B, n, n) ascending per query
    weights: Tensor  # (B, n, n) softmax over the key axis
    num_nodes: int

    def __len__(self) -> int:
        return self.selected_queries.shape[0]

    def __iter__(self):
        """Per-window views; they share storage and add no tape nodes."""
        n = self.selected_queries.shape[1]
        for b in range(len(self)):
            yield SparseAdjacency(
                selected_queries=self.selected_queries[b],
                selected_keys=self.selected_keys[b],
                weights=Tensor(self.weights.values[b]),
                dot_product_count=2 * self.num_nodes * n,
                num_nodes=self.num_nodes,
            )

    def rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Query rows (B, n) and key rows (B, n, n) in the stacked (B*N, D) layout."""
        offsets = self.num_nodes * np.arange(len(self))[:, None]
        return self.selected_queries + offsets, self.selected_keys + offsets[..., None]


def query_importance(q: np.ndarray, k_sampled: np.ndarray) -> np.ndarray:
    """Divergence of each query's attention over the sampled keys from uniform.

    score_i = KL(uniform || softmax(q_i k_j / sqrt(D) over sampled j))
            = logsumexp(l_i) - mean(l_i) - ln n
    Zero when a query spreads its attention evenly; grows as it concentrates.
    Leading batch axes are kept: (B, N, D) queries and (B, n, D) keys give
    (B, N) scores.  Plain arrays in and out (selection is not differentiated).
    """
    n = k_sampled.shape[-2]
    if n < 1:
        raise ContractError("query_importance requires at least one sampled key")
    d = q.shape[-1]
    logits = q @ np.swapaxes(k_sampled, -1, -2) / math.sqrt(d)
    peak = logits.max(axis=-1, keepdims=True)
    lse = peak[..., 0] + np.log(np.exp(logits - peak).sum(axis=-1))
    scores = lse - logits.mean(axis=-1) - math.log(n)
    return np.maximum(scores, 0.0)  # clamp fp residue; KL >= 0


def select_queries(scores: np.ndarray, n: int) -> np.ndarray:
    """Indices of the n largest scores along the last axis, in ascending order;
    ties go to the lowest index.  Picks the kept queries and each one's keys.

    A partition finds each row's n-th largest score t; the row keeps every
    score above t and, lowest index first, as many equal to t as fill n.  That
    is exactly the first n of a stable sort by descending score (-0.0 and 0.0
    tie), without the sort.  NaN scores, which only diverged parameters give,
    are refused.
    """
    size = scores.shape[-1]
    if not 1 <= n <= size:
        raise ContractError(f"cannot select {n} queries from {size}")
    if np.isnan(scores).any():
        raise NumericError("select_queries requires scores without NaN")
    t = np.partition(scores, size - n, axis=-1)[..., size - n, None]
    keep = scores >= t  # n in each row, or more where scores tie at t
    if np.count_nonzero(keep) > keep.size // size * n:
        above = scores > t
        tied = keep & ~above
        keep = above | (tied & (np.cumsum(tied, axis=-1) <= n - above.sum(axis=-1, keepdims=True)))
    # a fresh array: np.nonzero's last index would be a view of its (count, ndim) buffer
    return (np.flatnonzero(keep) % size).reshape(scores.shape[:-1] + (n,))


def build_sparse_adjacency_batch(
    h: Tensor,
    wq: Tensor,
    wk: Tensor,
    n_nodes: int,
    n: int,
    seed,
) -> GraphBatch:
    """The graphs of the windows whose N embedding rows are stacked in ``h``.

    Per window: keep the n queries whose attention over a sample of n keys is
    most concentrated, then attend each of them to its n strongest keys.  That
    is N*n dot products to rank the queries and n*N to score the kept ones
    against every key (2*N*n in all; the softmax reuses the latter).  One key
    sample, drawn from ``seed``, serves every window, so a window's graph does
    not depend on the others in the batch; the projections, scores, key gather
    and softmax each run once for the batch.
    """
    if not 1 <= n <= n_nodes:
        raise ContractError(f"selection size {n} out of range [1, {n_nodes}]")
    batch, dim = h.shape[0] // n_nodes, h.shape[1]
    q, k = ad.matmul(h, wq), ad.matmul(h, wk)
    kv = k.values.reshape(batch, n_nodes, dim)
    sampled = np.random.default_rng(seed).choice(n_nodes, size=n, replace=False)
    qv = q.values.reshape(batch, n_nodes, dim)
    sel_q = select_queries(query_importance(qv, kv[:, sampled]), n)

    q_sel = ad.gather(ad.reshape(q, (batch, n_nodes, dim)), sel_q[..., None], axis=1)
    k_t = ad.transpose(ad.reshape(k, (batch, n_nodes, dim)))
    logits = ad.mul(ad.matmul(q_sel, k_t), 1.0 / math.sqrt(dim))  # (B, n, N)
    sel_keys = select_queries(logits.values, n)
    weights = ad.softmax_rows(ad.gather(logits, sel_keys, axis=-1))
    return GraphBatch(
        selected_queries=sel_q, selected_keys=sel_keys, weights=weights, num_nodes=n_nodes
    )


def dump_edges(adj: SparseAdjacency) -> list[tuple[int, int, float]]:
    """(i, j, weight) triples of the nonzero entries, row-major."""
    out = []
    w = adj.weights.values
    for i, qi in enumerate(adj.selected_queries):
        for j, kj in enumerate(adj.selected_keys[i]):
            out.append((int(qi), int(kj), float(w[i, j])))
    return out
