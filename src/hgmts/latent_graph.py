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
from .autodiff import ContractError, Tensor


@dataclass
class LgslConfig:
    """Sampling factor c sets n = floor(c * ln N), clamped to [1, N]."""

    sampling_c: float
    seed: int = 0


def sample_count(c: float, n_nodes: int) -> int:
    """n = floor(c * ln N), clamped to [1, N]. Natural log throughout."""
    if n_nodes < 1:
        raise ContractError(f"need at least one node, got {n_nodes}")
    raw = math.floor(c * math.log(n_nodes)) if n_nodes > 1 else 0
    return max(1, min(n_nodes, raw))


def c_for_gamma(gamma: float, n_nodes: int) -> float:
    """Sampling factor whose floor(c * ln N) hits round(gamma * N), clamped to [1, N]."""
    n = max(1, min(n_nodes, round(gamma * n_nodes)))
    if n_nodes <= 1:
        return 1.0
    return (n + 0.5) / math.log(n_nodes)  # +0.5 keeps the floor off an exact boundary


@dataclass
class SparseAdjacency:
    """One window's graph: row-stochastic on the selected query rows, exact zeros elsewhere.

    ``matrix`` (N x N) is materialized only by :func:`build_sparse_adjacency`;
    the per-window views of a :class:`GraphBatch` leave it None.
    """

    selected_queries: np.ndarray  # (n,) ascending
    selected_keys: np.ndarray  # (n, n); row i holds keys of selected_queries[i], ascending
    weights: Tensor  # (n, n) row-softmax aligned with selected_keys
    dot_product_count: int
    num_nodes: int
    matrix: Tensor | None = None


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


def project_qk(h: Tensor, wq: Tensor, wk: Tensor) -> tuple[Tensor, Tensor]:
    """Linear query/key projections of the node embeddings."""
    return ad.matmul(h, wq), ad.matmul(h, wk)


def query_importance(q, k_sampled) -> Tensor:
    """Divergence of each query's attention over the sampled keys from uniform.

    score_i = KL(uniform || softmax(q_i k_j / sqrt(D) over sampled j))
            = logsumexp(l_i) - mean(l_i) - ln n
    Zero when a query spreads its attention evenly; grows as it concentrates.
    Leading batch axes are kept: (B, N, D) queries and (B, n, D) keys give
    (B, N) scores.  Returned as a constant (selection is not differentiated).
    """
    qv = q.values if isinstance(q, Tensor) else np.asarray(q, dtype=np.float64)
    kv = k_sampled.values if isinstance(k_sampled, Tensor) else np.asarray(k_sampled, dtype=np.float64)
    n = kv.shape[-2]
    if n < 1:
        raise ContractError("query_importance requires at least one sampled key")
    d = qv.shape[-1]
    logits = qv @ np.swapaxes(kv, -1, -2) / math.sqrt(d)
    peak = logits.max(axis=-1, keepdims=True)
    lse = peak[..., 0] + np.log(np.exp(logits - peak).sum(axis=-1))
    scores = lse - logits.mean(axis=-1) - math.log(n)
    return Tensor(np.maximum(scores, 0.0))  # clamp fp residue; KL >= 0


def select_queries(scores, n: int) -> np.ndarray:
    """Indices of the n largest scores along the last axis, ties toward the lowest index."""
    s = scores.values if isinstance(scores, Tensor) else np.asarray(scores, dtype=np.float64)
    if n > s.shape[-1]:
        raise ContractError(f"cannot select {n} queries from {s.shape[-1]}")
    return _top_per_row(s, n)


def _top_per_row(values: np.ndarray, n: int) -> np.ndarray:
    """Indices of the n largest entries along the last axis, in ascending order;
    ties go to the lowest index."""
    order = np.argsort(-values, axis=-1, kind="stable")
    return np.sort(order[..., :n], axis=-1)


def select_keys(q_selected, k) -> np.ndarray:
    """For each selected query row, the indices of its strongest keys.

    Returns an (n_q, n_q) index array aligned with the input row order; the
    key budget per query equals the number of selected queries.
    """
    qv = q_selected.values if isinstance(q_selected, Tensor) else np.asarray(q_selected)
    kv = k.values if isinstance(k, Tensor) else np.asarray(k)
    n = qv.shape[0]
    if n < 1:
        raise ContractError("select_keys requires at least one query")
    logits = qv @ kv.T / math.sqrt(qv.shape[1])
    return _top_per_row(logits, n)


def dense_adjacency(h: Tensor, wq: Tensor, wk: Tensor) -> Tensor:
    """Full quadratic attention adjacency; rows sum to one. Reference path."""
    q, k = project_qk(h, wq, wk)
    scale = 1.0 / math.sqrt(h.shape[1])
    return ad.softmax_rows(ad.mul(ad.matmul(q, ad.transpose(k)), scale))


def build_sparse_adjacency(
    h: Tensor,
    wq: Tensor,
    wk: Tensor,
    cfg: LgslConfig,
    *,
    n_override: int | None = None,
    seed: int | None = None,
) -> SparseAdjacency:
    """One window's graph as a batch of one, with the N x N matrix materialized."""
    n_nodes = h.shape[0]
    n = n_override if n_override is not None else sample_count(cfg.sampling_c, n_nodes)
    graphs = build_sparse_adjacency_batch(
        h, wq, wk, n_nodes, n, 1, cfg.seed if seed is None else seed
    )
    sel_q, sel_keys = graphs.selected_queries[0], graphs.selected_keys[0]
    weights = ad.reshape(graphs.weights, (n, n))
    return SparseAdjacency(
        selected_queries=sel_q,
        selected_keys=sel_keys,
        weights=weights,
        dot_product_count=2 * n_nodes * n,
        num_nodes=n_nodes,
        matrix=ad.scatter_2d(weights, sel_q, sel_keys, (n_nodes, n_nodes)),
    )


def build_sparse_adjacency_batch(
    h: Tensor,
    wq: Tensor,
    wk: Tensor,
    n_nodes: int,
    n: int,
    batch: int,
    seed,
) -> GraphBatch:
    """The graphs of ``batch`` windows whose N embedding rows are stacked in ``h``.

    Per window: sample n keys, keep the n queries whose attention over the
    sample is most concentrated, then attend each of them to its n strongest
    keys.  That is N*n dot products to rank the queries and n*N to score the
    kept ones against every key (2*N*n in all; the softmax reuses the latter).
    One generator draws every window's key sample, in window order; the
    projections, scores, key gather and softmax each run once for the batch.
    """
    if not 1 <= n <= n_nodes:
        raise ContractError(f"selection size {n} out of range [1, {n_nodes}]")
    dim = h.shape[1]
    q, k = project_qk(h, wq, wk)
    kv = k.values.reshape(batch, n_nodes, dim)
    rng = np.random.default_rng(seed)
    sampled = np.stack([rng.choice(n_nodes, size=n, replace=False) for _ in range(batch)])
    k_sampled = np.take_along_axis(kv, sampled[..., None], axis=1)
    sel_q = select_queries(query_importance(q.values.reshape(batch, n_nodes, dim), k_sampled), n)

    offsets = n_nodes * np.arange(batch)[:, None]
    q_sel = ad.reshape(ad.take_rows(q, (sel_q + offsets).reshape(-1)), (batch, n, dim))
    k_t = ad.transpose(ad.reshape(k, (batch, n_nodes, dim)))
    logits = ad.mul(ad.matmul(q_sel, k_t), 1.0 / math.sqrt(dim))  # (B, n, N)
    sel_keys = _top_per_row(logits.values, n)
    weights = ad.softmax_rows(ad.gather_last(logits, sel_keys))
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
