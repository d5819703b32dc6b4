"""Shared test utilities: finite-difference gradient oracle and reference nets.

The reference implementations here are written directly against numpy and are
kept independent of the package's tape so they can serve as oracles.
"""

import math

import numpy as np

from hgmts import autodiff as ad


def rel_err(a: float, b: float) -> float:
    """Relative error with a unit floor so near-zero gradients compare absolutely."""
    return abs(a - b) / max(1.0, abs(a), abs(b))


def jitter_params(registry, seed=0, scale=0.05):
    """Move all parameters to a generic point.

    Zero-initialized biases leave ReLU inputs exactly on the kink for
    self-edge messages; gradient checks must run off such measure-zero points.
    """
    rng = np.random.default_rng(seed)
    for p in registry.params.values():
        p.tensor.values = p.tensor.values + rng.uniform(-scale, scale, p.values.shape)


def finite_diff_max_err(build_loss, leaves, step=1e-4, max_per_leaf=None, rng=None):
    """Max relative error between tape gradients and central finite differences.

    ``build_loss()`` must rebuild the forward pass from the leaves' current
    values and return a scalar Tensor.  Leaves' grads are cleared afterwards.
    """
    for leaf in leaves:
        leaf.grad = None
    loss = build_loss()
    ad.backward(loss)
    grads = [np.zeros_like(l.values) if l.grad is None else np.array(l.grad) for l in leaves]
    worst = 0.0
    for leaf, grad in zip(leaves, grads):
        flat = leaf.values.reshape(-1)
        gflat = grad.reshape(-1)
        indices = range(flat.size)
        if max_per_leaf is not None and flat.size > max_per_leaf:
            rng = rng or np.random.default_rng(0)
            indices = rng.choice(flat.size, size=max_per_leaf, replace=False)
        for i in indices:
            orig = flat[i]
            flat[i] = orig + step
            up = build_loss().item()
            flat[i] = orig - step
            down = build_loss().item()
            flat[i] = orig
            fd = (up - down) / (2.0 * step)
            worst = max(worst, rel_err(gflat[i], fd))
    for leaf in leaves:
        leaf.grad = None
    return worst


def ref_softmax_rows(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def ref_sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def ref_mlp2(x, w1, b1, w2, b2):
    hidden = np.maximum(x @ w1 + b1, 0.0)
    return hidden @ w2 + b2


def ref_gru(h, x, wz, bz, wr, br, wh, bh):
    """Same gate equations as the package GRU, coded independently."""
    hx = np.concatenate([h, x], axis=1)
    z = ref_sigmoid(hx @ wz + bz)
    r = ref_sigmoid(hx @ wr + br)
    rhx = np.concatenate([r * h, x], axis=1)
    cand = np.tanh(rhx @ wh + bh)
    return (1.0 - z) * h + z * cand


def ref_gated_update(h, x, gru1, gru2=None, gate=None):
    """One recurrent round: gru1 alone, or beta * gru1 + (1 - beta) * gru2 with
    beta = sigmoid(mlp2(concat(h, x))).  Arguments after x are parameter tuples
    in the order of ``gru_param_values`` and ``mlp_param_values``."""
    h1 = ref_gru(h, x, *gru1)
    if gru2 is None:
        return h1
    beta = ref_sigmoid(ref_mlp2(np.concatenate([h, x], axis=1), *gate))
    return beta * h1 + (1.0 - beta) * ref_gru(h, x, *gru2)


def ref_sparse_adjacency_batch(h, wq, wk, n_nodes, n, batch, seed):
    """Per-window loop over B windows of N stacked rows of ``h`` (plain arrays).

    Same draws and selections as the package builder: one generator samples
    every window's n keys in window order; the n queries whose attention over
    the sample diverges most from uniform are kept, each with its n strongest
    keys (ties toward the lowest index).  Returns (selected queries (B, n),
    selected keys (B, n, n), softmax weights (B, n, n)).
    """
    q, k = h @ wq, h @ wk
    scale = math.sqrt(h.shape[1])
    rng = np.random.default_rng(seed)
    sel_qs, sel_ks, weights = [], [], []
    for b in range(batch):
        qb, kb = q[b * n_nodes : (b + 1) * n_nodes], k[b * n_nodes : (b + 1) * n_nodes]
        sampled = rng.choice(n_nodes, size=n, replace=False)
        logits = qb @ kb[sampled].T / scale
        peak = logits.max(axis=1, keepdims=True)
        lse = peak[:, 0] + np.log(np.exp(logits - peak).sum(axis=1))
        scores = np.maximum(lse - logits.mean(axis=1) - math.log(n), 0.0)
        sel_q = np.sort(np.argsort(-scores, kind="stable")[:n])
        key_logits = qb[sel_q] @ kb.T * (1.0 / scale)
        sel_k = np.sort(np.argsort(-key_logits, axis=1, kind="stable")[:, :n], axis=1)
        sel_qs.append(sel_q)
        sel_ks.append(sel_k)
        weights.append(ref_softmax_rows(np.take_along_axis(key_logits, sel_k, axis=1)))
    return np.stack(sel_qs), np.stack(sel_ks), np.stack(weights)


def gru_param_values(cell):
    return (
        cell.wz.values, cell.bz.values,
        cell.wr.values, cell.br.values,
        cell.wh.values, cell.bh.values,
    )


def mlp_param_values(mlp):
    return (mlp.l1.w.values, mlp.l1.b.values, mlp.l2.w.values, mlp.l2.b.values)
