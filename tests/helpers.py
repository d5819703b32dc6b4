"""Shared test utilities: finite-difference gradient oracle, tape audit and
reference nets.

The tape audit (``tape_nodes``, ``closure_arrays``, ``tape_inventory``) reads
what a recorded tape keeps alive: its nodes, the arrays their gradient
functions saved, and the op outputs that outlive the forward pass unsaved.

The reference implementations here are written directly against numpy and are
kept independent of the package's tape so they can serve as oracles.  The
graph helpers at the end build the quadratic dense adjacency and a single
window's sparse graph as an N x N matrix on the tape, which the package never
forms.
"""

import math
import types
import weakref
from dataclasses import dataclass

import numpy as np

from hgmts import autodiff as ad
from hgmts.autodiff import Tensor
from hgmts.data import denormalize
from hgmts.decomposition import decompose
from hgmts.latent_graph import SparseAdjacency, build_sparse_adjacency_batch, select_queries
from hgmts.metrics import mae, mse
from hgmts.model import ForwardContext


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
        p.values = p.values + rng.uniform(-scale, scale, p.values.shape)


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


def tape_nodes(root: Tensor) -> list:
    """``root`` and every tape node reachable from it through parent links,
    leaves (which are their own nodes) included."""
    seen, todo = {id(root): root}, [root]
    while todo:
        for parent in todo.pop()._parents:
            if id(parent) not in seen:
                seen[id(parent)] = parent
                todo.append(parent)
    return list(seen.values())


def closure_arrays(fn) -> list:
    """The ndarrays a gradient function keeps alive: in its closure cells, in
    lists and tuples held there, and in the closures of functions held there."""
    found, seen, todo = [], set(), [fn]
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            found.append(obj)
        elif isinstance(obj, (list, tuple)):
            todo.extend(obj)
        elif isinstance(obj, types.FunctionType) and obj.__closure__:
            for cell in obj.__closure__:
                try:
                    todo.append(cell.cell_contents)
                except ValueError:  # a cell the function never filled
                    pass
    return found


@dataclass
class TapeInventory:
    """What one recorded tape holds, in bytes of unique arrays (a view counts as
    the array that owns its data)."""

    nodes: int  # tape nodes reachable from the loss, leaves and the loss included
    saved: int  # arrays the gradient functions keep
    unsaved: int  # op outputs on the tape, still alive, that no gradient function keeps


def _owner(arr: np.ndarray) -> np.ndarray:
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


def tape_inventory(build_loss) -> TapeInventory:
    """The inventory of the tape of ``build_loss()``, a scalar op result.

    While ``build_loss`` runs, each recorded op result's node is noted with a
    weak reference to its array; whatever ``build_loss`` still holds when it
    returns counts as alive.  The loss's own value is not counted.
    """
    outputs = {}  # id(node) -> (node, weak reference to the op result's array)
    init = Tensor.__init__

    def noting_init(self, values, _parents=(), _grad_fn=None):
        init(self, values, _parents, _grad_fn)
        if self._node is not None and self._node is not ad._NO_TAPE:
            outputs[id(self._node)] = (self._node, weakref.ref(self.values))

    Tensor.__init__ = noting_init
    try:
        loss = build_loss()
    finally:
        Tensor.__init__ = init
    nodes = tape_nodes(loss)
    saved, unsaved = {}, {}
    for node in nodes:
        for arr in closure_arrays(node._grad_fn) if node._grad_fn else []:
            saved[id(_owner(arr))] = _owner(arr).nbytes
    for node in nodes:
        arr = outputs[id(node)][1]() if id(node) in outputs else None
        if arr is not None and id(_owner(arr)) not in saved:
            unsaved[id(_owner(arr))] = _owner(arr).nbytes
    return TapeInventory(len(nodes), sum(saved.values()), sum(unsaved.values()))


def ref_softmax_rows(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def ref_select_queries(scores: np.ndarray, n: int) -> np.ndarray:
    """The first n indices of a stable sort by descending score, ascending."""
    order = np.argsort(-scores, axis=-1, kind="stable")
    return np.sort(order[..., :n], axis=-1)


def ref_sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def ref_avgpool1d(a: Tensor, kernel: int, padding: str = "edge") -> Tensor:
    """Tape op: the moving average as padding plus ``kernel`` shifted adds, and
    its backward as the same adds with the padded ends folded back."""
    pad = (kernel - 1) // 2
    length = a.values.shape[1]
    mode = "edge" if padding == "edge" else "constant"
    padded = np.pad(a.values, ((0, 0), (pad, pad)), mode=mode)
    out = np.zeros_like(a.values)
    for offset in range(kernel):
        out += padded[:, offset : offset + length]
    out /= kernel

    def grad_fn(g):
        gp = np.zeros_like(padded)
        for offset in range(kernel):
            gp[:, offset : offset + length] += g
        gp /= kernel
        gx = gp[:, pad : pad + length].copy()
        if padding == "edge" and pad:
            gx[:, 0] += gp[:, :pad].sum(axis=1)
            gx[:, -1] += gp[:, pad + length :].sum(axis=1)
        return (gx,)

    return Tensor(out, (a,), grad_fn)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Tape op: x @ w + b in one node; b is a length-d_out row vector.  With
    :func:`relu`, the three-op chain that ``nn.MLP2`` must match bitwise."""
    xv, wv = x.values, w.values
    if xv.ndim != 2 or wv.ndim != 2 or xv.shape[1] != wv.shape[0]:
        raise ad.ShapeMismatch(f"affine: incompatible shapes {xv.shape} and {wv.shape}")
    out = xv @ wv
    out += b.values

    def grad_fn(g):
        return (g @ wv.T, xv.T @ g, g.sum(axis=0))

    return Tensor(out, (x, w, b), grad_fn)


def relu(a: Tensor) -> Tensor:
    """Tape op: elementwise max(a, 0)."""
    av = a.values
    return Tensor(np.maximum(av, 0.0), (a,), lambda g: (g * (av > 0),))


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


def saving_gru_round(h: Tensor, x: Tensor, rows, cells, gate=None) -> Tensor:
    """``nn.gru_round`` as it was before its tape was slimmed: the backward reads
    saved copies of r * h, of the gate's pre-activation and of the blend
    difference.  The package round must match it bitwise, value and gradients."""
    hv, xv = h.values, x.values
    rows = np.asarray(rows, dtype=np.intp)
    d = hv.shape[1]

    def pre_act(w, b, state):
        out = state @ w.values[:d]
        out[rows] += xv @ w.values[d:]
        out += b.values
        return out

    saved, outs = [], []
    for cell in cells:
        z = ad.sigmoid_values(pre_act(cell.wz, cell.bz, hv))
        r = ad.sigmoid_values(pre_act(cell.wr, cell.br, hv))
        rh = r * hv
        cand = pre_act(cell.wh, cell.bh, rh)
        np.tanh(cand, out=cand)
        outs.append(hv + z * (cand - hv))
        saved.append((z, r, rh, cand))
    if gate is None:
        out = outs[0]
    else:
        a_pre = pre_act(gate.l1.w, gate.l1.b, hv)
        a = np.maximum(a_pre, 0.0)
        b_pre = a @ gate.l2.w.values
        b_pre += gate.l2.b.values
        beta = ad.sigmoid_values(b_pre)
        diff = outs[0] - outs[1]
        out = outs[1] + beta * diff

    def grad_fn(g):
        dh, dx = np.zeros_like(hv), np.zeros_like(xv)

        def back(w, d_pre, state):
            nonlocal dx
            d_pre_x = d_pre[rows]
            dx += d_pre_x @ w.values[d:].T
            dw = np.concatenate([state.T @ d_pre, xv.T @ d_pre_x])
            return d_pre @ w.values[:d].T, dw, d_pre.sum(axis=0)

        grads = []
        g_cells = (g,) if gate is None else (g * beta, g - g * beta)
        for cell, gc, (z, r, rh, cand) in zip(cells, g_cells, saved):
            d_rh, d_wh, d_bh = back(cell.wh, gc * z * (1.0 - cand * cand), rh)
            dh_z, d_wz, d_bz = back(cell.wz, gc * (cand - hv) * z * (1.0 - z), hv)
            dh_r, d_wr, d_br = back(cell.wr, d_rh * hv * r * (1.0 - r), hv)
            dh += gc * (1.0 - z) + d_rh * r
            dh += dh_z
            dh += dh_r
            grads += [d_wz, d_bz, d_wr, d_br, d_wh, d_bh]
        if gate is not None:
            d_b_pre = (g * diff).sum(axis=1, keepdims=True) * beta * (1.0 - beta)
            dh_a, d_w1, d_b1 = back(gate.l1.w, (d_b_pre @ gate.l2.w.values.T) * (a_pre > 0), hv)
            dh += dh_a
            grads += [d_w1, d_b1, a.T @ d_b_pre, d_b_pre.sum(axis=0)]
        return (dh, dx, *grads)

    parents = [h, x]
    for cell in cells:
        parents += [cell.wz, cell.bz, cell.wr, cell.br, cell.wh, cell.bh]
    if gate is not None:
        parents += [gate.l1.w, gate.l1.b, gate.l2.w, gate.l2.b]
    return Tensor(out, tuple(parents), grad_fn)


def saving_aggregate(unit, h: Tensor, query_rows, key_rows, weights: Tensor) -> Tensor:
    """``message_passing.aggregate`` as the two tape nodes it was before they
    became one op: a messages node that keeps the (B, q, k, H) hidden layer
    a_qk, and an aggregate node whose backward reads it.  The package op must
    match it bitwise, value and gradients."""
    l1, l2 = unit.message_net.l1, unit.message_net.l2
    hv = h.values
    p = hv @ l1.w.values
    pre = p[query_rows][:, :, None, :] - p[key_rows]
    pre += l1.b.values
    av = np.maximum(pre, 0.0, out=pre)

    def messages_grad(g):
        d_pre = g * (av > 0)
        d_p = np.zeros(p.shape)
        d_query = np.einsum("bqkh->bqh", d_pre)
        d_p[query_rows] = d_query
        for j in range(key_rows.shape[1]):
            d_p[key_rows[:, j]] -= d_pre[:, j]
        return d_p @ l1.w.values.T, hv.T @ d_p, d_query.sum(axis=(0, 1))

    hidden = Tensor(av, (h, l1.w, l1.b), messages_grad)
    wv = weights.values
    b, q, k, width = av.shape
    summed = np.einsum("bqk,bqkh->bqh", wv, av).reshape(b * q, width)
    w_sum = wv.sum(axis=2).reshape(b * q, 1)
    out = summed @ l2.w.values
    out += w_sum * l2.b.values

    def aggregate_grad(g):
        d_summed = (g @ l2.w.values.T).reshape(b, q, width)
        d_weights = np.einsum("bqkh,bqh->bqk", av, d_summed)
        d_weights += (g @ l2.b.values).reshape(b, q, 1)
        d_hidden = wv[..., None] * d_summed[:, :, None, :]
        return d_hidden, d_weights, summed.T @ g, (w_sum * g).sum(axis=0)

    return Tensor(out, (hidden, weights, l2.w, l2.b), aggregate_grad)


def ref_message_round(h, query_rows, key_rows, weights, msg, gru1, gru2=None, gate=None):
    """One message-passing round edge by edge, on plain arrays.

    query_rows (B, q) and key_rows (B, q, k) index the stacked rows of ``h``;
    weights is (B, q, k).  Every edge gathers its source (query) and
    destination (key) rows, runs the message net ``msg`` (an MLP2 parameter
    tuple) on h_src - h_dst, and each query's weighted sum over its keys is
    written into its row of a zero (B*N, D) input; then ``ref_gated_update``.
    """
    b, q, k = weights.shape
    src = np.repeat(query_rows.reshape(-1), k)
    dst = key_rows.reshape(-1)
    messages = ref_mlp2(h[src] - h[dst], *msg).reshape(b, q, k, h.shape[1])
    agg = np.zeros_like(h)
    summed = (messages * weights[..., None]).sum(axis=2)
    agg[query_rows.reshape(-1)] = summed.reshape(b * q, h.shape[1])
    return ref_gated_update(h, agg, gru1, gru2, gate)


def ref_sparse_adjacency_batch(h, wq, wk, n_nodes, n, seed):
    """Per-window loop over the windows of N stacked rows of ``h`` (plain arrays).

    Same draw and selections as the package builder: one sample of n keys,
    drawn from ``seed``, serves every window; the n queries whose attention
    over the sample diverges most from uniform are kept, each with its n
    strongest keys (ties toward the lowest index).  Returns (selected queries
    (B, n), selected keys (B, n, n), softmax weights (B, n, n)).
    """
    q, k = h @ wq, h @ wk
    scale = math.sqrt(h.shape[1])
    sampled = np.random.default_rng(seed).choice(n_nodes, size=n, replace=False)
    sel_qs, sel_ks, weights = [], [], []
    for b in range(h.shape[0] // n_nodes):
        qb, kb = q[b * n_nodes : (b + 1) * n_nodes], k[b * n_nodes : (b + 1) * n_nodes]
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


def ref_scores(windows, preds, stats=None) -> tuple[float, float]:
    """``training.scores`` one window at a time: each window's MSE and MAE as a
    float, then the mean of each list."""
    mses, maes = [], []
    for (_, y), pred in zip(windows, preds, strict=True):
        if stats is not None:
            pred, y = denormalize(pred, stats), denormalize(y, stats)
        mses.append(mse(y, pred))
        maes.append(mae(y, pred))
    return float(np.mean(mses)), float(np.mean(maes))


def reference_adam_step(state) -> None:
    """Adam one parameter array at a time, with fresh temporaries: the oracle
    that ``optim.adam_step`` matches bitwise.

    Its moments live in each parameter's slice of ``state.m`` and ``state.v``,
    each parameter's values are rebound to a new array, and each gradient,
    a view of ``state.grad``, is zeroed in place.
    """
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    lo = 0
    for p in state.params.values():
        g = p.grad
        hi = lo + g.size
        m = state.m[lo:hi].reshape(g.shape)
        v = state.v[lo:hi].reshape(g.shape)
        lo = hi
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        p.values = p.values - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
        g.fill(0.0)


def gru_param_values(cell):
    return (
        cell.wz.values, cell.bz.values,
        cell.wr.values, cell.br.values,
        cell.wh.values, cell.bh.values,
    )


def mlp_param_values(mlp):
    return (mlp.l1.w.values, mlp.l1.b.values, mlp.l2.w.values, mlp.l2.b.values)


def scatter_2d(w: Tensor, rows, cols, shape: tuple[int, int]) -> Tensor:
    """Tape op: place w[i, j] at out[rows[i], cols[i, j]] in a zero matrix of ``shape``.

    Target positions must be distinct: rows unique, cols unique within a row.
    """
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    out = np.zeros(shape, dtype=np.float64)
    out[rows[:, None], cols] = w.values

    def grad_fn(g):
        return (g[rows[:, None], cols],)

    return Tensor(out, (w,), grad_fn)


def dense_adjacency(h: Tensor, wq: Tensor, wk: Tensor) -> Tensor:
    """Full quadratic attention adjacency on the tape; rows sum to one."""
    q, k = ad.matmul(h, wq), ad.matmul(h, wk)
    scale = 1.0 / math.sqrt(h.shape[1])
    return ad.softmax_rows(ad.mul(ad.matmul(q, ad.transpose(k)), scale))


@dataclass
class WindowAdjacency(SparseAdjacency):
    """One window's graph with its N x N matrix on the tape."""

    matrix: Tensor


def build_sparse_adjacency(h: Tensor, wq: Tensor, wk: Tensor, n: int, seed=0) -> WindowAdjacency:
    """One window's graph as a package batch of one, plus its N x N matrix."""
    n_nodes = h.shape[0]
    graphs = build_sparse_adjacency_batch(h, wq, wk, n_nodes, n, seed)
    sel_q, sel_keys = graphs.selected_queries[0], graphs.selected_keys[0]
    weights = ad.reshape(graphs.weights, (n, n))
    return WindowAdjacency(
        selected_queries=sel_q,
        selected_keys=sel_keys,
        weights=weights,
        dot_product_count=2 * n_nodes * n,
        num_nodes=n_nodes,
        matrix=scatter_2d(weights, sel_q, sel_keys, (n_nodes, n_nodes)),
    )


def select_keys(q_selected, k) -> np.ndarray:
    """Each query row's strongest keys, as `build_sparse_adjacency_batch` picks them: the
    n_q largest scaled logits per row, through ``select_queries``."""
    qv, kv = np.asarray(q_selected), np.asarray(k)
    return select_queries(qv @ kv.T / math.sqrt(qv.shape[1]), qv.shape[0])


def block_outputs(model, windows) -> list:
    """Every block's BlockOutput, from ``Block.forward`` chained by hand the way
    ``Model.forward_batch`` chains it (backcasts subtracted in block order)."""
    arr = np.asarray(windows, dtype=np.float64)
    residual = Tensor(arr.reshape(-1, arr.shape[-1]))
    ctx = ForwardContext()
    outs = []
    for stack in model.stacks:
        for block in stack:
            outs.append(block.forward(residual, ctx))
            residual = ad.sub(residual, outs[-1].backcast)
    return outs


def pathway_outputs(block, x: Tensor) -> dict:
    """name -> (backcast, forecast) of each pathway of ``block`` on rows ``x``,
    recomposed step by step as ``Block.forward`` runs them before it sums them."""
    ctx = ForwardContext()
    cfg = block.cfg
    if block.wiring.single_pathway:
        components = {"main": x}
    else:
        dec = decompose(x, cfg.kernel, cfg.padding)
        components = {"seas": dec.seasonal, "trend": dec.trend}
    out = {}
    for name, comp in components.items():
        pw = block.pathways[name]
        h = pw.unit.encode_nodes(comp)
        if pw.graph_key is not None:
            if pw.graph_key not in ctx.graphs:
                ctx.graphs[pw.graph_key] = block._build_graph(name, h, ctx)
            h = pw.unit.run(h, ctx.graphs[pw.graph_key], cfg.rounds)
        out[name] = (pw.backcast_head(h), pw.forecast_head(h))
    return out
