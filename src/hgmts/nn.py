"""Named parameters and the small neural building blocks used by the model.

Weights are initialized uniformly in [-1/sqrt(fan_in), +1/sqrt(fan_in)] from a
seeded generator; biases start at zero.  Construction order is fixed by the
model-building code, so a given seed always produces bitwise-identical values.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import ContractError, ShapeMismatch, Tensor


class ParamRegistry:
    """Every parameter of a model: a leaf tensor keyed by a unique dotted name."""

    def __init__(self, seed: int = 0):
        self._rng = np.random.default_rng(seed)
        self.params: dict[str, Tensor] = {}

    def _register(self, name: str, values: np.ndarray) -> Tensor:
        if name in self.params:
            raise ContractError(f"duplicate parameter name: {name}")
        self.params[name] = Tensor(values)
        return self.params[name]

    def weight(self, name: str, fan_in: int, fan_out: int) -> Tensor:
        bound = 1.0 / np.sqrt(fan_in)
        return self._register(name, self._rng.uniform(-bound, bound, size=(fan_in, fan_out)))

    def bias(self, name: str, size: int) -> Tensor:
        return self._register(name, np.zeros(size))

    def named_values(self) -> dict[str, np.ndarray]:
        return {name: p.values.copy() for name, p in self.params.items()}

    def load_values(self, values: dict[str, np.ndarray]) -> None:
        missing = set(self.params) - set(values)
        if missing:
            raise ContractError(f"missing values for parameters: {sorted(missing)[:3]}...")
        unexpected = set(values) - set(self.params)
        if unexpected:
            raise ContractError(f"values for {len(unexpected)} parameters the model does not "
                                f"have: {sorted(unexpected)[:3]}...")
        for name, p in self.params.items():
            arr = np.asarray(values[name], dtype=np.float64)
            if arr.shape != p.values.shape:
                raise ContractError(
                    f"shape mismatch loading {name}: {arr.shape} vs {p.values.shape}"
                )
            p.values = arr.copy()
            p.grad = None

    def value_norm(self) -> float:
        return float(np.sqrt(np.sum([float((p.values**2).sum()) for p in self.params.values()])))


class Linear:
    def __init__(self, reg: ParamRegistry, prefix: str, d_in: int, d_out: int):
        self.w = reg.weight(f"{prefix}.w", d_in, d_out)
        self.b = reg.bias(f"{prefix}.b", d_out)


class MLP2:
    """Two-layer perceptron: linear, ReLU, linear (final layer stays linear)."""

    def __init__(self, reg: ParamRegistry, prefix: str, d_in: int, d_hidden: int, d_out: int):
        self.l1 = Linear(reg, f"{prefix}.l1", d_in, d_hidden)
        self.l2 = Linear(reg, f"{prefix}.l2", d_hidden, d_out)

    def __call__(self, x: Tensor) -> Tensor:
        """relu(x @ w1 + b1) @ w2 + b2 as one tape node that saves only the ReLU
        output: its mask a > 0 is the pre-activation's."""
        w1, b1, w2, b2 = self.l1.w, self.l1.b, self.l2.w, self.l2.b
        xv, w1v, w2v = x.values, w1.values, w2.values
        if xv.ndim != 2 or xv.shape[1] != w1v.shape[0]:
            raise ShapeMismatch(f"MLP2: incompatible shapes {xv.shape} and {w1v.shape}")
        a = xv @ w1v
        a += b1.values
        np.maximum(a, 0.0, out=a)
        out = a @ w2v
        out += b2.values

        def grad_fn(g):
            d_pre = g @ w2v.T
            d_pre *= a > 0
            return d_pre @ w1v.T, xv.T @ d_pre, d_pre.sum(axis=0), a.T @ g, g.sum(axis=0)

        return Tensor(out, (x, w1, b1, w2, b2), grad_fn)


class GRUCell:
    """Gated recurrent unit over row-wise states.

    Gates read concat(state, input); the update gate z blends candidate and
    previous state as h' = (1 - z) * h + z * tanh-candidate.  A negative
    ``update_bias`` starts z small, so fresh states initially stay close to
    the previous state and updates phase in as training opens the gate.
    """

    def __init__(self, reg: ParamRegistry, prefix: str, d_state: int, d_input: int,
                 update_bias: float = 0.0):
        d_cat = d_state + d_input
        self.wz = reg.weight(f"{prefix}.wz", d_cat, d_state)
        self.bz = reg.bias(f"{prefix}.bz", d_state)
        if update_bias:
            self.bz.values += update_bias
        self.wr = reg.weight(f"{prefix}.wr", d_cat, d_state)
        self.br = reg.bias(f"{prefix}.br", d_state)
        self.wh = reg.weight(f"{prefix}.wh", d_cat, d_state)
        self.bh = reg.bias(f"{prefix}.bh", d_state)

    def __call__(self, h: Tensor, x: Tensor) -> Tensor:
        return gru_round(h, x, np.arange(h.shape[0]), (self,))


class GateUnit(MLP2):
    """Scalar-gate network: the two-layer MLP with one output, then a sigmoid; one gate per row."""

    def __init__(self, reg: ParamRegistry, prefix: str, d_in: int, d_hidden: int):
        super().__init__(reg, prefix, d_in, d_hidden, 1)

    def __call__(self, x: Tensor) -> Tensor:
        return ad.sigmoid(super().__call__(x))


def gru_round(h: Tensor, x: Tensor, rows, cells, gate: GateUnit | None = None) -> Tensor:
    """One recurrent update of row states ``h``, as one tape node.

    ``x`` holds the input of rows ``rows`` only (distinct indices into h); every
    other row's input is zero.  With one cell this is that cell's GRU update.
    With two cells and a gate it is beta * h1 + (1 - beta) * h2, where h1, h2
    are the cells' updates and beta = gate(concat(h, input)) is one scalar per
    row.  Each weight that reads concat(state, input) is split into its state
    rows, applied to every row of h, and its input rows, applied to x and added
    into ``rows``.  Every gate block is its own contiguous (rows, width) array:
    z and r of each cell, and the gate's hidden layer.  The backward is written
    out.  It keeps z, r and the candidate of each cell, the gate's ReLU output
    and beta, and rebuilds r * h and the two cells' updates with the forward's
    elementwise ops, so it recomputes no product with a weight.
    """
    if (gate is None) != (len(cells) == 1):
        raise ContractError("gru_round takes one cell without a gate or two cells with one")
    hv, xv = h.values, x.values
    rows = np.asarray(rows, dtype=np.intp)
    d = hv.shape[1]

    def pre_act(w, b, state):  # state @ w[:d] on every row, x @ w[d:] on the input rows, + b
        out = state @ w.values[:d]
        out[rows] += xv @ w.values[d:]
        out += b.values
        return out

    def blend(z, cand):  # one cell's update
        return hv + z * (cand - hv)

    saved = []
    for cell in cells:
        z = ad.sigmoid_values(pre_act(cell.wz, cell.bz, hv))
        r = ad.sigmoid_values(pre_act(cell.wr, cell.br, hv))
        cand = pre_act(cell.wh, cell.bh, r * hv)
        np.tanh(cand, out=cand)
        saved.append((z, r, cand))
    outs = [blend(z, cand) for z, _, cand in saved]
    if gate is None:
        out = outs[0]
    else:
        a = pre_act(gate.l1.w, gate.l1.b, hv)
        np.maximum(a, 0.0, out=a)  # backward reads only the mask a > 0
        b_pre = a @ gate.l2.w.values
        b_pre += gate.l2.b.values
        beta = ad.sigmoid_values(b_pre)  # (rows, 1)
        out = outs[1] + beta * (outs[0] - outs[1])

    def grad_fn(g):
        def back(w, d_pre, state, dx_terms):
            """d state, dw and db of pre_act(w, b, state); appends its d x to dx_terms."""
            d_pre_x = d_pre[rows]
            dx_terms.append(d_pre_x @ w.values[d:].T)
            dw = np.concatenate([state.T @ d_pre, xv.T @ d_pre_x])
            return d_pre @ w.values[:d].T, dw, d_pre.sum(axis=0)

        def cell_back(cell, gc, z, r, cand):
            """One cell's d h terms, d x terms and weight gradients, in summing order."""
            dx_terms = []
            d_rh, d_wh, d_bh = back(cell.wh, gc * z * (1.0 - cand * cand), r * hv, dx_terms)
            dh_z, d_wz, d_bz = back(cell.wz, gc * (cand - hv) * z * (1.0 - z), hv, dx_terms)
            dh_r, d_wr, d_br = back(cell.wr, d_rh * hv * r * (1.0 - r), hv, dx_terms)
            return ([gc * (1.0 - z) + d_rh * r, dh_z, dh_r], dx_terms,
                    [d_wz, d_bz, d_wr, d_br, d_wh, d_bh])

        def add_terms(acc, terms):  # in place, in the order given
            for term in terms:
                acc += term

        dh, dx = np.zeros_like(hv), np.zeros_like(xv)
        dh_terms, dx_terms, grads = cell_back(cells[0], g if gate is None else g * beta, *saved[0])
        add_terms(dh, dh_terms)
        add_terms(dx, dx_terms)
        if gate is not None:
            dh_terms, dx_terms, more = cell_back(cells[1], g - g * beta, *saved[1])
            (z1, _, cand1), (z2, _, cand2) = saved
            diff = blend(z1, cand1) - blend(z2, cand2)  # as the forward formed it
            d_b_pre = (g * diff).sum(axis=1, keepdims=True) * beta * (1.0 - beta)
            dh_a, d_w1, d_b1 = back(gate.l1.w, (d_b_pre @ gate.l2.w.values.T) * (a > 0), hv,
                                    dx_terms)
            dh_terms.append(dh_a)
            add_terms(dh, dh_terms)
            add_terms(dx, dx_terms)
            grads += more + [d_w1, d_b1, a.T @ d_b_pre, d_b_pre.sum(axis=0)]
        return (dh, dx, *grads)

    parents = [h, x]
    for cell in cells:
        parents += [cell.wz, cell.bz, cell.wr, cell.br, cell.wh, cell.bh]
    if gate is not None:
        parents += [gate.l1.w, gate.l1.b, gate.l2.w, gate.l2.b]
    return Tensor(out, tuple(parents), grad_fn)
