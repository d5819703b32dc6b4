"""Named parameters and the small neural building blocks used by the model.

Weights are initialized uniformly in [-1/sqrt(fan_in), +1/sqrt(fan_in)] from a
seeded generator; biases start at zero.  Construction order is fixed by the
model-building code, so a given seed always produces bitwise-identical values.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import ContractError, Tensor


class Parameter:
    """A named leaf tensor. Names are dotted paths, unique within a model."""

    __slots__ = ("name", "tensor")

    def __init__(self, name: str, values: np.ndarray):
        self.name = name
        self.tensor = Tensor(values)

    @property
    def values(self) -> np.ndarray:
        return self.tensor.values

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.tensor.shape})"


class ParamRegistry:
    """Creates and tracks every parameter of a model, keyed by unique name."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self.params: dict[str, Parameter] = {}

    def _register(self, name: str, values: np.ndarray) -> Parameter:
        if name in self.params:
            raise ContractError(f"duplicate parameter name: {name}")
        p = Parameter(name, values)
        self.params[name] = p
        return p

    def weight(self, name: str, fan_in: int, fan_out: int) -> Parameter:
        bound = 1.0 / np.sqrt(fan_in)
        return self._register(name, self._rng.uniform(-bound, bound, size=(fan_in, fan_out)))

    def bias(self, name: str, size: int) -> Parameter:
        return self._register(name, np.zeros(size))

    def all(self) -> list[Parameter]:
        return list(self.params.values())

    def named_values(self) -> dict[str, np.ndarray]:
        return {name: p.values.copy() for name, p in self.params.items()}

    def load_values(self, values: dict[str, np.ndarray]) -> None:
        missing = set(self.params) - set(values)
        if missing:
            raise ContractError(f"missing values for parameters: {sorted(missing)[:3]}...")
        for name, p in self.params.items():
            arr = np.asarray(values[name], dtype=np.float64)
            if arr.shape != p.values.shape:
                raise ContractError(
                    f"shape mismatch loading {name}: {arr.shape} vs {p.values.shape}"
                )
            p.tensor.values = arr.copy()
            p.tensor.grad = None

    def zero_grads(self) -> None:
        for p in self.params.values():
            p.tensor.grad = None

    def grad_norm(self) -> float:
        total = 0.0
        for p in self.params.values():
            if p.tensor.grad is not None:
                total += float((p.tensor.grad**2).sum())
        return float(np.sqrt(total))

    def value_norm(self) -> float:
        return float(np.sqrt(np.sum([float((p.values**2).sum()) for p in self.params.values()])))


class Linear:
    def __init__(self, reg: ParamRegistry, prefix: str, d_in: int, d_out: int, bias: bool = True):
        self.w = reg.weight(f"{prefix}.w", d_in, d_out)
        self.b = reg.bias(f"{prefix}.b", d_out) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        if self.b is None:
            return ad.matmul(x, self.w.tensor)
        return ad.affine(x, self.w.tensor, self.b.tensor)


class MLP2:
    """Two-layer perceptron: linear, ReLU, linear (final layer stays linear)."""

    def __init__(self, reg: ParamRegistry, prefix: str, d_in: int, d_hidden: int, d_out: int):
        self.l1 = Linear(reg, f"{prefix}.l1", d_in, d_hidden)
        self.l2 = Linear(reg, f"{prefix}.l2", d_hidden, d_out)

    def __call__(self, x: Tensor) -> Tensor:
        return self.l2(ad.relu(self.l1(x)))


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
            self.bz.tensor.values += update_bias
        self.wr = reg.weight(f"{prefix}.wr", d_cat, d_state)
        self.br = reg.bias(f"{prefix}.br", d_state)
        self.wh = reg.weight(f"{prefix}.wh", d_cat, d_state)
        self.bh = reg.bias(f"{prefix}.bh", d_state)

    def __call__(self, h: Tensor, x: Tensor) -> Tensor:
        return gru_round(h, x, (self,))


class GateUnit:
    """Small scalar-gate network: linear, ReLU, linear, sigmoid; one gate per row."""

    def __init__(self, reg: ParamRegistry, prefix: str, d_in: int, d_hidden: int):
        self.l1 = Linear(reg, f"{prefix}.l1", d_in, d_hidden)
        self.l2 = Linear(reg, f"{prefix}.l2", d_hidden, 1)

    def __call__(self, x: Tensor) -> Tensor:
        return ad.sigmoid(self.l2(ad.relu(self.l1(x))))


def gru_round(h: Tensor, x: Tensor, cells, gate: GateUnit | None = None) -> Tensor:
    """One recurrent update of row states ``h`` from inputs ``x``, as one tape node.

    With one cell this is that cell's GRU update.  With two cells and a gate it
    is beta * h1 + (1 - beta) * h2, where h1, h2 are the cells' updates and
    beta = gate(concat(h, x)) is one scalar per row.  Every cell's z and r
    gates and the gate's hidden layer read concat(h, x), so they share one
    GEMM against their column-stacked weights; the backward is written out.
    """
    if (gate is None) != (len(cells) == 1):
        raise ContractError("gru_round takes one cell without a gate or two cells with one")
    hv, xv = h.values, x.values
    d = hv.shape[1]
    hx = np.concatenate([hv, xv], axis=1)
    stacked = [p for cell in cells for p in ((cell.wz, cell.bz), (cell.wr, cell.br))]
    if gate is not None:
        stacked.append((gate.l1.w, gate.l1.b))
    w_cat = np.concatenate([w.values for w, _ in stacked], axis=1)
    pre = hx @ w_cat
    pre += np.concatenate([b.values for _, b in stacked])
    zr = ad.sigmoid_values(pre[:, : 2 * d * len(cells)])  # z1 | r1 [| z2 | r2]

    saved, outs = [], []
    for c, cell in enumerate(cells):
        z, r = zr[:, 2 * c * d : (2 * c + 1) * d], zr[:, (2 * c + 1) * d : (2 * c + 2) * d]
        rhx = np.concatenate([r * hv, xv], axis=1)
        cand = rhx @ cell.wh.values
        cand += cell.bh.values
        cand = np.tanh(cand)
        outs.append((1.0 - z) * hv + z * cand)
        saved.append((z, r, rhx, cand))
    if gate is None:
        out = outs[0]
    else:
        a_pre = pre[:, 2 * d * len(cells) :]
        a = np.maximum(a_pre, 0.0)
        b_pre = a @ gate.l2.w.values
        b_pre += gate.l2.b.values
        beta = ad.sigmoid_values(b_pre)  # (rows, 1)
        out = beta * outs[0] + (1.0 - beta) * outs[1]

    def grad_fn(g):
        dh, dx = 0.0, 0.0
        d_pre, cell_grads = [], []
        g_cells = (g,) if gate is None else (g * beta, g * (1.0 - beta))
        for cell, gc, (z, r, rhx, cand) in zip(cells, g_cells, saved):
            d_cand_pre = gc * z * (1.0 - cand * cand)
            d_rhx = d_cand_pre @ cell.wh.values.T
            d_rh = d_rhx[:, :d]
            dh = dh + gc * (1.0 - z) + d_rh * r
            dx = dx + d_rhx[:, d:]
            d_pre += [gc * (cand - hv) * z * (1.0 - z), d_rh * hv * r * (1.0 - r)]
            cell_grads.append((rhx.T @ d_cand_pre, d_cand_pre.sum(axis=0)))
        if gate is not None:
            d_b_pre = (g * (outs[0] - outs[1])).sum(axis=1, keepdims=True) * beta * (1.0 - beta)
            d_pre.append((d_b_pre @ gate.l2.w.values.T) * (a_pre > 0))
        d_pre = np.concatenate(d_pre, axis=1)
        d_hx = d_pre @ w_cat.T
        d_w, d_b = hx.T @ d_pre, d_pre.sum(axis=0)
        grads = [dh + d_hx[:, :d], dx + d_hx[:, d:]]
        for c, (d_wh, d_bh) in enumerate(cell_grads):
            for lo in (2 * c * d, (2 * c + 1) * d):  # z, then r
                grads += [d_w[:, lo : lo + d], d_b[lo : lo + d]]
            grads += [d_wh, d_bh]
        if gate is not None:
            lo = 2 * d * len(cells)
            grads += [d_w[:, lo:], d_b[lo:], a.T @ d_b_pre, d_b_pre.sum(axis=0)]
        return tuple(grads)

    parents = [h, x]
    for cell in cells:
        parents += [p.tensor for p in (cell.wz, cell.bz, cell.wr, cell.br, cell.wh, cell.bh)]
    if gate is not None:
        parents += [p.tensor for p in (gate.l1.w, gate.l1.b, gate.l2.w, gate.l2.b)]
    return Tensor(out, tuple(parents), grad_fn)
