"""Dense float64 tensors with define-by-run reverse-mode differentiation.

Every operation returns a new :class:`Tensor` that remembers its parents and
how to push an incoming gradient back to them.  Calling :func:`backward` on a
scalar walks the recorded graph once in reverse topological order.  The graph
(the "tape") is rebuilt from scratch on every forward pass, so ordinary Python
control flow in model code needs no special handling.

Tensors are value-like and never mutate their inputs; a graph built on one
thread should be differentiated on that thread.  Everything is float64: at
desk scale, gradient checking and bitwise reproducibility matter more than
speed.
"""

from __future__ import annotations

import numpy as np


class ShapeMismatch(ValueError):
    """Operand shapes do not satisfy an operation's contract."""


class NumericError(ValueError):
    """Non-finite values appeared where finite ones are required."""


class ContractError(ValueError):
    """An operation precondition was violated."""


class Tensor:
    """A node of the differentiation tape.

    ``values`` is a float64 ndarray. ``grad`` has the same shape and is
    allocated lazily on the first backward pass that reaches this node.
    Leaves are built directly from data; op results carry a gradient
    function aligned with their parent tuple.
    """

    __slots__ = ("values", "grad", "_parents", "_grad_fn")

    def __init__(self, values, _parents=(), _grad_fn=None):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad = None
        self._parents = _parents
        self._grad_fn = _grad_fn

    @property
    def shape(self):
        return self.values.shape

    @property
    def ndim(self):
        return self.values.ndim

    @property
    def size(self):
        return self.values.size

    def item(self) -> float:
        if self.values.size != 1:
            raise ContractError(f"item() requires a single element, got shape {self.shape}")
        return float(self.values.reshape(()))

    def zero_grad(self):
        self.grad = None

    # operator sugar; scalars are folded in without creating constant nodes
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        out = self.values[key]

        def grad_fn(g):
            gx = np.zeros_like(self.values)
            gx[key] += g  # basic indexing only; integer-array gathers use take_rows
            return (gx,)

        return Tensor(out, (self,), grad_fn)

    def __repr__(self):
        return f"Tensor(shape={self.shape})"


def _topo_order(root: Tensor) -> list[Tensor]:
    """Parents-before-children ordering, iterative to survive deep graphs."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(node) into ``.grad`` of every node reachable from ``loss``.

    Repeated calls without clearing grads add another full pass of gradients
    (each call contributes exactly one d(loss)/d(node) per node).  Gradient
    buffers are accumulated by reassignment and may share storage, so treat
    ``.grad`` as read-only.
    """
    if loss.values.size != 1:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
    order = _topo_order(loss)
    pending: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.values)}
    for node in reversed(order):
        g = pending.pop(id(node), None)
        if g is None:
            continue
        node.grad = g if node.grad is None else node.grad + g
        if node._grad_fn is None:
            continue
        for parent, pg in zip(node._parents, node._grad_fn(g)):
            if pg is None:
                continue
            key = id(parent)
            if key in pending:
                pending[key] = pending[key] + pg
            else:
                pending[key] = pg


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    g = np.asarray(g)
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    if isinstance(a, Tensor) and isinstance(b, Tensor):
        out = a.values + b.values
        if a.values.shape == b.values.shape:
            return Tensor(out, (a, b), lambda g: (g, g))

        def grad_fn(g):
            return (_unbroadcast(g, a.values.shape), _unbroadcast(g, b.values.shape))

        return Tensor(out, (a, b), grad_fn)
    if isinstance(a, Tensor):
        return Tensor(a.values + b, (a,), lambda g: (_unbroadcast(g, a.values.shape),))
    return Tensor(a + b.values, (b,), lambda g: (_unbroadcast(g, b.values.shape),))


def sub(a, b) -> Tensor:
    if isinstance(a, Tensor) and isinstance(b, Tensor):
        out = a.values - b.values
        if a.values.shape == b.values.shape:
            return Tensor(out, (a, b), lambda g: (g, -g))

        def grad_fn(g):
            return (_unbroadcast(g, a.values.shape), _unbroadcast(-g, b.values.shape))

        return Tensor(out, (a, b), grad_fn)
    if isinstance(a, Tensor):
        return Tensor(a.values - b, (a,), lambda g: (_unbroadcast(g, a.values.shape),))
    return Tensor(a - b.values, (b,), lambda g: (_unbroadcast(-g, b.values.shape),))


def mul(a, b) -> Tensor:
    if isinstance(a, Tensor) and isinstance(b, Tensor):
        out = a.values * b.values
        if a.values.shape == b.values.shape:
            return Tensor(out, (a, b), lambda g: (g * b.values, g * a.values))

        def grad_fn(g):
            return (
                _unbroadcast(g * b.values, a.values.shape),
                _unbroadcast(g * a.values, b.values.shape),
            )

        return Tensor(out, (a, b), grad_fn)
    if isinstance(a, Tensor):
        return Tensor(a.values * b, (a,), lambda g: (_unbroadcast(g * b, a.values.shape),))
    return Tensor(a * b.values, (b,), lambda g: (_unbroadcast(g * a, b.values.shape),))


def neg(a: Tensor) -> Tensor:
    return Tensor(-a.values, (a,), lambda g: (-g,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of 2-D operands, or per-matrix product of equal-batch 3-D ones."""
    av, bv = a.values, b.values
    if av.ndim != bv.ndim or av.ndim not in (2, 3) or av.shape[:-2] != bv.shape[:-2]:
        raise ShapeMismatch(
            "matmul requires 2-D or equal-batch 3-D operands, "
            f"got shapes {av.shape} and {bv.shape}"
        )
    if av.shape[-1] != bv.shape[-2]:
        raise ShapeMismatch(f"matmul: inner dimensions disagree for shapes {av.shape} and {bv.shape}")
    out = av @ bv

    def grad_fn(g):
        return (g @ np.swapaxes(bv, -1, -2), np.swapaxes(av, -1, -2) @ g)

    return Tensor(out, (a, b), grad_fn)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b in one node; b is a length-d_out row vector."""
    xv, wv = x.values, w.values
    if xv.ndim != 2 or wv.ndim != 2 or xv.shape[1] != wv.shape[0]:
        raise ShapeMismatch(f"affine: incompatible shapes {xv.shape} and {wv.shape}")
    out = xv @ wv
    out += b.values

    def grad_fn(g):
        return (g @ wv.T, xv.T @ g, g.sum(axis=0))

    return Tensor(out, (x, w, b), grad_fn)


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes of a 2-D or 3-D tensor."""
    if a.values.ndim not in (2, 3):
        raise ShapeMismatch(f"transpose requires a 2-D or 3-D tensor, got shape {a.shape}")
    return Tensor(np.swapaxes(a.values, -1, -2), (a,), lambda g: (np.swapaxes(g, -1, -2),))


def reshape(a: Tensor, shape) -> Tensor:
    old = a.values.shape
    return Tensor(a.values.reshape(shape), (a,), lambda g: (g.reshape(old),))


# ---------------------------------------------------------------------------
# nonlinearities
# ---------------------------------------------------------------------------


def relu(a: Tensor) -> Tensor:
    return Tensor(np.maximum(a.values, 0.0), (a,), lambda g: (g * (a.values > 0),))


def sigmoid_values(v: np.ndarray) -> np.ndarray:
    """Logistic function on a plain array, in one pass of exp.

    For v below about -709, exp(-v) overflows to inf and the result is the
    exact limit 0.
    """
    out = np.negative(v, out=np.empty_like(v))  # one buffer; fresh ones fault pages in
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    return np.reciprocal(out, out=out)


def sigmoid(a: Tensor) -> Tensor:
    out = sigmoid_values(a.values)

    def grad_fn(g):
        return (g * out * (1.0 - out),)

    return Tensor(out, (a,), grad_fn)


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.values)
    return Tensor(out, (a,), lambda g: (g * (1.0 - out * out),))


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.values)
    return Tensor(out, (a,), lambda g: (g * out,))


def log(a: Tensor) -> Tensor:
    if (a.values <= 0).any():
        raise NumericError("log requires strictly positive inputs")
    return Tensor(np.log(a.values), (a,), lambda g: (g / a.values,))


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


def sum(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:  # noqa: A001
    out = a.values.sum(axis=axis, keepdims=keepdims)
    shape = a.values.shape

    def grad_fn(g):
        gg = np.asarray(g)
        if axis is not None and not keepdims:
            gg = np.expand_dims(gg, axis)
        return (np.broadcast_to(gg, shape).copy(),)

    return Tensor(out, (a,), grad_fn)


def mean(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    out = a.values.mean(axis=axis, keepdims=keepdims)
    shape = a.values.shape
    count = a.values.size if axis is None else shape[axis]

    def grad_fn(g):
        gg = np.asarray(g)
        if axis is not None and not keepdims:
            gg = np.expand_dims(gg, axis)
        return (np.broadcast_to(gg, shape) / count,)

    return Tensor(out, (a,), grad_fn)


def softmax_rows(a: Tensor) -> Tensor:
    """Softmax over the last axis (matrix rows, or the rows of each matrix in a
    batch) with row-max subtraction for stability."""
    v = a.values
    if v.ndim not in (2, 3):
        raise ShapeMismatch(f"softmax_rows requires a 2-D or 3-D tensor, got shape {a.shape}")
    if not np.isfinite(v).all():
        raise NumericError("softmax_rows requires finite inputs")
    e = np.exp(v - v.max(axis=-1, keepdims=True))
    out = e / e.sum(axis=-1, keepdims=True)

    def grad_fn(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - dot),)

    return Tensor(out, (a,), grad_fn)


# ---------------------------------------------------------------------------
# structure: concat / gather / scatter
# ---------------------------------------------------------------------------


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = list(tensors)
    out = np.concatenate([t.values for t in tensors], axis=axis)
    sizes = [t.values.shape[axis] for t in tensors]
    bounds = np.cumsum(sizes)[:-1]

    def grad_fn(g):
        return tuple(np.split(g, bounds, axis=axis))

    return Tensor(out, tuple(tensors), grad_fn)


def take_rows(a: Tensor, indices) -> Tensor:
    """Gather rows (first axis) of ``a`` by a 1-D index array.

    Repeated indices accumulate on backward: a stable sort groups each
    target's gradient rows in index order and one ``np.add.reduceat`` sums
    every group.  numpy adds a group's first row to the sum of the rest, so
    the result can differ from strict front-to-back accumulation in the last
    bit, but it is the same on every call.
    """
    idx = np.asarray(indices, dtype=np.intp)
    out = a.values[idx]

    def grad_fn(g):
        gx = np.zeros_like(a.values)
        if idx.size:
            order = np.argsort(idx, kind="stable")
            ordered = idx[order]
            starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
            gx[ordered[starts]] = np.add.reduceat(g[order], starts, axis=0)
        return (gx,)

    return Tensor(out, (a,), grad_fn)


def gather_last(a: Tensor, indices) -> Tensor:
    """out[..., j] = a[..., indices[..., j]] along the last axis.

    Indices must be distinct within each row, so backward is a plain write.
    """
    idx = np.asarray(indices, dtype=np.intp)
    out = np.take_along_axis(a.values, idx, axis=-1)

    def grad_fn(g):
        gx = np.zeros_like(a.values)
        np.put_along_axis(gx, idx, g, axis=-1)
        return (gx,)

    return Tensor(out, (a,), grad_fn)


def put_rows(a: Tensor, rows, num_rows: int) -> Tensor:
    """Write a[i] into row rows[i] of a zero tensor with ``num_rows`` rows.

    ``rows`` may have any shape matching a's leading axes; its entries must be
    distinct.  Rows never written stay zero.
    """
    rows = np.asarray(rows, dtype=np.intp)
    out = np.zeros((num_rows,) + a.values.shape[rows.ndim :], dtype=np.float64)
    out[rows] = a.values

    def grad_fn(g):
        return (g[rows],)

    return Tensor(out, (a,), grad_fn)


def scatter_2d(w: Tensor, rows, cols, shape: tuple[int, int]) -> Tensor:
    """Place w[i, j] at out[rows[i], cols[i, j]] in a zero matrix of ``shape``.

    Target positions must be distinct: rows unique, cols unique within a row.
    """
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    out = np.zeros(shape, dtype=np.float64)
    out[rows[:, None], cols] = w.values

    def grad_fn(g):
        return (g[rows[:, None], cols],)

    return Tensor(out, (w,), grad_fn)


# ---------------------------------------------------------------------------
# pooling
# ---------------------------------------------------------------------------


def avgpool1d(a: Tensor, kernel: int, padding: str = "edge") -> Tensor:
    """Per-row moving average preserving length via (kernel-1)/2 padding per side.

    ``padding`` is "edge" (replicate end values) or "zero".
    """
    if kernel < 1 or kernel % 2 == 0:
        raise ContractError(f"avgpool1d kernel must be odd and >= 1, got {kernel}")
    if padding not in ("edge", "zero"):
        raise ContractError(f"avgpool1d padding must be 'edge' or 'zero', got {padding!r}")
    if a.values.ndim != 2:
        raise ShapeMismatch(f"avgpool1d requires a 2-D tensor, got shape {a.shape}")
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
