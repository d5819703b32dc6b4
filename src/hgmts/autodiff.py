"""Dense float64 tensors with define-by-run reverse-mode differentiation.

While recording is on, every operation returns a new :class:`Tensor` that
remembers its parents and how to push an incoming gradient back to them.
Calling :func:`backward` on a scalar walks the recorded graph once in reverse
topological order.  The graph (the "tape") is rebuilt from scratch on every
recorded forward pass, so ordinary Python control flow in model code needs no
special handling.  Inside ``with recording(False)`` an operation computes the
same values but keeps no parents, and its gradient function is one shared
refusal, so its closure and the arrays the closure saved die with the
operation; recording is a per-thread setting and is on by default.

Shapes never broadcast: ``add``, ``sub`` and ``mul`` take two tensors of one
shape or a tensor and a scalar on the right; anything else raises
:class:`ShapeMismatch`.  :func:`gather` is the one indexing op, with indices
distinct along the gathered axis, so its backward is a plain write.

Tensors are value-like and never mutate their inputs.  :func:`both` runs two
independent calls on two threads under the caller's recording switch; the
tape they build is one tape, and a backward pass runs on one thread.
Everything is float64: at desk scale, gradient checking and bitwise
reproducibility matter more than speed.
"""

from __future__ import annotations

import contextvars
import functools
import os
import threading

import numpy as np


class ShapeMismatch(ValueError):
    """Operand shapes do not satisfy an operation's contract."""


class NumericError(ValueError):
    """Non-finite values appeared where finite ones are required."""


class ContractError(ValueError):
    """An operation precondition was violated."""


class _Recording(threading.local):
    on = True  # each thread starts recording


_recording = _Recording()


class recording:
    """Record a tape (``on``) or not, on this thread only, inside the ``with`` block."""

    def __init__(self, on: bool):
        self.on = on

    def __enter__(self):
        self.before = _recording.on
        _recording.on = self.on

    def __exit__(self, *exc):
        _recording.on = self.before


# Callers ask ``both`` for two threads when their (rows, embed_dim) state arrays
# hold at least this many elements.  The crossover, measured as one hgmts1 training
# step (D=32, 3 stacks of 3 rounds, 2 cores, one BLAS thread), threaded time over
# serial time: 1.16 at 8,192 elements, 1.07 at 12,288, 1.01 at 16,384, 0.71 at
# 32,768 and 0.68 at 82,176.
PARALLEL_MIN_SIZE = 2**14

_pool: tuple = (None, None)  # (pid, one-thread executor); a forked child makes its own
_pool_lock = threading.Lock()
_on_worker = threading.local()


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _worker():
    from concurrent.futures import ThreadPoolExecutor  # 0.6 MB of modules, for threaded runs only

    global _pool
    with _pool_lock:
        if _pool[0] != os.getpid():  # none yet, or inherited through fork: its thread is gone
            _pool = (os.getpid(), ThreadPoolExecutor(
                1, "hgmts-worker", initializer=setattr, initargs=(_on_worker, "on", True)))
        return _pool[1]


def _run_recording(on: bool, fn):
    with recording(on):
        return fn()


def both(first, second, parallel: bool) -> tuple:
    """``(first(), second())``: with ``parallel``, ``first`` runs on one persistent
    worker thread while ``second`` runs on this one.

    The worker runs under this thread's recording switch and in a copy of its
    context variables (numpy's ``errstate`` among them).  This thread joins the
    worker before it returns or raises; when both calls raise, ``first``'s error
    wins, as it would run first in order.  The two run inline, ``first`` first,
    without ``parallel``, on a process allowed fewer than 2 CPUs, or when called
    from the worker itself (it would wait on its own queue).  The two calls must
    not write anything the other reads.
    """
    if not parallel or getattr(_on_worker, "on", False) or _usable_cpus() < 2:
        return first(), second()
    future = _worker().submit(contextvars.copy_context().run, _run_recording, _recording.on,
                              first)
    try:
        second_out = second()
    finally:
        first_out = future.result()
    return first_out, second_out


def _no_tape(g):
    """The gradient function of every op result computed while recording was off."""
    raise ContractError(
        "backward reached a tensor computed without a tape: it was computed while "
        "recording was off, as at inference (Model.forward_batch records a tape only "
        "when given a training step)")


class Tensor:
    """A node of the differentiation tape.

    ``values`` is a float64 ndarray. A leaf (a parameter or data) is built
    directly from values, with no parents and no gradient function; its
    ``grad`` has the same shape and is set by the first backward pass that
    reaches it.  An op result keeps ``grad`` None and carries a gradient
    function aligned with its parent tuple, unless it was computed while
    recording was off: then it keeps no parents, and its gradient function
    refuses the backward pass that reaches it.
    """

    __slots__ = ("values", "grad", "_parents", "_grad_fn")

    def __init__(self, values, _parents=(), _grad_fn=None):
        if not _parents or type(values) is not np.ndarray:  # leaves; 0-d op results
            values = np.asarray(values, dtype=np.float64)
        if _parents and not _recording.on:
            _parents, _grad_fn = (), _no_tape
        self.values = values
        self.grad = None
        self._parents = _parents
        self._grad_fn = _grad_fn

    @property
    def shape(self):
        return self.values.shape

    def item(self) -> float:
        if self.values.size != 1:
            raise ContractError(f"item() requires a single element, got shape {self.shape}")
        return float(self.values.reshape(()))

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
    """Accumulate d(loss)/d(leaf) into ``.grad`` of every leaf reachable from ``loss``.

    Op results keep ``.grad`` None: each intermediate gradient is dropped once
    it has been pushed to its parents.  Repeated calls without clearing grads
    add another full pass of gradients (each call contributes exactly one
    d(loss)/d(leaf) per leaf).  Gradient buffers are accumulated by
    reassignment and may share storage, so treat ``.grad`` as read-only.

    ``loss`` must be an op result, and every op between it and the leaves must
    have been recorded: a tapeless op's gradient function raises ContractError.
    """
    if loss.values.size != 1:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
    if loss._grad_fn is None:
        raise ContractError("backward requires an op result, got a leaf tensor")
    order = _topo_order(loss)
    pending: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.values)}
    for node in reversed(order):
        g = pending.pop(id(node), None)
        if g is None:
            continue
        if node._grad_fn is None:
            node.grad = g if node.grad is None else node.grad + g
            continue
        for parent, pg in zip(node._parents, node._grad_fn(g)):
            if pg is None:
                continue
            key = id(parent)
            if key in pending:
                pending[key] = pending[key] + pg
            else:
                pending[key] = pg


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------


def _pair(op: str, a, b) -> bool:
    """True for two tensors of one shape, False for a tensor and a scalar on the right."""
    tensors = isinstance(b, Tensor)
    if not isinstance(a, Tensor) or (a.shape != b.shape if tensors else np.ndim(b) != 0):
        shapes = [x.shape if isinstance(x, Tensor) else np.shape(x) for x in (a, b)]
        raise ShapeMismatch(f"{op} takes two tensors of one shape or a tensor and a scalar "
                            f"on the right, got shapes {shapes[0]} and {shapes[1]}")
    return tensors


def add(a: Tensor, b) -> Tensor:
    if _pair("add", a, b):
        return Tensor(a.values + b.values, (a, b), lambda g: (g, g))
    return Tensor(a.values + b, (a,), lambda g: (g,))


def sub(a: Tensor, b) -> Tensor:
    if _pair("sub", a, b):
        return Tensor(a.values - b.values, (a, b), lambda g: (g, -g))
    return Tensor(a.values - b, (a,), lambda g: (g,))


def mul(a: Tensor, b) -> Tensor:
    if _pair("mul", a, b):
        return Tensor(a.values * b.values, (a, b), lambda g: (g * b.values, g * a.values))
    return Tensor(a.values * b, (a,), lambda g: (g * b,))


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


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


def sum(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:  # noqa: A001
    out = a.values.sum(axis=axis, keepdims=keepdims)
    shape = a.values.shape

    def grad_fn(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape).copy(),)

    return Tensor(out, (a,), grad_fn)


def mean(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    out = a.values.mean(axis=axis, keepdims=keepdims)
    shape = a.values.shape
    count = a.values.size if axis is None else shape[axis]

    def grad_fn(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape) / count,)

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
# structure: gather
# ---------------------------------------------------------------------------


def gather(a: Tensor, indices, axis: int) -> Tensor:
    """``np.take_along_axis(a, indices, axis)``; indices broadcast over the other axes.

    Indices must be distinct along ``axis``, so backward is a plain write.
    """
    idx = np.asarray(indices, dtype=np.intp)
    out = np.take_along_axis(a.values, idx, axis=axis)

    def grad_fn(g):
        gx = np.zeros_like(a.values)
        np.put_along_axis(gx, idx, g, axis=axis)
        return (gx,)

    return Tensor(out, (a,), grad_fn)


# ---------------------------------------------------------------------------
# pooling
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=32)
def window_counts(length: int, kernel: int, padding: str) -> np.ndarray:
    """Read-only C with C[j, i] = how often input column j falls in output i's window."""
    pad = kernel // 2
    idx = np.arange(length)
    counts = (np.abs(idx[:, None] - idx) <= pad).astype(np.float64)
    if padding == "edge":  # replicated end values count toward the end columns
        counts[0] += np.maximum(pad - idx, 0)
        counts[-1] += np.maximum(idx + pad + 1 - length, 0)
    counts.flags.writeable = False
    return counts


def avgpool1d(a: Tensor, kernel: int, padding: str = "edge") -> Tensor:
    """Length-preserving per-row moving average; odd ``kernel``, "edge" or "zero" padding.

    One GEMM with the cached (L, L) integer counts C of :func:`window_counts`: a @ C / kernel,
    backward g @ C.T / kernel; dividing last keeps means of dyadic constants exact.  O(L^2) per
    row against O(L * kernel) for shifted adds, yet faster at kernel 25 up to L=720 (1 thread,
    256 rows, fwd + bwd: 0.96 -> 0.10 ms at L=48, 6.2 -> 2.8 at L=336, 13.5 -> 12.9 at L=720;
    forward alone 5.0 -> 6.2 ms at L=720).  A non-finite input spreads NaN over its row.
    """
    if kernel < 1 or kernel % 2 == 0:
        raise ContractError(f"avgpool1d kernel must be odd and >= 1, got {kernel}")
    if padding not in ("edge", "zero"):
        raise ContractError(f"avgpool1d padding must be 'edge' or 'zero', got {padding!r}")
    if a.values.ndim != 2:
        raise ShapeMismatch(f"avgpool1d requires a 2-D tensor, got shape {a.shape}")
    counts = window_counts(a.values.shape[1], kernel, padding)
    return Tensor(a.values @ counts / kernel, (a,), lambda g: (g @ counts.T / kernel,))
