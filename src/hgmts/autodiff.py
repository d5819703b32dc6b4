"""Dense float64 tensors with define-by-run reverse-mode differentiation.

While recording is on, every operation returns a new :class:`Tensor` whose
tape node remembers the parents' nodes and how to push an incoming gradient
back to them.  A node holds no value: each gradient function keeps, from the
moment it is recorded, only the arrays its backward reads, so an op result's
array lives exactly as long as the caller or some saved gradient function
holds it.  A leaf (a parameter or data) is its own node, so the backward pass
adds into its ``.grad`` directly.  Calling :func:`backward` on a scalar walks
the recorded graph once, running each node after every node that consumed it.
The graph (the "tape") is rebuilt from scratch on every recorded forward
pass, so ordinary Python control flow in model code needs no special
handling.  Inside ``with recording(False)`` an operation computes the same
values and every result shares one node with no parents, whose gradient
function is a refusal, so the closure and the arrays it saved die with the
operation.  The recording switch is a context variable, so each thread starts
recording and a ``with recording(...)`` block reaches only its own context.

Shapes never broadcast: ``add``, ``sub`` and ``mul`` take two tensors of one
shape or a tensor and a scalar on the right; anything else raises
:class:`ShapeMismatch`.  :func:`gather` is the one indexing op, with indices
distinct along the gathered axis, so its backward is a plain write.

Tensors are value-like and never mutate their inputs.  :func:`both` runs two
independent calls on two threads: the caller's, and a worker it starts for the
one call, which runs in a copy of the caller's context and so under its
recording switch; the tape they build is one tape.  A backward pass may drain
that tape on two threads through :func:`both`: each node waits until every
gradient into it has arrived, then sums them in the one-thread order.
Everything is float64: at desk scale, gradient checking and bitwise
reproducibility matter more than speed.
"""

from __future__ import annotations

import contextvars
import functools
import heapq
import os
import threading

import numpy as np


class ShapeMismatch(ValueError):
    """Operand shapes do not satisfy an operation's contract."""


class NumericError(ValueError):
    """Non-finite values appeared where finite ones are required."""


class ContractError(ValueError):
    """An operation precondition was violated."""


_recording = contextvars.ContextVar("recording", default=True)  # each thread starts recording


class recording:
    """Record a tape (``on``) or not inside the ``with`` block.

    The switch is per context, and each thread starts recording."""

    def __init__(self, on: bool):
        self.on = on

    def __enter__(self):
        self.token = _recording.set(self.on)

    def __exit__(self, *exc):
        _recording.reset(self.token)


# Callers ask ``both`` for two threads when their (rows, embed_dim) state arrays
# hold at least this many elements.  The crossover, measured as one hgmts1 training
# step with a two-thread backward pass (N=8, D=32, 3 stacks of 3 rounds, batch 32 to
# 128, 2 cores, one BLAS thread), threaded time over serial time in two runs:
# 1.07 and 0.96 at 8,192 elements (a tie), 0.92 at 10,240, 0.83 and 0.90 at 12,288,
# 0.79 at 14,336, 0.70 at 16,384 and 0.58 at 32,768.  A forward pass alone: 0.97
# at 8,192, 1.02 at 10,240, 0.93 at 12,288 and 0.82 at 16,384.
PARALLEL_MIN_SIZE = 3 * 2**12


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def both(first, second, parallel: bool) -> tuple:
    """``(first(), second())``: with ``parallel``, ``first`` runs on a worker
    thread that this call starts, while ``second`` runs on this one.

    The worker runs ``first`` in a copy of this thread's context variables: the
    recording switch and numpy's ``errstate``.  This thread joins the worker
    before it returns or raises, so no worker outlives the call; when both
    calls raise, ``first``'s error wins, as it would run first in order.  The
    worker is a daemon, so a ``first`` that never returns cannot keep the
    interpreter from exiting.  A call from inside either call starts its own
    worker.  The two run inline, ``first`` first, without ``parallel`` or on a
    process allowed fewer than 2 CPUs.  Neither call may write, without a
    lock, anything the other reads.
    """
    if not parallel or _usable_cpus() < 2:
        return first(), second()
    context, out = contextvars.copy_context(), {}

    def run_first():
        try:
            out["result"] = context.run(first)
        except BaseException as exc:  # raised again on this thread
            out["error"] = exc

    worker = threading.Thread(target=run_first, name="hgmts-worker", daemon=True)
    worker.start()
    try:
        second_out = second()
    finally:
        worker.join()
        if "error" in out:
            raise out["error"]
    return out["result"], second_out


def _no_tape(g):
    """The gradient function of every op result computed while recording was off."""
    raise ContractError(
        "backward reached a tensor computed without a tape: it was computed while "
        "recording was off, as at inference (Model.forward_batch records a tape only "
        "when given a training step)")


class _Node:
    """An op result's place on the tape: its parents' nodes (a leaf parent is
    its own node) and the gradient function aligned with them.  It holds no
    value."""

    __slots__ = ("_parents", "_grad_fn")

    def __init__(self, parents: tuple, grad_fn):
        self._parents = parents
        self._grad_fn = grad_fn


_NO_TAPE = _Node((), _no_tape)  # the one node of every op result computed while recording was off


class Tensor:
    """A float64 value and its place on the differentiation tape.

    ``values`` is a float64 ndarray. A leaf (a parameter or data) is built
    directly from values and is its own tape node, with no parents and no
    gradient function; its ``grad`` has the same shape and is set by the first
    backward pass that reaches it.  An op result keeps ``grad`` None and holds
    a :class:`_Node`, the parents' nodes and a gradient function aligned with
    them; the node does not hold the result, so its array dies with the last
    Tensor or gradient function that holds it.  An op result computed while
    recording was off holds the shared no-tape node: no parents, and a
    gradient function that refuses the backward pass that reaches it.
    ``_parents`` and ``_grad_fn`` read the node.
    """

    __slots__ = ("values", "grad", "_node")

    def __init__(self, values, _parents=(), _grad_fn=None):
        if not _parents or type(values) is not np.ndarray:  # leaves; 0-d op results
            values = np.asarray(values, dtype=np.float64)
        self.values = values
        self.grad = None
        if not _parents:
            self._node = None  # a leaf is its own node
        elif _recording.get():
            self._node = _Node(tuple([p._node or p for p in _parents]), _grad_fn)
        else:
            self._node = _NO_TAPE

    @property
    def _parents(self) -> tuple:
        return self._node._parents if self._node else ()

    @property
    def _grad_fn(self):
        return self._node._grad_fn if self._node else None

    @property
    def shape(self):
        return self.values.shape

    def item(self) -> float:
        if self.values.size != 1:
            raise ContractError(f"item() requires a single element, got shape {self.shape}")
        return float(self.values.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape})"


def _summed(slots: list):
    """A node's incoming gradients added left to right in reverse slot order,
    skipping None; None when every slot is None."""
    total = None
    for g in reversed(slots):
        if g is not None:
            total = g if total is None else total + g
    return total


class _Walk:
    """One backward pass over a tape, drained by one thread or two.

    One iterative depth-first search, to survive deep graphs, gives each node
    its topological position, parents before children.  Placing a node appends
    one slot to each parent's slot list, its parents taken in reversed tuple
    order, so a list read backwards holds the order of a one-thread walk in
    reverse topological order: consumers by descending position, then by
    parent-tuple index.  A pushed gradient fills its slot; once a node's slots
    are all filled, :func:`_summed` adds them in that order, so every sum adds
    the same arrays in the same order however the drains interleave.  A leaf
    takes that sum at once; an op node goes onto the ready heap and is summed
    by the drain that runs it, outside the lock.  Drains take the ready op node
    of highest position first, so one drain alone runs the op nodes in reverse
    topological order.
    """

    def __init__(self, loss: Tensor):
        self.order = order = []  # nodes by position
        self.slots = slots = []  # per node, one slot per edge into it
        self.edges = edges = []  # per node, (parent position, slot) per parent, last parent first
        at: dict = {}  # id(node) -> its position, None while the search is below it
        stack: list[tuple] = [(loss._node, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                at[id(node)] = len(order)
                order.append(node)
                slots.append([])
                mine = []
                for parent in reversed(node._parents):
                    k = at[id(parent)]
                    mine.append((k, len(slots[k])))
                    slots[k].append(None)
                edges.append(mine)
                continue
            if id(node) in at:
                continue
            at[id(node)] = None
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in at:
                    stack.append((parent, False))
        self.missing = [len(node_slots) for node_slots in slots]  # per node, its empty slots
        slots[-1].append(np.ones_like(loss.values))  # the root comes last and has no consumer
        self.ready = [1 - len(order)]  # a heap of negated positions
        self.left = len(order)
        self.error: BaseException | None = None
        self.lock = threading.Lock()
        self.wake = threading.Condition(self.lock)

    def _push(self, i: int, grads) -> None:
        """Put node i's parent gradients (None: no gradient) into their slots; a leaf
        whose slots are all filled adds their sum into its own ``.grad`` (a copy if none)."""
        slots, missing = self.slots, self.missing
        for (k, slot), pg in zip(self.edges[i], reversed(grads), strict=True):
            slots[k][slot] = pg
            missing[k] -= 1
            if missing[k]:
                continue
            node = self.order[k]
            if node._grad_fn is not None:
                heapq.heappush(self.ready, -k)
                continue
            g, slots[k] = _summed(slots[k]), None
            if g is not None:
                node.grad = np.array(g) if node.grad is None else np.add(node.grad, g, out=node.grad)
            self.left -= 1

    def drain(self) -> None:
        """Run ready nodes until the walk ends or a node raises; a node's sum
        and gradient function run outside the lock."""
        lock, ready, slots, order, push = self.lock, self.ready, self.slots, self.order, self._push
        done = None  # (position, parent gradients) of the node this drain last ran
        try:
            while True:
                with lock:
                    if done is not None:
                        push(*done)
                        done = None
                        self.left -= 1
                        if len(ready) > 1 or not self.left:
                            self.wake.notify()
                    while not ready and self.left and self.error is None:
                        self.wake.wait()
                    if not ready or self.error is not None:
                        return
                    i = -heapq.heappop(ready)
                    incoming, slots[i] = slots[i], None
                g = _summed(incoming)
                del incoming  # the summed gradients may die before the gradient function runs
                node = order[i]
                done = (i, (None,) * len(node._parents) if g is None else node._grad_fn(g))
                del g  # a drain that waits holds no gradient
        except BaseException as exc:
            with lock:
                if self.error is None:
                    self.error = exc
                self.wake.notify_all()
            raise


def backward(loss: Tensor, parallel: bool = False) -> None:
    """Accumulate d(loss)/d(leaf) into ``.grad`` of every leaf reachable from ``loss``.

    Op results keep ``.grad`` None: each intermediate gradient is dropped once
    it has been pushed to its parents.  Each leaf owns its ``.grad``: a call
    adds into it in place (a leaf without one gets a fresh array), so repeated
    calls add another full pass of gradients, one d(loss)/d(leaf) per leaf,
    and a ``.grad`` that views a buffer, as in training, accumulates there.

    With ``parallel``, the caller and the worker thread that :func:`both`
    starts drain the tape together, each running a node whose consumers have
    all run; without it, the caller drains alone.  A node sums its incoming
    gradients once the last one has arrived, always in the one-thread order
    (see :class:`_Walk`), so each ``.grad`` is bitwise the same either way.
    When a gradient function raises on either thread, both drains stop and
    the caller gets that exception.

    The walk reads tape nodes only: every gradient function holds the arrays
    it reads, and a leaf, being its own node, gets its ``.grad`` from the
    walk.  So the caller needs to keep no Tensor but ``loss``, and an op
    result that no gradient function saved may be freed before the walk.

    ``loss`` must be an op result, and every op between it and the leaves must
    have been recorded: a tapeless op's gradient function raises ContractError.
    """
    if loss.values.size != 1:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
    if loss._grad_fn is None:
        raise ContractError("backward requires an op result, got a leaf tensor")
    walk = _Walk(loss)
    both(walk.drain, walk.drain, parallel)


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
        av, bv = a.values, b.values
        return Tensor(av * bv, (a, b), lambda g: (g * bv, g * av))
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
    shape = a.values.shape

    def grad_fn(g):
        gx = np.zeros(shape)
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
