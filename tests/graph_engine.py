"""Minimal dense-tensor reverse-mode automatic differentiation: the tests'
gradient oracle.

Tensors are plain float64 numpy arrays. A :class:`Node` wraps a tensor
value together with its parents and the vector-Jacobian product needed
for the backward sweep. Graphs are dynamic: build one per batch, call
:func:`backward` on a scalar node, read gradients off the leaves.

The program does not run on this engine. ``adagev.model.mlp_backward`` uses
the vjps of ``linear``, ``relu`` and ``tanh``, the heads compute the values
of ``stable_softmax`` and ``sigmoid``, and the losses' gradients on the
logits are the vjps of ``stable_softmax`` and ``graph_reference``'s
``log_softmax`` and ``log_sigmoid``. The engine serves the gradient checks
(acceptance criteria 1-3) and ``graph_reference``, which holds the training
step, the networks and the binary head to the same bits. A non-finite value
raises the program's own ``NonFiniteError``, so a graph and the fused step
fail alike.

The one non-standard op is :func:`grad_reverse`, which is the identity
in the forward pass and multiplies the upstream gradient by ``-scale``
in the backward pass. It is what lets a min-max objective be optimized
in a single joint descent step.
"""

from __future__ import annotations

import numpy as np

from adagev.autodiff import LOG_CLAMP, NonFiniteError


class AutodiffError(ValueError):
    """Shape mismatch, non-scalar backward seed, or similar misuse."""


class Node:
    """One vertex of the computation graph.

    ``value`` is the cached forward tensor, ``grad`` the accumulated
    gradient of the same shape: None until :func:`backward` reaches the
    node, and reset at the start of every backward pass. Leaves have no
    parents.
    """

    __slots__ = ("value", "grad", "parents", "_vjp", "op")

    def __init__(self, value, parents=(), vjp=None, op="leaf"):
        value = np.asarray(value, dtype=np.float64)
        if not np.isfinite(value).all():
            raise NonFiniteError(f"op '{op}' produced non-finite values")
        self.value = value
        self.grad = None
        self.parents = tuple(parents)
        self._vjp = vjp
        self.op = op

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Node(op={self.op!r}, shape={self.value.shape})"


def leaf(value) -> Node:
    """Wrap a raw array as a graph leaf (parameter or input)."""
    return Node(value)


def as_node(x) -> Node:
    return x if isinstance(x, Node) else leaf(x)


def linear(x, w: Node, b: Node) -> Node:
    """Affine layer x @ w + b, the engine's only matrix product.

    A plain array ``x`` (a data batch) gets no parent edge, so its
    gradient, which nothing reads, is never computed.
    """
    w, b = as_node(w), as_node(b)
    data = not isinstance(x, Node)
    xv = np.asarray(x, dtype=np.float64) if data else x.value
    if (xv.ndim != 2 or w.value.ndim != 2 or xv.shape[1] != w.value.shape[0]
            or b.value.shape != (w.value.shape[1],)):
        raise AutodiffError(
            f"linear shape mismatch: {xv.shape} x {w.value.shape} + {b.value.shape}"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # Node reports a non-finite value
        value = xv @ w.value + b.value
    if data:
        return Node(value, (w, b), lambda g: (xv.T @ g, g.sum(axis=0)), op="linear")
    return Node(value, (x, w, b), lambda g: (g @ w.value.T, xv.T @ g, g.sum(axis=0)),
                op="linear")


def add(a: Node, b) -> Node:
    """Elementwise add; one operand may be a scalar."""
    a, b = as_node(a), as_node(b)
    _check_broadcast(a, b, "add")

    def vjp(g):
        return _reduce_to(g, a.value.shape), _reduce_to(g, b.value.shape)

    return Node(a.value + b.value, (a, b), vjp, op="add")


def mul(a: Node, b) -> Node:
    """Elementwise multiply; one operand may be a scalar."""
    a, b = as_node(a), as_node(b)
    _check_broadcast(a, b, "mul")

    def vjp(g):
        return _reduce_to(g * b.value, a.value.shape), _reduce_to(g * a.value, b.value.shape)

    return Node(a.value * b.value, (a, b), vjp, op="mul")


def scale(a: Node, k: float) -> Node:
    """Multiply by a python constant (no graph node for the constant)."""
    a = as_node(a)
    return Node(a.value * k, (a,), lambda g: (g * k,), op="scale")


def relu(x: Node) -> Node:
    x = as_node(x)
    mask = x.value > 0

    def vjp(g):
        return (g * mask,)

    return Node(np.where(mask, x.value, 0.0), (x,), vjp, op="relu")


def tanh(x: Node) -> Node:
    x = as_node(x)
    y = np.tanh(x.value)
    return Node(y, (x,), lambda g: (g * (1.0 - y * y),), op="tanh")


def sigmoid(x: Node) -> Node:
    x = as_node(x)
    with np.errstate(over="ignore"):
        y = 1.0 / (1.0 + np.exp(-x.value))
    return Node(y, (x,), lambda g: (g * y * (1.0 - y),), op="sigmoid")


def log_clamped(x: Node) -> Node:
    """log(max(x, 1e-12)); gradient is zero in the clamped region."""
    x = as_node(x)
    clamped = np.maximum(x.value, LOG_CLAMP)
    active = x.value > LOG_CLAMP

    def vjp(g):
        return (np.where(active, g / clamped, 0.0),)

    return Node(np.log(clamped), (x,), vjp, op="log_clamped")


def stable_softmax(logits: Node) -> Node:
    """Row-wise softmax with max subtraction for overflow safety."""
    logits = as_node(logits)
    if logits.value.ndim != 2 or logits.value.shape[1] < 2:
        raise AutodiffError(f"softmax expects [B,K] with K>=2, got {logits.value.shape}")
    shifted = logits.value - logits.value.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=1, keepdims=True)

    def vjp(g):
        inner = (g * p).sum(axis=1, keepdims=True)
        return (p * (g - inner),)

    return Node(p, (logits,), vjp, op="stable_softmax")


def reduce_sum(x: Node) -> Node:
    x = as_node(x)
    n = x.value.shape

    def vjp(g):
        return (np.full(n, float(g)),)

    return Node(x.value.sum(), (x,), vjp, op="sum")


def reduce_mean(x: Node) -> Node:
    x = as_node(x)
    count = x.value.size

    def vjp(g):
        return (np.full(x.value.shape, float(g) / count),)

    return Node(x.value.mean(), (x,), vjp, op="mean")


def grad_reverse(x: Node, grl_scale: float = 1.0) -> Node:
    """Identity forward; backward multiplies the upstream gradient by -scale."""
    x = as_node(x)
    if grl_scale <= 0:
        raise AutodiffError("grad_reverse scale must be positive")
    # np.asarray does not copy a float64 array: the forward is x.value itself
    return Node(x.value, (x,), lambda g: (-grl_scale * g,), op="grad_reverse")


def _check_broadcast(a: Node, b: Node, op: str) -> None:
    if a.value.shape == b.value.shape:
        return
    if a.value.size == 1 or b.value.size == 1:
        return
    raise AutodiffError(
        f"{op}: only scalar-vs-tensor broadcasting supported, "
        f"got {a.value.shape} vs {b.value.shape}"
    )


def _reduce_to(g, shape):
    if g.shape == shape:
        return g
    return np.full(shape, g.sum()) if shape == () or np.prod(shape) == 1 else g.sum()


def topo_order(root: Node) -> list[Node]:
    """Nodes reachable from root in topological order (parents first)."""
    order, seen = [], set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            stack.append((p, False))
    return order


def backward(loss: Node) -> None:
    """Reverse-accumulate d(loss)/d(node) into .grad over the whole graph.

    All gradients in the reachable graph are reset first, so repeated
    calls yield identical gradients. A node's first contribution is stored
    as is and later ones are added out of place: a vjp may hand back its
    upstream array, so gradients may share memory and none is written to.
    """
    if loss.value.size != 1:
        raise AutodiffError(f"backward needs a scalar loss, got shape {loss.value.shape}")
    order = topo_order(loss)
    for node in order:
        node.grad = None
    loss.grad = np.ones_like(loss.value)
    for node in reversed(order):
        if node._vjp is None:
            continue
        g = node.grad if node.value.ndim > 0 else node.grad[()]
        parent_grads = node._vjp(g)
        for parent, pg in zip(node.parents, parent_grads):
            pg = np.asarray(pg, dtype=np.float64).reshape(parent.value.shape)
            parent.grad = pg if parent.grad is None else parent.grad + pg
