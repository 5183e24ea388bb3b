"""The networks, and the ops the training step's losses need, as autodiff
graphs: the reference that the graph-free forward and backward passes of
``adagev.model`` and ``adagev.objective`` are held to bit for bit."""

import numpy as np

import graph_engine as ad

ACTIVATIONS = {"relu": ad.relu, "tanh": ad.tanh}
HEADS = {"none": lambda h: h, "softmax": ad.stable_softmax, "sigmoid": ad.sigmoid}


def param_nodes(group):
    """One parameter group as graph leaves."""
    return [ad.leaf(p) for p in group]


def mlp_graph(spec, nodes, x):
    """Forward an MLP to its logits as a graph, as a training pass does; ``x``
    is a node, or an array for a data batch. ``HEADS[spec.head]`` of the
    result is the inference output."""
    act = ACTIVATIONS[spec.activation]
    n_layers = len(spec.widths) - 1
    h = x
    for i in range(n_layers):
        h = ad.linear(h, nodes[2 * i], nodes[2 * i + 1])
        if i < n_layers - 1:
            h = act(h)
    return h


def log_softmax(logits):
    """Row-wise log-softmax of a [B,K] tensor; the vjp is g - p * sum(g) per row."""
    logits = ad.as_node(logits)
    shifted = logits.value - logits.value.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=1, keepdims=True)
    p = e / total

    def vjp(g):
        return (g - p * g.sum(axis=1, keepdims=True),)

    return ad.Node(shifted - np.log(total), (logits,), vjp, op="log_softmax")


def log_sigmoid(x):
    """log sigmoid(x) = -log(1 + exp(-x)), without overflow; the vjp is
    g * sigmoid(-x)."""
    x = ad.as_node(x)
    with np.errstate(over="ignore"):
        sig_neg = 1.0 / (1.0 + np.exp(x.value))

    def vjp(g):
        return (g * sig_neg,)

    return ad.Node(-np.logaddexp(0.0, -x.value), (x,), vjp, op="log_sigmoid")


def row_sum(x):
    """Sum over the last axis of a [B,K] tensor, yielding [B]."""
    x = ad.as_node(x)
    if x.value.ndim != 2:
        raise ad.AutodiffError(f"row_sum expects a matrix, got {x.value.shape}")
    cols = x.value.shape[1]

    def vjp(g):
        return (np.repeat(g[:, None], cols, axis=1),)

    return ad.Node(x.value.sum(axis=1), (x,), vjp, op="row_sum")


def gather_rows(p, idx):
    """Pick p[i, idx[i]] for each row, yielding [B]."""
    p = ad.as_node(p)
    idx = np.asarray(idx, dtype=np.int64)
    if p.value.ndim != 2 or idx.shape != (p.value.shape[0],):
        raise ad.AutodiffError("gather_rows expects [B,K] tensor and [B] indices")
    if idx.min() < 0 or idx.max() >= p.value.shape[1]:
        raise ad.AutodiffError("gather_rows index out of range")
    rows = np.arange(p.value.shape[0])

    def vjp(g):
        out = np.zeros_like(p.value)
        out[rows, idx] = g
        return (out,)

    return ad.Node(p.value[rows, idx], (p,), vjp, op="gather_rows")


def weighted_sum(x, weights):
    """sum_i w_i * x_i with the weights treated as constants.

    No gradient flows into the weights; they are detached by contract.
    """
    x = ad.as_node(x)
    w = np.asarray(weights, dtype=np.float64)
    if x.value.shape[0] != w.shape[0] or w.ndim != 1:
        raise ad.AutodiffError(
            f"weighted_sum shape mismatch: x {x.value.shape}, w {w.shape}"
        )
    if x.value.ndim == 2 and x.value.shape[1] == 1:
        wv = w[:, None]
    elif x.value.ndim == 1:
        wv = w
    else:
        raise ad.AutodiffError(f"weighted_sum expects [B] or [B,1], got {x.value.shape}")

    def vjp(g):
        return (float(g) * wv * np.ones_like(x.value),)

    return ad.Node((wv * x.value).sum(), (x,), vjp, op="weighted_sum")
