"""The networks, and the ops the training step's losses need, as autodiff
graphs: the reference that the graph-free forward and backward passes of
``adagev.model`` and ``adagev.objective`` are held to bit for bit."""

import numpy as np

from adagev import autodiff as ad

ACTIVATIONS = {"relu": ad.relu, "tanh": ad.tanh}


def param_nodes(group):
    """One parameter group as graph leaves."""
    return [ad.leaf(p) for p in group]


def mlp_graph(spec, nodes, x):
    """Forward an MLP as a graph; ``x`` is a node, or an array for a data batch."""
    act = ACTIVATIONS[spec.activation]
    n_layers = len(spec.widths) - 1
    h = x
    for i in range(n_layers):
        h = ad.linear(h, nodes[2 * i], nodes[2 * i + 1])
        if i < n_layers - 1:
            h = act(h)
    if spec.head == "softmax":
        h = ad.stable_softmax(h)
    elif spec.head == "sigmoid":
        h = ad.sigmoid(h)
    return h


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
