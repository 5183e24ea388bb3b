"""The three networks and their parameters.

A feature extractor maps raw samples to embeddings, a K-way classifier
produces class probabilities, and a binary domain discriminator outputs
the probability that a sample came from the target domain. All three are
small MLPs. ``mlp_forward`` is the one layer loop of inference and of
training, whose backward pass is ``mlp_backward``: numpy expressions equal
bit for bit to the autodiff graph of the same network, which the tests
keep as the reference. A training pass ends at the logits; only inference
applies the head, ``softmax`` or ``sigmoid``, which the losses share and
which equal the graph ops ``stable_softmax`` and ``sigmoid`` bit for bit.

Every parameter lives in one float64 vector, in checkpoint-v1 order (the
extractor, the classifier, then the discriminator; each as W0, b0, W1,
b1, ...). ``layout`` is the only code that knows that order: it gives each
network's weights and biases as views into the vector, for the parameters,
their gradients and any other network. A checkpoint is a header plus that
vector, optionally followed by fitted GEV parameters.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad

MAGIC = b"ADAGEV1\x00"

_ACTIVATIONS = ("relu", "tanh")
_HEADS = ("none", "softmax", "sigmoid")


class CheckpointError(IOError):
    """Corrupt, truncated, or inconsistent checkpoint file."""


@dataclass(frozen=True)
class MlpSpec:
    """Layer widths (input -> hidden... -> output) plus activation and head tags."""

    widths: tuple[int, ...]
    activation: str = "relu"
    head: str = "none"

    def __post_init__(self):
        if len(self.widths) < 2:
            raise ValueError("MlpSpec needs at least one layer (two widths)")
        if any(w <= 0 for w in self.widths):
            raise ValueError(f"widths must be positive, got {self.widths}")
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.head not in _HEADS:
            raise ValueError(f"unknown head {self.head!r}")

    @property
    def madds(self) -> int:
        """The multiply-adds of one row's pass: the sum of fan_in * fan_out."""
        return sum(fi * fo for fi, fo in zip(self.widths, self.widths[1:]))


@dataclass
class ModelParams:
    """The parameters of the extractor, the classifier and the domain
    discriminator: one float64 vector ``flat`` and, for each network, the
    tuple (W0, b0, W1, b1, ...) of views into it that ``layout`` gives:
    theta_g, theta_c and theta_d."""

    spec_g: MlpSpec
    spec_c: MlpSpec
    spec_d: MlpSpec
    flat: np.ndarray
    theta_g: tuple[np.ndarray, ...] = field(init=False)
    theta_c: tuple[np.ndarray, ...] = field(init=False)
    theta_d: tuple[np.ndarray, ...] = field(init=False)

    def __post_init__(self):
        self.flat, (self.theta_g, self.theta_c, self.theta_d) = layout(self.specs, self.flat)

    @property
    def specs(self) -> tuple[MlpSpec, MlpSpec, MlpSpec]:
        return self.spec_g, self.spec_c, self.spec_d

    @property
    def feature_dim(self) -> int:
        return self.spec_g.widths[-1]

    @property
    def num_classes(self) -> int:
        return self.spec_c.widths[-1]

    def groups(self) -> dict[str, tuple[np.ndarray, ...]]:
        return {"theta_g": self.theta_g, "theta_c": self.theta_c, "theta_d": self.theta_d}


def default_specs(input_dim: int, num_classes: int,
                  hidden=(64, 64)) -> tuple[MlpSpec, MlpSpec, MlpSpec]:
    """The relu backbones: g = [d, *hidden], clf = [h, K] and clf_d = [h, 32, 1],
    with h the last hidden width."""
    spec_g = MlpSpec((input_dim, *hidden), activation="relu")
    spec_c = MlpSpec((hidden[-1], num_classes), head="softmax")
    spec_d = MlpSpec((hidden[-1], 32, 1), activation="relu", head="sigmoid")
    return spec_g, spec_c, spec_d


def layout(specs, flat: np.ndarray | None = None):
    """The parameter layout, and the only code that knows it.

    Returns ``(flat, groups)``: for each of ``specs``, in order, the tuple
    (W0, b0, W1, b1, ...) of views into the float64 vector ``flat``, which
    they fill end to end. Without ``flat`` a zero vector is made; one of
    another size is a ValueError.
    """
    shapes = [[s for fi, fo in zip(spec.widths[:-1], spec.widths[1:]) for s in ((fi, fo), (fo,))]
              for spec in specs]
    sizes = [math.prod(s) for group in shapes for s in group]
    if flat is None:
        flat = np.zeros(sum(sizes))
    elif flat.dtype != np.float64 or flat.shape != (sum(sizes),):
        raise ValueError(f"the parameters need a float64 vector of {sum(sizes)} values, "
                         f"got {flat.dtype} {flat.shape}")
    parts = iter(np.split(flat, np.cumsum(sizes)[:-1]))
    return flat, tuple(tuple(next(parts).reshape(s) for s in group) for group in shapes)


def init_vector(specs, rng: np.random.Generator):
    """``layout`` of a new vector: scaled uniform weights (bound
    sqrt(6/(fan_in+fan_out))) drawn from ``rng`` in layout order, zero biases."""
    flat, groups = layout(specs)
    for group in groups:
        for w in group[::2]:
            bound = np.sqrt(6.0 / sum(w.shape))
            w[...] = rng.uniform(-bound, bound, size=w.shape)
    return flat, groups


def _check_specs(spec_g: MlpSpec, spec_c: MlpSpec, spec_d: MlpSpec) -> None:
    if spec_g.widths[-1] != spec_c.widths[0] or spec_g.widths[-1] != spec_d.widths[0]:
        raise ValueError(
            f"feature width {spec_g.widths[-1]} does not match classifier input "
            f"{spec_c.widths[0]} / discriminator input {spec_d.widths[0]}"
        )
    if spec_d.widths[-1] != 1:
        raise ValueError("domain discriminator must have output width 1")


def init_params(spec_g: MlpSpec, spec_c: MlpSpec, spec_d: MlpSpec, seed: int) -> ModelParams:
    """The three networks' ``init_vector`` from one seed."""
    _check_specs(spec_g, spec_c, spec_d)
    flat, _ = init_vector((spec_g, spec_c, spec_d), np.random.default_rng(seed))
    return ModelParams(spec_g, spec_c, spec_d, flat)


def softmax(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise softmax of the logits ``z``, and its log: -inf where a row's
    logits span more than the float range and the probability is 0."""
    with np.errstate(over="ignore"):
        shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=1, keepdims=True)
    return e / total, shifted - np.log(total)


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Elementwise logistic function of the logits ``z``."""
    with np.errstate(over="ignore"):  # exp(-z) = inf gives the limit 0
        return 1.0 / (1.0 + np.exp(-z))


def mlp_forward(spec: MlpSpec, group, x: np.ndarray, inputs: list | None = None) -> np.ndarray:
    """The network's output for the rows of ``x``, from the parameter views
    ``group`` (W0, b0, W1, b1, ...).

    Each layer computes the autodiff op's expression, in place where the graph
    allocates a new array, so the result is the same bit for bit (relu's
    ``maximum`` differs from the graph's ``where`` only on NaN). Inference
    applies the head and checks the input and the output for non-finite
    values. A training pass gives a list ``inputs``, which receives each
    layer's input for ``mlp_backward``, returns the logits, and checks every
    affine output instead, with the graph's ``linear`` error: ``tanh`` would
    hide an overflow, and those checks also catch a non-finite input or output.
    """
    training = inputs is not None
    if not training and not np.isfinite(x).all():
        raise ad.NonFiniteError("forward input has non-finite values")
    n_layers = len(spec.widths) - 1
    h = x
    with np.errstate(over="ignore", invalid="ignore"):  # the checks report them
        for i in range(n_layers):
            if training:
                inputs.append(h)
            h = h @ group[2 * i]
            h += group[2 * i + 1]
            if training and not np.isfinite(h).all():
                raise ad.NonFiniteError("op 'linear' produced non-finite values")
            if i < n_layers - 1:
                if spec.activation == "relu":
                    np.maximum(h, 0.0, out=h)
                    h += 0.0  # -0.0 becomes 0.0, as where(h > 0, h, 0.0) gives
                else:
                    np.tanh(h, out=h)
        if training:
            return h
        if spec.head == "softmax":
            h = softmax(h)[0]
        elif spec.head == "sigmoid":
            h = sigmoid(h)
    if not np.isfinite(h).all():
        raise ad.NonFiniteError("forward produced non-finite values")
    return h


def mlp_backward(spec: MlpSpec, group, inputs: list[np.ndarray], g: np.ndarray, grads,
                 add: bool = True, wrt_input: bool = True):
    """Backpropagate ``g``, the gradient with respect to the logits of a
    training ``mlp_forward`` that recorded ``inputs``.

    ``grads`` are the gradient views of the parameters in ``group``: each
    parameter's gradient is added to its view, or, without ``add``, written
    over it, so the first pass over a network needs no zeroed buffer (zeros
    plus -0.0 would give +0.0). Returns the gradient with respect to the
    input, or None without ``wrt_input``: a data batch's gradient is never
    read. Every expression is the vjp of the graph ops ``linear``, ``relu``
    and ``tanh``, so the gradients equal the graph's bit for bit when the
    passes are backpropagated in the graph's order.
    """
    for i in reversed(range(len(spec.widths) - 1)):
        if i < len(spec.widths) - 2:
            y = inputs[i + 1]
            g = g * (y > 0) if spec.activation == "relu" else g * (1.0 - y * y)
        w_grad, b_grad = grads[2 * i], grads[2 * i + 1]
        if add:
            w_grad += inputs[i].T @ g
            b_grad += g.sum(axis=0)
        else:
            np.matmul(inputs[i].T, g, out=w_grad)
            g.sum(axis=0, out=b_grad)
        g = g @ group[2 * i].T if i > 0 or wrt_input else None
    return g


def _forward(spec: MlpSpec, group, x, what: str) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != spec.widths[0]:
        raise ValueError(f"{what} width {x.shape[1]} != {spec.widths[0]}")
    return mlp_forward(spec, group, x)


def forward_features(params: ModelParams, x: np.ndarray) -> np.ndarray:
    return _forward(params.spec_g, params.theta_g, x, "input")


def forward_classifier(params: ModelParams, features: np.ndarray) -> np.ndarray:
    return _forward(params.spec_c, params.theta_c, features, "feature")


def _spec_dict(spec: MlpSpec) -> dict:
    return {"widths": list(spec.widths), "activation": spec.activation, "head": spec.head}


def _spec_from_dict(d: dict) -> MlpSpec:
    widths = tuple(d["widths"])
    if not all(type(w) is int for w in widths):
        raise ValueError(f"widths must be integers, got {widths}")
    return MlpSpec(widths, d["activation"], d["head"])


def save_checkpoint(params: ModelParams, path, gev=None) -> None:
    """Binary checkpoint: magic, length-prefixed JSON manifest, then the
    parameter vector as raw little-endian float64.

    ``gev`` is an optional (l, s, c) triple appended after the parameters.
    """
    manifest = {
        "specs": {"g": _spec_dict(params.spec_g),
                  "c": _spec_dict(params.spec_c),
                  "d": _spec_dict(params.spec_d)},
        "groups": {name: [list(t.shape) for t in group]
                   for name, group in params.groups().items()},
        "gev_present": gev is not None,
    }
    blob = json.dumps(manifest).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        f.write(params.flat.astype("<f8", copy=False).tobytes())
        if gev is not None:
            f.write(np.array([gev.l, gev.s, gev.c], dtype="<f8").tobytes())


def load_checkpoint(path):
    """Returns (ModelParams, GevParams | None). Round trip is bit-exact.

    Every defect of the file (bad magic, corrupt or inconsistent manifest,
    missing or trailing bytes, non-finite values) raises CheckpointError.
    """
    from .evt import GevParams

    with open(path, "rb") as f:
        data = f.read()
    if len(data) < len(MAGIC) + 4 or data[: len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: bad magic, not an ADAGEV checkpoint")
    (mlen,) = struct.unpack_from("<I", data, len(MAGIC))
    off = len(MAGIC) + 4
    if len(data) < off + mlen:
        raise CheckpointError(f"{path}: truncated manifest")
    try:
        manifest = json.loads(data[off:off + mlen].decode("utf-8"))
        specs = [_spec_from_dict(manifest["specs"][k]) for k in ("g", "c", "d")]
        _check_specs(*specs)
        shapes = manifest["groups"]
        gev_present = manifest["gev_present"]
        if not isinstance(gev_present, bool):
            raise ValueError("gev_present must be a boolean")
    except (ValueError, KeyError, TypeError) as e:
        raise CheckpointError(f"{path}: corrupt manifest: {e!r}") from e
    off += mlen

    # the parameters are sized from the data, so a manifest's widths never
    # allocate more than the file holds
    n_values, odd = divmod(len(data) - off, 8)
    n_params = n_values - (3 if gev_present else 0)
    values = np.frombuffer(data, dtype="<f8", count=n_values, offset=off)
    try:
        if odd or n_params < 0:
            raise ValueError(f"{n_values} float64 values and {odd} bytes")
        params = ModelParams(*specs, values[:n_params].astype(np.float64))
    except ValueError as e:
        raise CheckpointError(
            f"{path}: {len(data) - off} data bytes do not fit the manifest: {e}") from e
    if shapes != {name: [list(t.shape) for t in group] for name, group in params.groups().items()}:
        raise CheckpointError(f"{path}: shape manifest mismatch")
    if not np.all(np.isfinite(values)):
        raise CheckpointError(f"{path}: non-finite parameter values")
    values = values[n_params:]

    gev = None
    if gev_present:
        l, s, c = values
        try:
            gev = GevParams(float(l), float(s), float(c))
        except ValueError as e:
            raise CheckpointError(f"{path}: invalid GEV section: {e}") from e
    return params, gev
