"""The three networks and their parameters.

A feature extractor maps raw samples to embeddings, a K-way classifier
produces class probabilities, and a binary domain discriminator outputs
the probability that a sample came from the target domain. All three are
small MLPs. ``mlp_forward`` is the one layer loop of inference and of the
training step, whose backward pass is ``mlp_backward``: numpy expressions
equal bit for bit to the autodiff graph of ``mlp_graph``, which the binary
known/unknown head still trains on. Checkpoints persist the full parameter
set, optionally together with fitted GEV parameters.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Node

MAGIC = b"ADAGEV1\x00"

_ACTIVATIONS = {"relu": ad.relu, "tanh": ad.tanh}
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


@dataclass
class ModelParams:
    """Parameter groups of extractor (theta_g), classifier (theta_c),
    domain discriminator (theta_d). Each group is the flat list
    [W0, b0, W1, b1, ...] for its MlpSpec."""

    spec_g: MlpSpec
    spec_c: MlpSpec
    spec_d: MlpSpec
    theta_g: list[np.ndarray] = field(default_factory=list)
    theta_c: list[np.ndarray] = field(default_factory=list)
    theta_d: list[np.ndarray] = field(default_factory=list)

    @property
    def feature_dim(self) -> int:
        return self.spec_g.widths[-1]

    @property
    def num_classes(self) -> int:
        return self.spec_c.widths[-1]

    def groups(self) -> dict[str, list[np.ndarray]]:
        return {"theta_g": self.theta_g, "theta_c": self.theta_c, "theta_d": self.theta_d}


def default_specs(input_dim: int, num_classes: int) -> tuple[MlpSpec, MlpSpec, MlpSpec]:
    """Small default backbones: g = [d,64,64], clf = [64,K], clf_d = [64,32,1]."""
    spec_g = MlpSpec((input_dim, 64, 64), activation="relu")
    spec_c = MlpSpec((64, num_classes), head="softmax")
    spec_d = MlpSpec((64, 32, 1), activation="relu", head="sigmoid")
    return spec_g, spec_c, spec_d


def init_group(spec: MlpSpec, rng: np.random.Generator) -> list[np.ndarray]:
    """One network's [W0, b0, W1, b1, ...]: scaled uniform weights, zero biases."""
    params = []
    for fan_in, fan_out in zip(spec.widths[:-1], spec.widths[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        params.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        params.append(np.zeros(fan_out))
    return params


def _check_specs(spec_g: MlpSpec, spec_c: MlpSpec, spec_d: MlpSpec) -> None:
    if spec_g.widths[-1] != spec_c.widths[0] or spec_g.widths[-1] != spec_d.widths[0]:
        raise ValueError(
            f"feature width {spec_g.widths[-1]} does not match classifier input "
            f"{spec_c.widths[0]} / discriminator input {spec_d.widths[0]}"
        )
    if spec_d.widths[-1] != 1:
        raise ValueError("domain discriminator must have output width 1")


def _group_shapes(spec: MlpSpec) -> list[list[int]]:
    """Shapes of the flat [W0, b0, W1, b1, ...] group for ``spec``."""
    return [s for fi, fo in zip(spec.widths[:-1], spec.widths[1:]) for s in ([fi, fo], [fo])]


def init_params(spec_g: MlpSpec, spec_c: MlpSpec, spec_d: MlpSpec, seed: int) -> ModelParams:
    """Scaled uniform weights (bound sqrt(6/(fan_in+fan_out))), zero biases."""
    _check_specs(spec_g, spec_c, spec_d)
    rng = np.random.default_rng(seed)
    return ModelParams(
        spec_g, spec_c, spec_d,
        theta_g=init_group(spec_g, rng),
        theta_c=init_group(spec_c, rng),
        theta_d=init_group(spec_d, rng),
    )


def group_nodes(group: list[np.ndarray]) -> list[Node]:
    """Wrap one parameter group as graph leaves for a training step."""
    return [ad.leaf(p) for p in group]


def mlp_graph(spec: MlpSpec, param_nodes: list[Node], x) -> Node:
    """Forward an MLP as a graph; ``x`` is a node, or an array for a data batch."""
    act = _ACTIVATIONS[spec.activation]
    n_layers = len(spec.widths) - 1
    h = x
    for i in range(n_layers):
        h = ad.linear(h, param_nodes[2 * i], param_nodes[2 * i + 1])
        if i < n_layers - 1:
            h = act(h)
    if spec.head == "softmax":
        h = ad.stable_softmax(h)
    elif spec.head == "sigmoid":
        h = ad.sigmoid(h)
    return h


def mlp_forward(spec: MlpSpec, group: list[np.ndarray], x: np.ndarray,
                inputs: list | None = None) -> np.ndarray:
    """The values of ``mlp_graph``, computed without a graph.

    Each layer computes the graph op's expression, in place where the graph
    allocates a new array, so the result is the same bit for bit (relu's
    ``maximum`` differs from the graph's ``where`` only on NaN). Inference
    checks the input and the output for non-finite values. A training pass
    gives a list ``inputs``, which receives each layer's input for
    ``mlp_backward``, and checks every affine output instead, with the
    graph's ``linear`` error: ``tanh`` would hide an overflow, and those
    checks also catch a non-finite input or output.
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
        if spec.head == "softmax":
            h -= h.max(axis=1, keepdims=True)
            np.exp(h, out=h)
            h /= h.sum(axis=1, keepdims=True)
        elif spec.head == "sigmoid":
            np.negative(h, out=h)
            np.exp(h, out=h)
            h += 1.0
            np.divide(1.0, h, out=h)
    if not training and not np.isfinite(h).all():
        raise ad.NonFiniteError("forward produced non-finite values")
    return h


def mlp_backward(spec: MlpSpec, group: list[np.ndarray], inputs: list[np.ndarray],
                 out: np.ndarray, g: np.ndarray, grads: list, wrt_input: bool = True):
    """Backpropagate ``g``, the gradient with respect to the output ``out`` of
    a training ``mlp_forward`` that recorded ``inputs``.

    Each parameter's gradient is added to ``grads`` (a None entry takes it
    as is), in the order the passes are backpropagated. Returns the gradient
    with respect to the input, or None without ``wrt_input``: a data batch's
    gradient is never read. Every expression is the graph vjp's own, so the
    gradients equal the graph's bit for bit.
    """
    if spec.head == "softmax":
        g = out * (g - (g * out).sum(axis=1, keepdims=True))
    elif spec.head == "sigmoid":
        g = g * out * (1.0 - out)
    for i in reversed(range(len(spec.widths) - 1)):
        if i < len(spec.widths) - 2:
            y = inputs[i + 1]
            g = g * (y > 0) if spec.activation == "relu" else g * (1.0 - y * y)
        for k, grad in ((2 * i, inputs[i].T @ g), (2 * i + 1, g.sum(axis=0))):
            if grads[k] is None:
                grads[k] = grad
            else:
                grads[k] += grad
        g = g @ group[2 * i].T if i > 0 or wrt_input else None
    return g


def _forward(spec: MlpSpec, group: list[np.ndarray], x, what: str) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != spec.widths[0]:
        raise ValueError(f"{what} width {x.shape[1]} != {spec.widths[0]}")
    return mlp_forward(spec, group, x)


def forward_features(params: ModelParams, x: np.ndarray) -> np.ndarray:
    return _forward(params.spec_g, params.theta_g, x, "input")


def forward_classifier(params: ModelParams, features: np.ndarray) -> np.ndarray:
    return _forward(params.spec_c, params.theta_c, features, "feature")


def forward_domain(params: ModelParams, features: np.ndarray) -> np.ndarray:
    """Discriminator output; the gradient reversal layer is the identity forward."""
    return _forward(params.spec_d, params.theta_d, features, "feature")


def _spec_dict(spec: MlpSpec) -> dict:
    return {"widths": list(spec.widths), "activation": spec.activation, "head": spec.head}


def _spec_from_dict(d: dict) -> MlpSpec:
    widths = tuple(d["widths"])
    if not all(type(w) is int for w in widths):
        raise ValueError(f"widths must be integers, got {widths}")
    return MlpSpec(widths, d["activation"], d["head"])


def save_checkpoint(params: ModelParams, path, gev=None) -> None:
    """Binary checkpoint: magic, length-prefixed JSON manifest, raw float64 data.

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
        for group in params.groups().values():
            for t in group:
                f.write(np.ascontiguousarray(t, dtype="<f8").tobytes())
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
        params = ModelParams(*specs)
        for name, spec in zip(params.groups(), specs):
            if manifest["groups"][name] != _group_shapes(spec):
                raise CheckpointError(f"{path}: shape manifest mismatch in {name}")
        gev_present = manifest["gev_present"]
        if not isinstance(gev_present, bool):
            raise ValueError("gev_present must be a boolean")
    except (ValueError, KeyError, TypeError) as e:
        raise CheckpointError(f"{path}: corrupt manifest: {e!r}") from e
    off += mlen

    count = sum(int(np.prod(shape)) for spec in specs for shape in _group_shapes(spec))
    count += 3 if gev_present else 0
    if len(data) - off != 8 * count:
        raise CheckpointError(
            f"{path}: {len(data) - off} data bytes, the manifest needs {8 * count}")
    values = np.frombuffer(data, dtype="<f8", count=count, offset=off)
    if not np.all(np.isfinite(values)):
        raise CheckpointError(f"{path}: non-finite parameter values")
    for spec, group in zip(specs, params.groups().values()):
        for shape in _group_shapes(spec):
            n = int(np.prod(shape))
            group.append(values[:n].reshape(shape).copy())
            values = values[n:]

    gev = None
    if gev_present:
        l, s, c = values
        try:
            gev = GevParams(float(l), float(s), float(c))
        except ValueError as e:
            raise CheckpointError(f"{path}: invalid GEV section: {e}") from e
    return params, gev
