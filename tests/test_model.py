import itertools
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adagev import model as md
from adagev.evt import GevParams
import graph_engine as ad
from graph_reference import HEADS, mlp_graph, param_nodes


@pytest.fixture
def specs():
    return md.default_specs(input_dim=3, num_classes=4)


@pytest.fixture
def params(specs):
    return md.init_params(*specs, seed=42)


class TestInit:
    def test_deterministic(self, specs):
        a = md.init_params(*specs, seed=1)
        b = md.init_params(*specs, seed=1)
        for ta, tb in zip(a.theta_g, b.theta_g):
            np.testing.assert_array_equal(ta, tb)

    def test_biases_zero(self, params):
        for group in params.groups().values():
            for b in group[1::2]:
                assert not b.any()

    def test_weights_within_bound(self, params):
        spec = params.spec_g
        for i, (fi, fo) in enumerate(zip(spec.widths[:-1], spec.widths[1:])):
            bound = np.sqrt(6.0 / (fi + fo))
            assert np.abs(params.theta_g[2 * i]).max() <= bound

    def test_incompatible_widths(self):
        sg = md.MlpSpec((3, 8))
        sc = md.MlpSpec((9, 4), head="softmax")
        sd = md.MlpSpec((8, 1), head="sigmoid")
        with pytest.raises(ValueError):
            md.init_params(sg, sc, sd, seed=0)

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            md.MlpSpec((5,))
        with pytest.raises(ValueError):
            md.MlpSpec((5, 0))
        with pytest.raises(ValueError):
            md.MlpSpec((5, 3), activation="swish")


class TestForward:
    def test_identity_extractor(self):
        sg = md.MlpSpec((2, 2))
        sc = md.MlpSpec((2, 2), head="softmax")
        sd = md.MlpSpec((2, 1), head="sigmoid")
        p = md.init_params(sg, sc, sd, seed=0)
        p.theta_g[0][...] = np.eye(2)
        x = np.array([[1.0, -2.0], [0.5, 3.0]])
        np.testing.assert_array_equal(md.forward_features(p, x), x)

    def test_batch_rows_independent(self, params):
        x = np.random.default_rng(0).standard_normal((2, 3))
        joint = md.forward_features(params, x)
        single = np.vstack([md.forward_features(params, x[i:i + 1]) for i in range(2)])
        # BLAS may reorder accumulation between batch shapes; tight tolerance
        np.testing.assert_allclose(joint, single, rtol=1e-13, atol=1e-13)

    def test_feature_shape(self, params):
        out = md.forward_features(params, np.zeros((5, 3)))
        assert out.shape == (5, params.feature_dim)

    def test_width_mismatch(self, params):
        with pytest.raises(ValueError):
            md.forward_features(params, np.zeros((2, 7)))

    def test_zero_classifier_uniform(self, params):
        params.theta_c[0][...] = np.zeros_like(params.theta_c[0])
        probs = md.forward_classifier(params, np.ones((3, params.feature_dim)))
        np.testing.assert_allclose(probs, 0.25)

    def test_classifier_rows_sum_to_one(self, params):
        feats = np.random.default_rng(1).standard_normal((6, params.feature_dim))
        probs = md.forward_classifier(params, feats)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_argmax_matches_logits(self, params):
        feats = np.random.default_rng(2).standard_normal((6, params.feature_dim))
        logits = feats @ params.theta_c[0] + params.theta_c[1]
        probs = md.forward_classifier(params, feats)
        np.testing.assert_array_equal(probs.argmax(axis=1), logits.argmax(axis=1))

    def test_zero_domain_half(self, params):
        for i in range(0, len(params.theta_d), 2):
            params.theta_d[i][...] = np.zeros_like(params.theta_d[i])
        out = md.mlp_forward(params.spec_d, params.theta_d, np.ones((4, params.feature_dim)))
        np.testing.assert_allclose(out, 0.5)

    def test_domain_output_open_interval(self, params):
        feats = np.random.default_rng(4).standard_normal((50, params.feature_dim)) * 10
        out = md.mlp_forward(params.spec_d, params.theta_d, feats)
        assert np.all(out > 0) and np.all(out < 1)

    def test_forward_pure(self, params):
        x = np.random.default_rng(5).standard_normal((3, 3))
        a = md.forward_features(params, x)
        b = md.forward_features(params, x)
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("activation,head", itertools.product(("relu", "tanh"),
                                                              ("none", "softmax", "sigmoid")))
def test_graph_free_forward_equals_graph_bit_for_bit(activation, head):
    spec = md.MlpSpec((5, 16, 8, 3 if head == "softmax" else 1), activation, head)
    _, (group,) = md.init_vector((spec,), np.random.default_rng(6))
    group[1][...] += 0.1  # nonzero biases, so the bias add is exercised
    x = np.random.default_rng(7).standard_normal((40, 5)) * 3
    x_before = x.copy()
    graph = HEADS[head](mlp_graph(spec, param_nodes(group), ad.leaf(x))).value
    plain = md.mlp_forward(spec, group, x)
    assert plain.tobytes() == graph.tobytes()
    np.testing.assert_array_equal(x, x_before)  # the in-place layers leave the input alone


@pytest.mark.parametrize("activation,head", itertools.product(("relu", "tanh"),
                                                              ("none", "softmax", "sigmoid")))
def test_backward_matches_finite_differences(activation, head):
    # the scalar sum(logits * c) has the upstream gradient c; a training pass
    # ends at the logits, whatever the head
    spec = md.MlpSpec((4, 6, 5, 3), activation, head)
    rng = np.random.default_rng(8)
    _, (group,) = md.init_vector((spec,), rng)
    for t in group:
        t += 0.1 * rng.standard_normal(t.shape)
    x = rng.standard_normal((7, 4))
    c = rng.standard_normal((7, 3))

    def objective():
        return float((md.mlp_forward(spec, group, x, []) * c).sum())

    inputs = []
    md.mlp_forward(spec, group, x, inputs)
    _, (grads,) = md.layout((spec,))
    g_x = md.mlp_backward(spec, group, inputs, c, grads, add=False)
    assert md.mlp_backward(spec, group, inputs, c, md.layout((spec,))[1][0],
                           wrt_input=False) is None
    h = 1e-6
    for tensor, analytic in zip([*group, x], [*grads, g_x]):
        numeric = np.zeros_like(tensor)
        for idx in np.ndindex(tensor.shape):
            orig = tensor[idx]
            tensor[idx] = orig + h
            up = objective()
            tensor[idx] = orig - h
            down = objective()
            tensor[idx] = orig
            numeric[idx] = (up - down) / (2 * h)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-8)


def test_backward_writes_over_then_adds_to_the_gradient_views():
    spec = md.MlpSpec((3, 5, 4), "relu", "softmax")
    rng = np.random.default_rng(9)
    _, (group,) = md.init_vector((spec,), rng)
    x, c = rng.standard_normal((6, 3)), rng.standard_normal((6, 4))
    inputs = []
    md.mlp_forward(spec, group, x, inputs)
    grad, (grads,) = md.layout((spec,), np.full(sum(t.size for t in group), np.nan))
    md.mlp_backward(spec, group, inputs, c, grads, add=False, wrt_input=False)
    zeros, (from_zero,) = md.layout((spec,))
    md.mlp_backward(spec, group, inputs, c, from_zero, wrt_input=False)
    assert grad.tobytes() == zeros.tobytes()  # the NaNs are all written over
    first = grad.copy()
    md.mlp_backward(spec, group, inputs, c, grads, wrt_input=False)
    assert grad.tobytes() == (2 * first).tobytes()


class TestGraphFreeForwardNonFinite:
    def test_non_finite_input(self, params):
        x = np.ones((2, 3))
        x[1, 2] = np.nan
        with pytest.raises(ad.NonFiniteError):
            md.forward_features(params, x)

    def test_overflowing_output(self, params):
        params.theta_c[0][...] = np.full_like(params.theta_c[0], 1e300)
        params.theta_c[0][:, 0] = -1e300
        with pytest.raises(ad.NonFiniteError), np.errstate(over="ignore", invalid="ignore"):
            md.forward_classifier(params, np.full((2, params.feature_dim), 1e10))

    def test_training_pass_checks_every_affine_output(self):
        # tanh turns the overflowed first layer into 1.0, which inference passes
        spec = md.MlpSpec((2, 3, 2), "tanh", "softmax")
        _, (group,) = md.init_vector((spec,), np.random.default_rng(0))
        group[0][:] = 1e308
        x = np.full((2, 2), 10.0)
        assert np.isfinite(md.mlp_forward(spec, group, x)).all()
        with pytest.raises(ad.NonFiniteError, match="op 'linear'"):
            md.mlp_forward(spec, group, x, [])
        x[0, 0] = np.inf  # a non-finite input makes the first affine output non-finite
        with pytest.raises(ad.NonFiniteError, match="op 'linear'"):
            md.mlp_forward(spec, md.init_vector((spec,), np.random.default_rng(0))[1][0], x, [])

    def test_training_pass_records_inputs_and_equals_inference(self, params):
        x = np.random.default_rng(3).standard_normal((5, 3))
        inputs = []
        out = md.mlp_forward(params.spec_g, params.theta_g, x, inputs)
        assert out.tobytes() == md.mlp_forward(params.spec_g, params.theta_g, x).tobytes()
        assert inputs[0] is x and len(inputs) == len(params.spec_g.widths) - 1
        hidden = np.maximum(x @ params.theta_g[0] + params.theta_g[1], 0.0)
        np.testing.assert_array_equal(inputs[1], hidden)


class TestLayout:
    def test_groups_are_views_into_flat_in_checkpoint_order(self, params, tmp_path):
        md.save_checkpoint(params, tmp_path / "ckpt.bin")
        loaded, _ = md.load_checkpoint(tmp_path / "ckpt.bin")
        for p in (params, loaded):
            tensors = [t for group in p.groups().values() for t in group]
            assert all(np.shares_memory(t, p.flat) for t in tensors)
            assert p.flat.tobytes() == b"".join(t.tobytes() for t in tensors)
            assert sum(t.size for t in tensors) == p.flat.size

    def test_writes_through_a_view_reach_flat(self, params):
        # the discriminator's last weights sit just before its last bias
        params.theta_d[-2][...] = 7.0
        np.testing.assert_array_equal(params.flat[-1 - params.theta_d[-2].size:-1], 7.0)

    def test_groups_cannot_be_rebound(self, params):
        with pytest.raises(TypeError):
            params.theta_g[0] = np.eye(3)

    def test_init_draws_the_per_array_sequence(self, specs):
        # each weight matrix drawn in turn from one generator, biases zero
        rng = np.random.default_rng(42)
        expected = []
        for spec in specs:
            for fi, fo in zip(spec.widths[:-1], spec.widths[1:]):
                bound = np.sqrt(6.0 / (fi + fo))
                expected += [rng.uniform(-bound, bound, size=(fi, fo)), np.zeros(fo)]
        params = md.init_params(*specs, seed=42)
        assert params.flat.tobytes() == b"".join(t.tobytes() for t in expected)

    def test_wrong_vector_rejected(self, specs, params):
        with pytest.raises(ValueError, match="float64 vector"):
            md.ModelParams(*specs, params.flat[:-1].copy())
        with pytest.raises(ValueError, match="float64 vector"):
            md.ModelParams(*specs, params.flat.astype(np.float32))


def save_checkpoint_per_array(params, path, gev=None):
    """The checkpoint-v1 writer as it was before the flat vector: the manifest,
    then every tensor in turn; the reference of the format."""
    manifest = {
        "specs": {k: {"widths": list(s.widths), "activation": s.activation, "head": s.head}
                  for k, s in zip("gcd", (params.spec_g, params.spec_c, params.spec_d))},
        "groups": {name: [list(t.shape) for t in group]
                   for name, group in params.groups().items()},
        "gev_present": gev is not None,
    }
    blob = json.dumps(manifest).encode("utf-8")
    with open(path, "wb") as f:
        f.write(md.MAGIC)
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        for group in params.groups().values():
            for t in group:
                f.write(np.ascontiguousarray(t, dtype="<f8").tobytes())
        if gev is not None:
            f.write(np.array([gev.l, gev.s, gev.c], dtype="<f8").tobytes())


class TestCheckpoint:
    @pytest.mark.parametrize("gev", [None, GevParams(1.3, 0.03, -0.35)])
    def test_same_bytes_as_per_array_writer(self, params, tmp_path, gev):
        params.flat[...] += np.random.default_rng(0).standard_normal(params.flat.size)
        md.save_checkpoint(params, tmp_path / "flat.bin", gev=gev)
        save_checkpoint_per_array(params, tmp_path / "ref.bin", gev=gev)
        assert (tmp_path / "flat.bin").read_bytes() == (tmp_path / "ref.bin").read_bytes()

    def test_per_array_file_loads_bit_exact(self, params, tmp_path):
        params.flat[...] += np.random.default_rng(1).standard_normal(params.flat.size)
        save_checkpoint_per_array(params, tmp_path / "ref.bin", gev=GevParams(0.5, 0.2, 0.1))
        loaded, gev = md.load_checkpoint(tmp_path / "ref.bin")
        assert loaded.flat.tobytes() == params.flat.tobytes()
        assert gev == GevParams(0.5, 0.2, 0.1)

    def test_huge_manifest_widths_allocate_nothing(self, params, tmp_path):
        path = tmp_path / "ckpt.bin"
        md.save_checkpoint(params, path)
        rewrite_manifest(path, lambda m: m["specs"]["g"].update(widths=[10**12, 64, 64]))
        with pytest.raises(md.CheckpointError, match="data bytes"):
            md.load_checkpoint(path)

    def test_round_trip_bit_exact(self, params, tmp_path):
        path = tmp_path / "ckpt.bin"
        md.save_checkpoint(params, path)
        loaded, gev = md.load_checkpoint(path)
        assert gev is None
        for name in ("theta_g", "theta_c", "theta_d"):
            for a, b in zip(params.groups()[name], loaded.groups()[name]):
                np.testing.assert_array_equal(a, b)

    def test_round_trip_with_gev(self, params, tmp_path):
        path = tmp_path / "ckpt.bin"
        gev = GevParams(0.5, 0.2, 0.1)
        md.save_checkpoint(params, path, gev=gev)
        _, loaded_gev = md.load_checkpoint(path)
        assert loaded_gev == gev

    def test_truncated_file(self, params, tmp_path):
        path = tmp_path / "ckpt.bin"
        md.save_checkpoint(params, path)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
        with pytest.raises(md.CheckpointError):
            md.load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTADAGEV" + b"\x00" * 64)
        with pytest.raises(md.CheckpointError):
            md.load_checkpoint(path)

    def test_trailing_bytes_rejected(self, params, tmp_path):
        path = tmp_path / "ckpt.bin"
        md.save_checkpoint(params, path, gev=GevParams(0.5, 0.2, 0.1))
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(md.CheckpointError, match="data bytes"):
            md.load_checkpoint(path)

    def test_non_finite_values_rejected(self, params, tmp_path):
        params.theta_c[1][0] = np.nan
        path = tmp_path / "ckpt.bin"
        md.save_checkpoint(params, path)
        with pytest.raises(md.CheckpointError, match="non-finite"):
            md.load_checkpoint(path)


def rewrite_manifest(path, edit):
    """Re-encode the manifest of a saved checkpoint after ``edit(manifest)``."""
    data = path.read_bytes()
    (mlen,) = struct.unpack_from("<I", data, len(md.MAGIC))
    start = len(md.MAGIC) + 4
    manifest = json.loads(data[start:start + mlen])
    edit(manifest)
    blob = json.dumps(manifest).encode("utf-8")
    path.write_bytes(md.MAGIC + struct.pack("<I", len(blob)) + blob + data[start + mlen:])


class TestCheckpointManifest:
    @pytest.mark.parametrize("edit", [
        lambda m: m["specs"].pop("g"),
        lambda m: m.pop("groups"),
        lambda m: m["specs"]["g"].update(widths=[3, 0]),
        lambda m: m["specs"]["g"].update(widths=[3.0, 64.0, 64.0]),
        lambda m: m["specs"]["g"].update(widths="3,64,64"),
        lambda m: m["specs"]["c"].update(widths=[32, 4]),
        lambda m: m["specs"]["d"].update(head="softmax2"),
        lambda m: m["groups"].update(theta_c=[[64, 4]]),
        lambda m: m.update(gev_present="yes"),
    ], ids=["no-spec-g", "no-groups", "zero-width", "float-widths", "string-widths",
            "spec-chain-mismatch", "bad-head", "group-shape-mismatch", "gev-present-not-bool"])
    def test_bad_manifest_raises_checkpoint_error(self, params, tmp_path, edit):
        path = tmp_path / "ckpt.bin"
        md.save_checkpoint(params, path)
        rewrite_manifest(path, edit)
        with pytest.raises(md.CheckpointError):
            md.load_checkpoint(path)

    def test_rewritten_manifest_still_loads(self, params, tmp_path):
        path = tmp_path / "ckpt.bin"
        md.save_checkpoint(params, path)
        rewrite_manifest(path, lambda m: None)
        loaded, _ = md.load_checkpoint(path)
        np.testing.assert_array_equal(loaded.theta_d[0], params.theta_d[0])


@pytest.fixture(scope="module")
def saved_checkpoint(tmp_path_factory):
    params = md.init_params(*md.default_specs(input_dim=3, num_classes=4), seed=7)
    path = tmp_path_factory.mktemp("ckpt") / "valid.bin"
    md.save_checkpoint(params, path, gev=GevParams(1.3, 0.03, -0.35))
    return path.read_bytes()


# A damaged copy of a valid checkpoint: truncated, extended, or one byte
# flipped. Half the positions fall in the first 512 bytes, the header and
# the JSON manifest; the rest anywhere, mostly in the tensor data.
position = st.one_of(st.integers(0, 511), st.integers(0, 2**31))
damage = st.one_of(
    st.tuples(st.just("truncate"), position, st.just(0)),
    st.tuples(st.just("extend"), st.binary(min_size=1, max_size=16), st.just(0)),
    st.tuples(st.just("flip"), position, st.integers(1, 255)),
)


@given(damage)
@settings(max_examples=200, deadline=None)
def test_damaged_checkpoint_loads_or_raises_checkpoint_error(saved_checkpoint, tmp_path_factory, how):
    kind, arg, mask = how
    data = bytearray(saved_checkpoint)
    if kind == "truncate":
        data = data[:arg % len(data)]
    elif kind == "extend":
        data += arg
    else:
        data[arg % len(data)] ^= mask
    path = tmp_path_factory.mktemp("fuzz") / "damaged.bin"
    path.write_bytes(bytes(data))
    try:
        params, gev = md.load_checkpoint(path)
    except md.CheckpointError:
        return
    assert kind == "flip"
    assert all(np.all(np.isfinite(t)) for group in params.groups().values() for t in group)
    assert gev is not None and gev.s > 0
