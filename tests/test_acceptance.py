"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criterion 8 pins the end-to-end benchmark configuration and a mean-OS
floor of 0.70 alongside the ablation ordering; criterion 9 reuses the
same five seeded runs.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from adagev import data as dt
from adagev import evt
from adagev import model as md
from adagev import objective as obj
from adagev import pipeline as pl
import graph_engine as ad

SEEDS = (0, 1, 2, 3, 4)


def report(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {num}: {desc}"
    if detail:
        line += f" ({detail})"
    # bypass pytest's capture so every criterion's line reaches the terminal
    print(line, file=sys.__stdout__)
    assert ok, line


# --- the pinned end-to-end benchmark fixture (criteria 8 and 9) -----------

def benchmark_pool():
    src_x, src_y, tgt_x, tgt_y = dt.gen_shifted_blobs(dt.BlobShiftConfig())
    return dt.apply_roles(src_x, src_y, tgt_x, tgt_y, dt.digits_split())


def benchmark_specs():
    spec_g = md.MlpSpec((2, 128, 64), activation="tanh")
    spec_c = md.MlpSpec((64, 4), head="softmax")
    spec_d = md.MlpSpec((64, 64, 1), activation="tanh", head="sigmoid")
    return spec_g, spec_c, spec_d


def benchmark_config(seed):
    return pl.TrainConfig(epochs=80, batch_size=128, learning_rate=1e-4,
                          optimizer="adam", seed=seed)


@pytest.fixture(scope="module")
def benchmark_runs():
    """Five seeded runs of full / no_reweight / no_evt_binary, with timings.

    full and no_evt_binary share one trained model per seed."""
    pool = benchmark_pool()
    out = {"full": [], "no_reweight": [], "no_evt_binary": [],
           "full_logs": [], "seconds": []}
    for seed in SEEDS:
        t0 = time.time()
        runs = pl.run_ablations(pool, benchmark_specs(), benchmark_config(seed),
                                ("full", "no_reweight", "no_evt_binary"))
        for variant, (rep, _) in runs.items():
            out[variant].append(rep.os_score)
        out["full_logs"].append(runs["full"][1].log)
        out["seconds"].append(time.time() - t0)
    return out


# --- criteria -------------------------------------------------------------

def test_criterion_1_gradient_correctness():
    """Backward matches central finite differences on >= 100 random nets."""

    def build(xv, tensors, widths, acts):
        h = ad.leaf(xv)
        nodes = [ad.leaf(t) for t in tensors]
        i = 0
        for act in acts:
            h = ad.linear(h, nodes[i], nodes[i + 1])
            i += 2
            if act == "relu":
                h = ad.relu(h)
            elif act == "tanh":
                h = ad.tanh(h)
        p = ad.stable_softmax(h)
        return ad.scale(ad.reduce_mean(ad.log_clamped(p)), -1.0), nodes

    rng = np.random.default_rng(2024)
    t0 = time.time()
    worst = 0.0
    h_step = 1e-5
    for _ in range(100):
        depth = int(rng.integers(1, 3))
        widths = [int(rng.integers(2, 5)) for _ in range(depth + 2)]
        widths[-1] = max(widths[-1], 2)
        acts = [("relu", "tanh")[rng.integers(2)] for _ in range(depth)] + ["none"]
        tensors = []
        for fi, fo in zip(widths[:-1], widths[1:]):
            tensors.append(rng.standard_normal((fi, fo)))
            tensors.append(rng.standard_normal(fo) * 0.1)
        xv = rng.standard_normal((3, widths[0]))
        loss, nodes = build(xv, tensors, widths, acts)
        ad.backward(loss)
        for tensor, node in zip(tensors, nodes):
            fd = np.zeros_like(tensor)
            it = np.nditer(tensor, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = tensor[idx]
                tensor[idx] = orig + h_step
                up = float(build(xv, tensors, widths, acts)[0].value)
                tensor[idx] = orig - h_step
                down = float(build(xv, tensors, widths, acts)[0].value)
                tensor[idx] = orig
                fd[idx] = (up - down) / (2 * h_step)
            rel = np.abs(node.grad - fd).max() / max(np.abs(fd).max(), 1e-8)
            worst = max(worst, rel)
    elapsed = time.time() - t0
    report(1, "gradient correctness on 100 random networks",
           worst < 1e-4 and elapsed < 30.0,
           f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_1_program_backward():
    """``mlp_backward`` matches central finite differences on the same 100
    random nets. A net whose hidden layers mix relu and tanh is checked under
    each: an MlpSpec has one activation for all its layers."""

    def loss(spec, tensors, xv):  # criterion 1's -mean(log softmax) over every entry
        return -md.softmax(md.mlp_forward(spec, tensors, xv, []))[1].mean()

    rng = np.random.default_rng(2024)
    t0 = time.time()
    worst = 0.0
    h_step = 1e-5
    for _ in range(100):
        # the draws of test_criterion_1_gradient_correctness, in its order
        depth = int(rng.integers(1, 3))
        widths = [int(rng.integers(2, 5)) for _ in range(depth + 2)]
        widths[-1] = max(widths[-1], 2)
        acts = [("relu", "tanh")[rng.integers(2)] for _ in range(depth)]
        tensors = []
        for fi, fo in zip(widths[:-1], widths[1:]):
            tensors.append(rng.standard_normal((fi, fo)))
            tensors.append(rng.standard_normal(fo) * 0.1)
        xv = rng.standard_normal((3, widths[0]))
        for act in sorted(set(acts)):
            spec = md.MlpSpec(tuple(widths), act)
            inputs = []
            p = md.softmax(md.mlp_forward(spec, tensors, xv, inputs))[0]
            grads = [np.empty_like(t) for t in tensors]
            md.mlp_backward(spec, tensors, inputs, (p - 1.0 / p.shape[1]) / len(p), grads,
                            add=False, wrt_input=False)
            for tensor, grad in zip(tensors, grads):
                fd = np.zeros_like(tensor)
                it = np.nditer(tensor, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    orig = tensor[idx]
                    tensor[idx] = orig + h_step
                    up = loss(spec, tensors, xv)
                    tensor[idx] = orig - h_step
                    down = loss(spec, tensors, xv)
                    tensor[idx] = orig
                    fd[idx] = (up - down) / (2 * h_step)
                rel = np.abs(grad - fd).max() / max(np.abs(fd).max(), 1e-8)
                worst = max(worst, rel)
    elapsed = time.time() - t0
    report(1, "mlp_backward gradient correctness on the same 100 random networks",
           worst < 1e-4 and elapsed < 30.0,
           f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_grl_contract():
    """Forward bit-identity; backward multiplies the gradient by -1."""
    rng = np.random.default_rng(0)
    x_val = rng.standard_normal((4, 3))
    x = ad.leaf(x_val)
    y = ad.grad_reverse(x)
    forward_identical = y.value is x.value

    coeffs = rng.standard_normal((4, 3))
    ad.backward(ad.reduce_sum(ad.mul(y, ad.leaf(coeffs))))
    through_grl = x.grad.copy()
    x2 = ad.leaf(x_val)
    ad.backward(ad.reduce_sum(ad.mul(x2, ad.leaf(coeffs))))
    sign_flip_exact = np.array_equal(through_grl, -x2.grad)

    report(2, "GRL forward bit-identity and exact backward sign flip",
           forward_identical and sign_flip_exact)


def test_criterion_2_step_reverses_extractor_gradient():
    """The fused step's extractor gradient of lambda_d*L_d is exactly the
    negation of the same gradient backpropagated without the reversal."""
    rng = np.random.default_rng(0)
    spec_g = md.MlpSpec((3, 6, 5), activation="tanh")
    spec_c = md.MlpSpec((5, 3), head="softmax")
    spec_d = md.MlpSpec((5, 4, 1), activation="relu", head="sigmoid")
    params = md.init_params(spec_g, spec_c, spec_d, seed=0)
    batch = dt.DomainBatch(
        source_x=rng.standard_normal((6, 3)),
        source_y=rng.integers(0, 3, 6),
        unknown_x=rng.standard_normal((6, 3)),
        target_x=rng.standard_normal((6, 3)),
    )
    lw, wc = obj.LossWeights(lambda_d=0.5, lambda_e=0.0, lambda_c=0.0), obj.WeightConfig()
    step = obj.total_step_gradients(batch, params, lw, wc)

    def forward(spec, group, x):
        inputs = []
        return md.mlp_forward(spec, group, x, inputs), inputs

    feat_s, in_gs = forward(spec_g, params.theta_g, batch.source_x)
    feat_t, in_gt = forward(spec_g, params.theta_g, batch.target_x)
    w = obj.batch_weights(obj.entropy(md.softmax(forward(spec_c, params.theta_c, feat_t)[0])[0]),
                          wc)
    z_s, in_ds = forward(spec_d, params.theta_d, feat_s)
    z_t, in_dt = forward(spec_d, params.theta_d, feat_t)
    _, g_zs, g_zt = obj.loss_domain(z_s, z_t, w, scale=lw.lambda_d)
    _, (grad_g, _, grad_d) = md.layout(params.specs)
    # no reversal: the features get the discriminator's input gradients as they are
    g_fs = md.mlp_backward(spec_d, params.theta_d, in_ds, g_zs, grad_d)
    g_ft = md.mlp_backward(spec_d, params.theta_d, in_dt, g_zt, grad_d)
    for inputs, g in ((in_gt, g_ft), (in_gs, g_fs)):  # the step's order of the sums
        md.mlp_backward(spec_g, params.theta_g, inputs, g, grad_g, wrt_input=False)

    nonzero = all(np.abs(g).max() > 0 for g in grad_g)
    sign_flip_exact = all(np.array_equal(a, -b) for a, b in zip(step.grads["theta_g"], grad_g))
    discriminator_same = all(np.array_equal(a, b) for a, b in zip(step.grads["theta_d"], grad_d))
    report(2, "the step's extractor gradient of lambda_d*L_d is the exact negation "
              "of the unreversed one",
           nonzero and sign_flip_exact and discriminator_same)


def test_criterion_3_saddle_point_routing():
    """Per-group finite differences confirm the descent directions."""
    rng = np.random.default_rng(7)
    spec_g = md.MlpSpec((3, 5), activation="tanh")
    spec_c = md.MlpSpec((5, 3), head="softmax")
    spec_d = md.MlpSpec((5, 1), head="sigmoid")
    params = md.init_params(spec_g, spec_c, spec_d, seed=7)
    for group in params.groups().values():
        for i in range(1, len(group), 2):
            group[i][...] = rng.standard_normal(group[i].shape) * 0.1
    batch = dt.DomainBatch(
        source_x=rng.standard_normal((5, 3)),
        source_y=rng.integers(0, 3, 5),
        unknown_x=rng.standard_normal((5, 3)),
        target_x=rng.standard_normal((5, 3)),
    )
    lw, wc = obj.LossWeights(), obj.WeightConfig()
    step = obj.total_step_gradients(batch, params, lw, wc)
    base_w = obj.batch_weights(
        obj.entropy(md.forward_classifier(params, md.forward_features(params, batch.target_x))),
        wc)

    def logits(spec, group, x):  # a training pass ends at the logits
        return md.mlp_forward(spec, group, x, [])

    def group_objective(which):
        feat_s = md.forward_features(params, batch.source_x)
        feat_t = md.forward_features(params, batch.target_x)
        l_d = obj.loss_domain(logits(spec_d, params.theta_d, feat_s),
                              logits(spec_d, params.theta_d, feat_t), base_w)[0]
        l_e = obj.loss_entropy_unknown(logits(
            spec_c, params.theta_c, md.forward_features(params, batch.unknown_x)))[0]
        l_c = obj.loss_classification(
            logits(spec_c, params.theta_c, feat_s), batch.source_y)[0]
        if which == "theta_d":
            return lw.lambda_d * l_d
        if which == "theta_g":
            return -lw.lambda_d * l_d + lw.lambda_e * l_e + lw.lambda_c * l_c
        return lw.lambda_e * l_e + lw.lambda_c * l_c

    h = 1e-5
    worst = 0.0
    for which in ("theta_g", "theta_c", "theta_d"):
        for gi, tensor in enumerate(params.groups()[which]):
            fd = np.zeros_like(tensor)
            it = np.nditer(tensor, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = tensor[idx]
                tensor[idx] = orig + h
                up = group_objective(which)
                tensor[idx] = orig - h
                down = group_objective(which)
                tensor[idx] = orig
                fd[idx] = (up - down) / (2 * h)
            rel = np.abs(step.grads[which][gi] - fd).max() / max(np.abs(fd).max(), 1e-8)
            worst = max(worst, rel)
    report(3, "saddle-point gradient routing per parameter group",
           worst < 1e-4, f"worst rel err {worst:.2e}")


def test_criterion_4_weight_normalization():
    rng = np.random.default_rng(1)
    sums_ok = True
    antitone_ok = True
    for _ in range(50):
        h = rng.random(int(rng.integers(2, 40))) * np.log(4)
        w = obj.batch_weights(h, obj.WeightConfig("neg_entropy"))
        sums_ok &= abs(w.sum() - 1.0) < 1e-9
        order = np.argsort(h)
        antitone_ok &= bool(np.all(np.diff(w[order]) < 0))
    hand = obj.batch_weights(np.array([0.0, np.log(2)]), obj.WeightConfig("neg_entropy"))
    hand_ok = np.allclose(hand, [2 / 3, 1 / 3], atol=1e-12)
    report(4, "weight normalization, antitonicity, and hand check",
           sums_ok and antitone_ok and hand_ok,
           f"hand case -> [{hand[0]:.6f}, {hand[1]:.6f}]")


def test_criterion_5_gev_analytics():
    rng = np.random.default_rng(3)
    cdf_ok = True
    for _ in range(50):
        p = evt.GevParams(float(rng.uniform(-5, 5)), float(rng.uniform(0.1, 3)),
                          float(rng.uniform(-0.8, 0.8)))
        cdf_ok &= abs(evt.gev_cdf(p.l, p) - np.exp(-1.0)) < 1e-12

    def quantile(p, u):
        if abs(p.c) < evt.GUMBEL_EPS:
            return p.l - p.s * np.log(-np.log(u))
        return p.l + p.s * ((-np.log(u)) ** -p.c - 1.0) / p.c

    pdf_ok = True
    for p in (evt.GevParams(0.0, 1.0, 0.0), evt.GevParams(0.5, 0.2, 0.1),
              evt.GevParams(1.0, 0.5, -0.2)):
        total, _ = quad(lambda x: evt.gev_pdf(x, p),
                        quantile(p, 1e-9), quantile(p, 1 - 1e-9), limit=400)
        pdf_ok &= abs(total - 1.0) < 1e-4

    # continuity at the Gumbel switch: compare c = 1e-6 (GEV path) with the
    # Gumbel limit over the operative upper-tail region
    xs = np.linspace(-0.5, 6.0, 200)
    gumbel = evt.gev_cdf(xs, evt.GevParams(0.0, 1.0, 0.0))
    near = evt.gev_cdf(xs, evt.GevParams(0.0, 1.0, 1e-6))
    cont = np.max(np.abs(near - gumbel) / np.abs(gumbel))
    cont_ok = cont < 1e-6
    report(5, "GEV cdf(l)=1/e, pdf normalization, Gumbel continuity",
           cdf_ok and pdf_ok and cont_ok, f"continuity rel err {cont:.2e}")


def test_criterion_6_gev_fit_recovery():
    t0 = time.time()
    gev_fit = evt.fit_gev_mle(evt.gev_sample(evt.GevParams(0.5, 0.2, 0.1), 20000, seed=0))
    t_gev = time.time() - t0
    t0 = time.time()
    gum_fit = evt.fit_gev_mle(evt.gev_sample(evt.GevParams(1.0, 0.5, 0.0), 20000, seed=1))
    t_gum = time.time() - t0
    ok = (abs(gev_fit.l - 0.5) < 0.05 and abs(gev_fit.s - 0.2) < 0.05
          and abs(gev_fit.c - 0.1) < 0.08 and abs(gum_fit.c) < 0.05
          and abs(gum_fit.l - 1.0) < 0.05 and abs(gum_fit.s - 0.5) < 0.05
          and t_gev < 10.0 and t_gum < 10.0)
    report(6, "GEV fit recovery at 20k samples",
           ok, f"GEV ({gev_fit.l:.3f},{gev_fit.s:.3f},{gev_fit.c:.3f}) in "
               f"{t_gev:.1f}s; Gumbel c-hat {gum_fit.c:+.4f} in {t_gum:.1f}s")


def test_criterion_7_metric_oracle():
    rng = np.random.default_rng(5)
    ok = True
    for _ in range(1000):
        k = int(rng.integers(2, 7))
        n = int(rng.integers(1, 80))
        classes = np.array(list(range(k)) + [pl.UNKNOWN])
        true = classes[rng.integers(0, k + 1, n)]
        pred = classes[rng.integers(0, k + 1, n)]
        rep = pl.compute_report(true, pred, k)

        recalls = {}
        for c in classes:
            mask = true == c
            if mask.sum():
                recalls[c] = (pred[mask] == c).sum() / mask.sum()
        os_all = float(np.mean(list(recalls.values())))
        known = [recalls[c] for c in range(k) if c in recalls]
        ok &= rep.os_score == os_all
        if known:
            ok &= rep.os_star == float(np.mean(known))
        if pl.UNKNOWN in recalls:
            ok &= rep.unk_recall == recalls[pl.UNKNOWN]
    report(7, "OS/OS*/UNK equal the brute-force oracle on 1000 sets", ok)


def test_criterion_8_end_to_end_ordering_and_floor(benchmark_runs):
    mean_full = float(np.mean(benchmark_runs["full"]))
    mean_norw = float(np.mean(benchmark_runs["no_reweight"]))
    mean_bin = float(np.mean(benchmark_runs["no_evt_binary"]))
    max_seconds = max(benchmark_runs["seconds"])
    ordering = mean_full > mean_norw and mean_full > mean_bin
    floor = mean_full >= 0.70
    runtime = max_seconds < 120.0
    report(8, "end-to-end ordering and mean OS(full) >= 0.70 over 5 seeds",
           ordering and floor and runtime,
           f"full={mean_full:.3f} no_reweight={mean_norw:.3f} "
           f"no_evt_binary={mean_bin:.3f}, slowest seed {max_seconds:.0f}s")


def test_criterion_9_entropy_separation(benchmark_runs):
    gaps = [log[-1]["mean_unknown_entropy"] - log[-1]["mean_known_entropy"]
            for log in benchmark_runs["full_logs"]]
    ok = all(g > 0 for g in gaps)
    report(9, "source-unknown entropy exceeds source-known in all 5 seeds",
           ok, "gaps " + ", ".join(f"{g:+.4f}" for g in gaps))


def test_criterion_10_determinism(tmp_path):
    pool = benchmark_pool()
    spec_g = md.MlpSpec((2, 16), activation="tanh")
    spec_c = md.MlpSpec((16, 4), head="softmax")
    spec_d = md.MlpSpec((16, 1), head="sigmoid")
    tc = pl.TrainConfig(epochs=3, batch_size=64, learning_rate=1e-3, seed=11)

    artifacts = []
    for run in range(2):
        res = pl.train(pool, (spec_g, spec_c, spec_d), tc)
        path = tmp_path / f"ckpt{run}.bin"
        md.save_checkpoint(res.params, path, gev=res.gev)
        rep = pl.evaluate(res.params, res.gev, pool)
        artifacts.append((path.read_bytes(), res.log, rep.to_dict()))
    ok = (artifacts[0][0] == artifacts[1][0]
          and artifacts[0][1] == artifacts[1][1]
          and artifacts[0][2] == artifacts[1][2])
    report(10, "bit-identical checkpoints, logs, and reports across reruns", ok)


# Trains the criterion-8 nets at seed 0 for a few epochs and writes the
# checkpoint and the log as ``adagev train`` does. Each epoch runs every
# product shape of the 80-epoch run, the epoch log's pool passes included.
BLAS_CHILD = """
import json, sys
from dataclasses import replace
from pathlib import Path
from adagev import model as md, pipeline as pl
from test_acceptance import benchmark_config, benchmark_pool, benchmark_specs
out = Path(sys.argv[1])
res = pl.train(benchmark_pool(), benchmark_specs(), replace(benchmark_config(0), epochs=3))
md.save_checkpoint(res.params, out / "checkpoint.bin", gev=res.gev)
with open(out / "train_log.jsonl", "w", encoding="utf-8") as f:
    for record in res.log:
        f.write(json.dumps(record) + "\\n")
"""


def test_pinned_config_bits_do_not_depend_on_blas_threads(tmp_path):
    """OpenBLAS may split a product differently across threads (a 784-wide
    first layer gets other bits on 1 and on 2), but not the criterion-8 nets'."""
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(here.parent / "src"), str(here)])
    children = {}
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}"
        out.mkdir()
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=path)
        children[out] = subprocess.Popen([sys.executable, "-c", BLAS_CHILD, str(out)], env=env)
    written = []
    for out, child in children.items():
        assert child.wait(timeout=120) == 0
        written.append([(out / name).read_bytes()
                        for name in ("checkpoint.bin", "train_log.jsonl")])
    assert written[0] == written[1]
    assert written[0][1].count(b"\n") == 3
