"""Per-layer metrics derived from the spans of a traced run.

Each metric is named ``<module>.<what>`` after the module whose calls it
measures. Per-call metrics take percentiles over every call; metrics of a
training call or an evaluation take the median over those calls. A span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

NS = 1e-9
MS = 1e-6


def percentile(values, q):
    """Linear-interpolated percentile, q in [0, 100]."""
    v = sorted(values)
    if not v:
        return 0.0
    pos = (len(v) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def high_percentile(n):
    """The highest of p99.9, p99, p90 with at least 10 samples beyond it."""
    for q in (99.9, 99.0, 90.0):
        if n * (100.0 - q) / 100.0 >= 10:
            return q
    return None


class SpanIndex:
    """Spans by name, with each span's direct children.

    A span is appended when it ends, so its descendants are the block of
    spans just before it that started no earlier than it did.
    """

    def __init__(self, spans):
        self.spans = spans
        self.by_name = defaultdict(list)
        self.children = defaultdict(list)
        for i, s in enumerate(spans):
            self.by_name[s[2]].append(i)
            self.children[s[1]].append(i)

    def durations(self, name, unit=NS):
        return [(self.spans[i][4] - self.spans[i][3]) * unit for i in self.by_name[name]]

    def child_spans(self, i, names=None):
        return [self.spans[j] for j in self.children[self.spans[i][0]]
                if names is None or self.spans[j][2] in names]

    def descendants(self, i):
        start = self.spans[i][3]
        j = i - 1
        while j >= 0 and self.spans[j][3] >= start:
            j -= 1
        return self.spans[j + 1:i]

    def self_time(self, i):
        s = self.spans[i]
        return (s[4] - s[3] - sum(c[4] - c[3] for c in self.child_spans(i))) * NS

    def self_times(self):
        """Total self seconds and call count per span name."""
        table = defaultdict(lambda: [0.0, 0])
        for i, s in enumerate(self.spans):
            row = table[s[2]]
            row[0] += self.self_time(i)
            row[1] += 1
        return {name: {"self_s": t, "calls": n} for name, (t, n) in table.items()}


def _median(values):
    return statistics.median(values) if values else 0.0


def _dur(s):
    return s[4] - s[3]


def layer_metrics(spans, import_times, train_ratio):
    """The per-layer metrics, as {name: (value, unit)}, and the exact counts
    that took more than one value in the run, as {name: sorted values}.

    ``import_times`` holds one {"cli": s, "scipy": s} per traced child start;
    ``train_ratio`` is traced over untraced median training time. Graph
    nodes per step, rows per evaluation and bytes per iteration must repeat
    exactly within a run, whose inputs are the same in every iteration.
    """
    ix = SpanIndex(spans)
    out = {}

    def per_call(name, metric, qs=(50,)):
        d = ix.durations(name, MS)
        for q in qs:
            out[f"{metric}.ms_p{q}"] = (percentile(d, q), "ms")

    def per_parent(parent, fn):
        return _median([fn(i) for i in ix.by_name[parent]])

    per_call("autodiff.backward", "autodiff.backward", (50, 99))
    nodes = [s[5] for i in ix.by_name["autodiff.backward"]
             for s in ix.child_spans(i, {"autodiff.topo_order"})]
    out["autodiff.nodes_per_step"] = (_median(nodes), "count")
    repeated = {"autodiff.nodes_per_step": nodes}

    per_call("objective.total_step_gradients", "objective.step", (50, 99))
    forward = [(ix.spans[i][4] - ix.spans[i][3]
                - sum(map(_dur, ix.child_spans(i, {"autodiff.backward"})))) * MS
               for i in ix.by_name["objective.total_step_gradients"]]
    out["objective.forward.ms_p50"] = (percentile(forward, 50), "ms")
    per_call("pipeline.optimizer.step", "pipeline.optimizer")
    per_call("data.sample_batch_triple", "data.sample_batch_triple")

    epoch_log = {"model.forward_features", "model.forward_classifier", "objective.entropy"}
    out["pipeline.epoch_log.s"] = (per_parent(
        "pipeline.train",
        lambda i: sum(map(_dur, ix.child_spans(i, epoch_log))) * NS), "s")
    out["pipeline.fit_rejector.s"] = (_median(ix.durations("pipeline.fit_rejector")), "s")
    out["pipeline.train.self_s"] = (per_parent("pipeline.train", ix.self_time), "s")

    out["evt.fit_gev_mle.s"] = (_median(ix.durations("evt.fit_gev_mle")), "s")
    out["evt.nll_evals"] = (per_parent(
        "evt.fit_gev_mle", lambda i: len(ix.child_spans(i, {"evt.gev_pdf"}))), "count")

    forward_names = {"model.forward_features", "model.forward_classifier"}
    out["model.forward.s"] = (per_parent(
        "pipeline.evaluate",
        lambda i: sum(_dur(s) for s in ix.descendants(i) if s[2] in forward_names) * NS), "s")
    rows = [sum(s[5] for s in ix.descendants(i) if s[2] == "model.forward_features")
            for i in ix.by_name["pipeline.evaluate"]]
    out["model.forward.rows"] = (_median(rows), "count")
    repeated["model.forward.rows"] = rows
    out["model.checkpoint.s"] = (_median(ix.durations("model.save_checkpoint")
                                         + ix.durations("model.load_checkpoint")), "s")
    out["pipeline.evaluate.s"] = (_median(ix.durations("pipeline.evaluate")), "s")
    out["pipeline.compute_report.s"] = (_median(ix.durations("pipeline.compute_report")), "s")
    out["evt.gev_cdf.s"] = (_median(ix.durations("evt.gev_cdf")), "s")
    out["data.apply_roles.s"] = (_median(ix.durations("data.apply_roles")), "s")

    readers = {"data.load_idx", "data.load_blobs", "model.load_checkpoint"}
    read = [sum(s[5] for s in ix.descendants(i) if s[2] in readers)
            for i in ix.by_name["bench.iteration"]]
    out["io.bytes_read"] = (_median(read), "count")
    repeated["io.bytes_read"] = read

    out["cli.main.self_s"] = (per_parent("cli.main", ix.self_time), "s")
    out["cli.import.s"] = (_median([t["cli"] for t in import_times]), "s")
    out["cli.import_scipy.s"] = (_median([t["scipy"] for t in import_times]), "s")
    out["trace.train_ratio"] = (train_ratio, "ratio")
    return out, {k: sorted(set(v)) for k, v in repeated.items() if len(set(v)) > 1}


def parse_importtime(stderr: str) -> dict:
    """Cumulative import seconds of adagev with its CLI, and of scipy.optimize.

    Reads the ``import time: self | cumulative | package`` lines that
    ``python -X importtime`` writes to standard error.
    """
    cumulative = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        cumulative[parts[2].strip()] = int(parts[1]) * 1e-6
    return {"cli": cumulative.get("adagev", 0.0) + cumulative.get("adagev.cli", 0.0),
            "scipy": cumulative.get("scipy.optimize", 0.0)}
