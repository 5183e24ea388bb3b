"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/smoke.py

For every workload: an untraced run prints every end-to-end metric of
BENCHMARK.json with its unit, and two traced runs of one seed print every
per-layer metric with its unit and agree exactly on the counts. Then a
directory holding only the benchmark's files must make it fail without a
result. Exits 1 on the first failed check.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(cwd, workload, trace, seed=3):
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace)]
    return subprocess.run(cmd + ["--tiny"], cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(done):
    if done.returncode != 0:
        sys.exit(f"exit code {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_metrics(result, specs, what):
    if not result["correct"] or result["failed"]:
        sys.exit(f"{what}: checks failed:\n{json.dumps(result)}")
    got = result["metrics"]
    if set(got) != {m["name"] for m in specs}:
        sys.exit(f"{what}: metrics {sorted(got)} != {sorted(m['name'] for m in specs)}")
    for m in specs:
        if got[m["name"]]["unit"] != m["unit"]:
            sys.exit(f"{what}: {m['name']} has unit {got[m['name']]['unit']}, not {m['unit']}")


def main():
    for w in (w["name"] for w in SPEC["workloads"]):
        check_metrics(result_of(run(ROOT, w, 0)), SPEC["end_to_end"], f"{w} untraced")
        traced = [result_of(run(ROOT, w, 1)) for _ in range(2)]
        for r in traced:
            check_metrics(r, SPEC["per_layer"], f"{w} traced")
        for m in SPEC["per_layer"]:
            a, b = (r["metrics"][m["name"]]["value"] for r in traced)
            if m["unit"] == "count" and a != b:
                sys.exit(f"{w}: count {m['name']} differs between runs of one seed: {a} != {b}")
        print(f"ok {w}", flush=True)

    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    done = run(bare, SPEC["workloads"][0]["name"], 0)
    shutil.rmtree(bare)
    if done.returncode == 0 or done.stdout.strip():
        sys.exit(f"without the program: exit code {done.returncode}, output {done.stdout!r}")
    print("ok without the program")


if __name__ == "__main__":
    main()
