"""Run-to-run spread of the benchmark's metrics over several seeds.

    python3 perfbench/spread.py --workload NAME --seeds 1,2,3 --seconds S [--trace 0|1]

Runs run.py once per seed, one after another, and prints for each metric
its median and the distance between its first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median: the
spread a bound in BENCHMARK.json has to cover.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()
    values = {}
    for seed in args.seeds.split(","):
        done = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                               "--seed", seed, "--seconds", args.seconds, "--trace", args.trace],
                              cwd=HERE.parent, capture_output=True, text=True, timeout=900)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, v in values.items():
        median = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], 0, v[0])
        spread = (q3 - q1) / median if median else float("nan")
        print(f"{name:32s} median {median:12.6g}  iqr/median {spread:7.4f}  "
              f"min {min(v):.6g} max {max(v):.6g}")


if __name__ == "__main__":
    main()
