"""Repeat the benchmark and summarise each metric's spread.

    python3 perfbench/repeat.py --workload cli-propagate --runs 10 [--first-seed 1]
                                [--seconds 15] [--trace 0]

Runs ``perfbench/run.py`` once per seed (first-seed, first-seed + 1, ...),
one run at a time, and prints for every metric its median, first and
third quartile (``statistics.quantiles(values, n=4)``) and the quartile
distance as a share of the median. For end-to-end metrics that share is
set beside the metric's bound in BENCHMARK.json. It also prints each
run's failed share, which must be the same in every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values: dict[str, list[float]] = {}
    shares = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-800:]}")
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        shares.append((result["failed"], result["attempted"]))
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print(f"\n{args.workload}: {args.runs} runs of {seconds} s")
    print(f"{'metric':36s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s} bound")
    for name, xs in values.items():
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0], 0, xs[0])
        share = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None else f"{bound}" + ("" if share < bound / 3 else "  WIDE")
        print(f"{name:36s} {med:12.5g} {q1:12.5g} {q3:12.5g} {share:8.4f} {flag}")
    fractions = {failed / attempted for failed, attempted in shares}
    print(f"failed share per run: {sorted(set(shares))} "
          f"({'same' if len(fractions) == 1 else 'DIFFERS'})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
