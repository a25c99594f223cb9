#!/usr/bin/env python3
"""Run the benchmark on several workloads and seeds; report each metric's spread.

    python3 bench/spread.py --workload kitti-pipeline crowded-eval headmap-decode --seeds 1
    python3 bench/spread.py --workload crowded-eval --seeds 1 2 3 4 5

Runs ``bench/run.py`` once per workload and seed, one after another, from
the current directory.  For every metric it prints the median, the quartiles and the
interquartile range as a share of the median (the run-to-run spread), next
to the metric's bound in BENCHMARK.json; and the share of failed operations
of each run, which must be the same in every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    ok = True
    for workload in args.workload:
        ok &= report(workload, args.seeds, seconds, args.trace, bounds)
    return 0 if ok else 1


def report(workload: str, seeds: list, seconds: float, trace: int, bounds: dict) -> bool:
    values: dict[str, list] = {}
    units: dict[str, str] = {}
    shares = set()
    all_correct = True
    for seed in seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return False
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        all_correct &= result["correct"]
        shares.add(result["failed"] / result["attempted"])
        print(f"{workload} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.4g} {v['unit']}" for k, v in result["metrics"].items()), flush=True)
        for k, v in result["metrics"].items():
            values.setdefault(k, []).append(v["value"])
            units[k] = v["unit"]

    print(f"{workload}: {'metric':34s} {'unit':>9s} {'median':>11s} {'q1':>11s} {'q3':>11s} {'spread':>7s} {'bound':>6s}")
    for k, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
        spread = (q3 - q1) / abs(med) if med else float("nan")
        bound = bounds.get(k)
        print(f"{workload}: {k:34s} {units[k]:>9s} {med:11.5g} {q1:11.5g} {q3:11.5g} {spread:7.3f} "
              f"{bound if bound is not None else '-':>6}")
    print(f"{workload}: failed shares {sorted(shares)}; all correct: {all_correct}", flush=True)
    return all_correct and len(shares) == 1


if __name__ == "__main__":
    sys.exit(main())
