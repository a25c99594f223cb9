#!/usr/bin/env python3
"""rtm3d benchmark: one workload per run, end-to-end metrics or a traced run.

Run from the root of a checkout (the package is used from ``src/``):

    python3 bench/run.py --workload kitti-pipeline --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The lines before
it record the environment and the workload's stage figures.  See
bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check_reference  # noqa: E402
from workloads import WORKLOADS, BenchError  # noqa: E402

WORK_ROOT = Path(".bench_work")
# Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def environment() -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip()
    except OSError:
        sha = ""
    import numpy
    import scipy

    return {
        "git_sha": sha or "unknown",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "src_lines": sum(len(p.read_text().splitlines()) for p in Path("src").rglob("*.py")),
    }


def peak_rss_mb() -> float:
    """Largest resident set of any program process the benchmark waited for.

    Every program stage runs in a child process (the CLI, and the head-map
    decode), so the benchmark's own interpreter does not count.
    """
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def run_rounds(wl, inputs: Path, work: Path, seconds: float) -> tuple[list, int, int, list]:
    """Whole rounds until ``seconds`` have passed; the first round is checked
    in full and every later one must reproduce its outputs."""
    rounds, problems = [], []
    first, first_digest = None, None
    start = time.perf_counter()
    while True:
        out = work / ("round0" if first is None else "round")
        r = wl.round(inputs, out)
        rounds.append(r)
        digest = wl.digest(inputs, out, r)
        if first is None:
            first, first_digest = r, digest
        else:
            if digest != first_digest:
                problems.append(f"round {len(rounds)} outputs differ from round 1")
            shutil.rmtree(out)
        if time.perf_counter() - start >= seconds:
            break
    attempted, failed, checked = wl.check(inputs, work / "round0", first)
    return rounds, attempted * len(rounds), failed * len(rounds), problems + checked


def stage_figures(wl, rounds: list, setups: list) -> dict:
    """The workload's stage rates, printed beside the end-to-end metrics."""
    med = {k: statistics.median(r[k] for r in rounds)
           for k in ("synth_s", "solve_s", "eval_s", "decode_s") if k in rounds[0]}
    # Synth runs in the rounds, or on crowded-eval only in the set-ups.
    synth = [r for r in rounds if "synth_s" in r] or setups
    out = {"synth_frames_per_s": (statistics.median(r["synth_frames"] / r["synth_s"] for r in synth), "frames/s")}
    if "solve_s" in med and wl.name == "kitti-pipeline":
        out["solve_objects_per_s"] = (wl.frames * wl.objects / med["solve_s"], "objects/s")
    if "eval_s" in med:
        out["eval_frames_per_s"] = (wl.frames / med["eval_s"], "frames/s")
    if "decode_s" in med:
        out["decode_frames_per_s"] = (rounds[0]["synth_frames"] / med["decode_s"], "frames/s")
        per_object = [t for r in rounds for t in r["solve_times"]]
        out["solve_objects_per_s"] = (len(rounds[0]["solve_times"]) / med["solve_s"], "objects/s")
        out["solve_ms_p50"] = (1e3 * statistics.median(per_object), "ms")
        out["solve_ms_p90"] = (1e3 * statistics.quantiles(per_object, n=10)[-1], "ms")
    if "ap_3d_moderate" in rounds[0]:
        out["ap_3d_moderate"] = (rounds[0]["ap_3d_moderate"], "ratio")
    out["rounds"] = (len(rounds), "count")
    if "worse_than_truth_until_tilted" in rounds[0]:
        out["worse_than_truth_until_tilted"] = (rounds[0]["worse_than_truth_until_tilted"], "count")
    return out


def run_plain(wl, work: Path, seconds: float) -> tuple[dict, int, int, list]:
    setup_times, setups = [], []
    for i in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        setups.append(wl.setup(work / f"setup{i}"))
        setup_times.append(time.perf_counter() - t0)
        if i + 1 < SETUP_REPEATS:
            shutil.rmtree(work / f"setup{i}")
    inputs = work / f"setup{SETUP_REPEATS - 1}"
    rounds, attempted, failed, problems = run_rounds(wl, inputs, work, seconds)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "pipeline_s": (statistics.median(r["wall"] for r in rounds), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    stages = stage_figures(wl, rounds, setups)
    print("stages " + json.dumps({k: {"value": v, "unit": u} for k, (v, u) in stages.items()}))
    return metrics, attempted, failed, problems


def run_traced(wl, work: Path, run_id: str) -> tuple[dict, int, int, list]:
    sys.path.insert(0, str(Path("src").resolve()))
    import layers

    inputs = work / "setup0"
    wl.setup(inputs)
    # One untraced CLI round carries the correctness checks and the counts.
    rounds, attempted, failed, problems = run_rounds(wl, inputs, work, 0.0)
    metrics, summary, tracer = layers.trace(wl, inputs, work / "trace", run_id)
    spans_file = WORK_ROOT / "traces" / f"{run_id}.json"
    tracer.dump(spans_file)
    summary["spans_file"] = str(spans_file)
    print("trace " + json.dumps(summary))
    return metrics, attempted, failed, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not Path("src/rtm3d/__init__.py").is_file():
        print("bench: src/rtm3d not found; run from the root of an rtm3d checkout", file=sys.stderr)
        return 2
    failures = check_reference.check()
    if failures:
        print("bench: reference evaluator self-test failed: " + "; ".join(failures[:5]), file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.seed)
    run_id = f"{wl.name}-seed{args.seed}-{os.getpid()}"
    work = WORK_ROOT / run_id
    print("env " + json.dumps(environment()))
    try:
        if args.trace:
            metrics, attempted, failed, problems = run_traced(wl, work, run_id)
        else:
            metrics, attempted, failed, problems = run_plain(wl, work, args.seconds)
    except BenchError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
