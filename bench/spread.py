"""Run-to-run spread of the benchmark, and the baseline record.

Usage (from the root of a checkout):

    python3 bench/spread.py --workloads fit2d render2d --seeds 1-10
        --seconds 15 [--trace-seed 0] [--out bench/baseline.json]

Runs bench/run.py once per workload and seed, one run at a time, and reports
for every end-to-end metric the median, the quartiles (statistics.quantiles
with n=4) and the spread: the distance between the quartiles as a share of
the median.  With --trace-seed, one traced run per workload is added.  With
--out, everything is written as JSON together with nproc and the git SHA.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import run

RUN = Path(__file__).resolve().parent / "run.py"
# readings run.py prints but does not put in its result line
PRINTED = ("collage_distance_mean", "predict_d_err", *run.PRINTED)


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The run's result line, plus the quality readings it printed."""
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run([*argv, "--trace", str(trace)], capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        parts = line.split()
        if parts and parts[0] in PRINTED and not trace:
            result["metrics"][parts[0]] = {"value": float(parts[1]), "unit": parts[2]}
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def git_sha() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return proc.stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True, help="e.g. 1-10")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    record = {"nproc": os.cpu_count(), "git_sha": git_sha(), "seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        runs = [run_once(workload, seed, args.seconds, 0) for seed in args.seeds]
        entry = {
            "correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "metrics": {
                name: {"unit": runs[0]["metrics"][name]["unit"], **summarize([r["metrics"][name]["value"] for r in runs])}
                for name in runs[0]["metrics"]
            },
        }
        if args.trace_seed is not None:
            entry["traced"] = run_once(workload, args.trace_seed, args.seconds, 1)
        record["workloads"][workload] = entry
        print(f"{workload}: correct={entry['correct']} failed={entry['failed']}/{entry['attempted']}")
        for name, stats in entry["metrics"].items():
            print(f"  {name:<14} median {stats['median']:.6g} {stats['unit']:<4} IQR/median {stats['spread']:.3f}")
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
