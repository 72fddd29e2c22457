"""Benchmark worker: runs one workload's job list back to back through
``ifsseq.cli.main`` in this single process, one job at a time.

Usage: python3 worker.py PLAN RESULT

PLAN is a JSON file {"jobs": [...], "seconds": S, "trace": 0 or 1, "spans":
path}.  The worker runs whole passes over the job list until S seconds have
passed, at least one pass.  With trace 1, untraced and traced passes
alternate, as many of each, and the traced passes' spans go to "spans".
Before each job, outside its timing, the worker reads the machine's speed
with calibrate.reference_cpu_s(); after it, it hashes the job's outputs so
the caller can check that every pass wrote the same bytes.  RESULT receives
the per-job records, the last stdout/stderr of each job and the peak RSS.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import ifsseq.cli

from calibrate import reference_cpu_s
from tracer import Tracer


def run_job(argv: list[str]):
    """Wall time, CPU time (user + system), exit code, stdout and stderr of
    one CLI invocation."""
    out, err = io.StringIO(), io.StringIO()
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = ifsseq.cli.main(argv)
    except SystemExit as exc:  # argparse rejected the argv
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a traceback fails the job, not the run
        code = 1
        err.write(f"{type(exc).__name__}: {exc}")
    return time.perf_counter() - t0, time.process_time() - c0, code, out.getvalue(), err.getvalue()


def digest(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None


def main(plan_path: str, result_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    jobs, seconds, trace = plan["jobs"], plan["seconds"], plan["trace"]
    tracer = Tracer() if trace else None
    records, stdout, stderr = [], {}, {}
    started = time.perf_counter()
    passes = 0
    while True:
        traced = bool(trace) and passes % 2 == 1
        if traced:
            tracer.install()
        for job in jobs:
            if traced:
                tracer.job = len(records)
            ref = reference_cpu_s()
            wall, cpu, code, out, err = run_job(job["argv"])
            records.append(
                {
                    "id": job["id"],
                    "pass": passes,
                    "traced": traced,
                    "wall": wall,
                    "cpu": cpu,
                    "ref": ref,
                    "code": code,
                    "digests": [digest(Path(p)) for p in job["outputs"]],
                }
            )
            stdout[job["id"]], stderr[job["id"]] = out, err
        if traced:
            tracer.uninstall()
        passes += 1
        if time.perf_counter() - started >= seconds and not (trace and passes % 2):
            break
    if tracer is not None:
        tracer.dump(plan["spans"])
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(result_path).write_text(
        json.dumps(
            {
                "records": records,
                "stdout": stdout,
                "stderr": stderr,
                "peak_rss_mb": peak_kb / 1024.0,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
