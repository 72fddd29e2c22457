"""Record golden.json: the sha256 of every output file at the recorded seed.

Usage (from the root of a checkout): python3 bench/golden.py

Generates each workload's inputs at run.RECORDED_SEED, runs every job once
through ifsseq.cli.main in a scratch directory under .bench_work, and writes
the digests of the job's outputs.  Rerun it only when a change alters the
outputs on purpose, and say so in that change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import inputs
    import worker
    from run import RECORDED_SEED

    golden = {}
    (root / ".bench_work").mkdir(exist_ok=True)
    for workload in inputs.WORKLOADS:
        work = Path(tempfile.mkdtemp(prefix="golden-", dir=root / ".bench_work"))
        try:
            jobs = inputs.generate(workload, RECORDED_SEED, work)
            os.chdir(work)
            digests = {}
            for job in jobs:
                _, _, code, _, err = worker.run_job(job["argv"])
                if code != 0:
                    print(f"{job['id']}: exit code {code}: {err}", file=sys.stderr)
                    return 1
                digests.update((path, worker.digest(Path(path))) for path in job["outputs"])
            golden[workload] = dict(sorted(digests.items()))
        finally:
            os.chdir(root)
            shutil.rmtree(work, ignore_errors=True)
    (BENCH / "golden.json").write_text(json.dumps(golden, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
