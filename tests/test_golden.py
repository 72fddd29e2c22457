"""Golden gate: every benchmark workload's outputs at the recorded seed, byte
for byte as bench/golden.json holds them.

bench/run.py checks these digests after a timed run.  Here each job runs
once through the benchmark's own worker, so a change that moves any output
of any workload fails the tests as well.  Nothing under bench/ is written.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_outputs_match_golden(workload, tmp_path, monkeypatch):
    golden = json.loads((BENCH / "golden.json").read_text())[workload]
    jobs = inputs.generate(workload, run.RECORDED_SEED, tmp_path)
    monkeypatch.chdir(tmp_path)
    digests = {}
    for job in jobs:
        _, _, code, _, err = worker.run_job(job["argv"])
        assert code == 0, f"{job['id']}: {err}"
        digests.update((path, worker.digest(Path(path))) for path in job["outputs"])
    assert digests == golden
