"""Self-tests of the benchmark: the generator, the tracer and the oracles.

Run with: PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import calibrate  # noqa: E402
import ifsseq.maps  # noqa: E402
import inputs  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
from ifsseq.errors import InputError  # noqa: E402


def _files(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload, tmp_path):
    jobs_a = inputs.generate(workload, 3, tmp_path / "a")
    jobs_b = inputs.generate(workload, 3, tmp_path / "b")
    jobs_c = inputs.generate(workload, 4, tmp_path / "c")
    assert jobs_a == jobs_b
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


def _traced_run(tmp_path, monkeypatch, workload: str):
    jobs = inputs.generate(workload, 1, tmp_path)[:1]
    plan = {"jobs": jobs, "seconds": 0, "trace": 1, "spans": str(tmp_path / "spans.npz")}
    (tmp_path / "plan.json").write_text(json.dumps(plan))
    monkeypatch.chdir(tmp_path)
    assert worker.main("plan.json", "result.json") == 0
    return json.loads((tmp_path / "result.json").read_text())


def test_self_times_sum_to_traced_wall(tmp_path, monkeypatch):
    result = _traced_run(tmp_path, monkeypatch, "fit2d")
    with np.load(tmp_path / "spans.npz") as spans:
        table = tracer.aggregate(spans)
    metrics, _ = run.per_layer(result, [{"wall": 1.0, "import_s": 0.5, "read_s": 0.1}], tmp_path / "spans.npz")
    wall = sum(rec["wall"] for rec in result["records"] if rec["traced"])
    self_total = sum(stats["self_s"] for stats in table.values())
    slack = max(metrics["trace.overhead_frac"], 0.0) * wall + 1e-3
    assert 0.0 <= wall - self_total <= slack
    assert table["collage.fit_ifs"]["calls"] == 1
    assert metrics["sequences.pairwise_distances.calls"] == 0  # never runs on fit2d
    assert set(metrics) == set(run.PER_LAYER)


def test_times_are_scaled_by_the_reference_read_before_them():
    records = [
        {"id": "a", "traced": False, "cpu": 1.0, "wall": 1.0, "ref": 2 * calibrate.REFERENCE_S},
        {"id": "b", "traced": False, "cpu": 3.0, "wall": 3.0, "ref": calibrate.REFERENCE_S},
        {"id": "a", "traced": True, "cpu": 9.0, "wall": 9.0, "ref": calibrate.REFERENCE_S},
    ]
    setup = [{"cpu": 1.0, "wall": 1.0, "ref": 2 * calibrate.REFERENCE_START_S}]
    metrics = run.end_to_end({"records": records, "peak_rss_mb": 80.0}, setup)
    assert metrics["setup_s"] == pytest.approx(0.5)
    assert metrics["setup_cpu_s"] == pytest.approx(1.0)
    assert metrics["jobs_per_ref_s"] == pytest.approx(2 / 3.5)
    assert metrics["job_ref_s_p50"] == pytest.approx(1.75)
    assert metrics["jobs_per_cpu_s"] == pytest.approx(2 / 4.0)


def test_missing_function_reports_zero_calls(tmp_path, monkeypatch):
    monkeypatch.delattr(ifsseq.maps, "dbar_inf")
    result = _traced_run(tmp_path, monkeypatch, "analyze2d")
    metrics, _ = run.per_layer(result, [{"wall": 1.0, "import_s": 0.5, "read_s": 0.1}], tmp_path / "spans.npz")
    assert metrics["maps.dbar_inf.calls"] == 0
    assert metrics["maps.Box.vertices.calls"] > 0
    assert not hasattr(ifsseq.maps.Box.vertices, "__wrapped__")  # uninstalled


def _edit_spec(path: Path, edit):
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


def _drop_csv_row(path: Path):
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[1:]) + "\n")


def _shrink_first_map(data):
    data["maps"][0]["A"] = [[0.5 * a for a in row] for row in data["maps"][0]["A"]]


CORRUPTIONS = {
    "fit2d": lambda job, root: _edit_spec(root / job["outputs"][0], _shrink_first_map),
    "predict1d": lambda job, root: _drop_csv_row(root / job["outputs"][1]),
    "analyze2d": lambda job, root: _edit_spec(root / job["outputs"][0], _shrink_first_map),
    "render2d": lambda job, root: _drop_csv_row(root / job["outputs"][0]),
}


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_oracle_flags_a_corrupted_output(workload, tmp_path, monkeypatch):
    job = inputs.generate(workload, 5, tmp_path)[0]
    monkeypatch.chdir(tmp_path)
    _, _, code, stdout, stderr = worker.run_job(job["argv"])
    assert code == 0, stderr
    oracles.CHECKS[workload](job, tmp_path, stdout)
    CORRUPTIONS[workload](job, tmp_path)
    with pytest.raises((oracles.OracleError, InputError)):
        oracles.CHECKS[workload](job, tmp_path, stdout)


def test_fit2d_specs_are_checked_against_golden_at_any_seed(tmp_path, monkeypatch):
    jobs = inputs.generate("fit2d", 5, tmp_path)[:1]
    monkeypatch.chdir(tmp_path)
    _, _, code, stdout, stderr = worker.run_job(jobs[0]["argv"])
    assert code == 0, stderr
    digests = [worker.digest(Path(path)) for path in jobs[0]["outputs"]]

    def errors(digests):
        record = {"id": jobs[0]["id"], "code": 0, "digests": digests}
        result = {"records": [record], "stdout": {jobs[0]["id"]: stdout}, "stderr": {}}
        return run.check_outputs("fit2d", jobs, result, tmp_path, 5)[0]

    assert errors(digests) == {}
    assert errors(["0" * 64, digests[1]])[jobs[0]["id"]].startswith("golden digest mismatch")


def test_benchmark_json_matches_the_runner():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
