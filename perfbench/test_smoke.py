"""Smoke test of the benchmark: one tiny job per workload and the result
schema, plus the reaping of killed workers and the reference checks.

Run with `python3 -m pytest perfbench/test_smoke.py` from the repository root.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _tiny(jobs):
    """The cycle:7 analyze job every workload carries."""
    return [j for j in jobs if j.name.startswith("analyze") and j.name.endswith(":cycle:7")]


def _check_schema(result, kind):
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["attempted"] == 1 and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for v in result["metrics"].values():
        assert isinstance(v["value"], (int, float))


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_end_to_end_schema(workload, monkeypatch):
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    out = run.run(workload, seed=7, seconds=1, trace=False, jobs_filter=_tiny)
    _check_schema(out["result"], "end_to_end")
    assert [j["status"] for j in out["report"]["jobs"]] == ["ok"]
    assert out["report"]["environment"]["nproc"] >= 1


def test_traced_run_reports_every_layer():
    out = run.run("theta-sdp", seed=7, seconds=1, trace=True, jobs_filter=_tiny)
    spans = run.ROOT / out["report"]["spans_file"]
    assert all(json.loads(line)["job"] for line in spans.read_text().splitlines())
    spans.unlink()
    _check_schema(out["result"], "per_layer")
    metrics = out["result"]["metrics"]
    assert metrics["theta.sdp.calls"]["value"] >= 1
    assert metrics["exact.chromatic.calls"]["value"] == 1


def test_missing_sources_exit_nonzero(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path)
    assert run.main(["--workload", "theta-sdp", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_same_seed_same_inputs(tmp_path):
    builds = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        jobs = run.workloads.build("theta-sdp", 3, run.FIXTURES, tmp_path / sub)
        files = {p.name: p.read_text() for p in (tmp_path / sub).iterdir()}
        builds.append(([j.name for j in jobs], files))
    assert builds[0] == builds[1]
    assert "rr24-4.g6" in builds[0][1]


def test_killed_worker_keeps_its_peak_rss(tmp_path):
    warm = tmp_path / "warm.g6"
    warm.write_text(run.workloads.to_graph6(run.workloads.cycle(6)) + "\n")
    worker = run.Worker(False, warm)
    worker.kill()
    assert worker.proc.returncode != 0 and worker.rss_mb > 10


def test_reference_check_needs_every_requested_task(capsys):
    sys.path.insert(0, str(run.SRC))
    from thetakit import cli

    job = run.workloads._analyze("petersen", run.workloads.catalog_refs(run.FIXTURES))
    assert cli.main(job.spec["cli"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert job.check({"stdout": json.dumps(out)}) == (True, False)
    out["tasks"]["ramanujan"]["is_ramanujan"] = False
    assert job.check({"stdout": json.dumps(out)})[0] is False
    del out["tasks"]["ramanujan"]
    assert job.check({"stdout": json.dumps(out)})[0] is False
