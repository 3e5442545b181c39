"""thetakit benchmark: run one workload from a seed and print its metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload catalog-analyze --seed 1 --seconds 30 --trace 0

The load is a closed loop: one worker process runs the workload's jobs one
after another. Each run starts fresh workers (so no cache outlives the run),
checks every job's output against references computed by the benchmark
itself, and prints as its last stdout line one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports the
end-to-end metrics; `--trace 1` runs the job list once untraced and once
with every thetakit layer wrapped in spans, and reports per-layer metrics.
The line before it records the environment and every job (time, status,
digest of its deterministic output). See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = SRC / "thetakit" / "fixtures"
SETUP_SAMPLES = 3  # fresh workers timed per run; setup_s is their median
RUN_DEADLINE_S = 165.0  # every job still unfinished by then is recorded as failed

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from tracing import LAYERS, job_layers, merge_counters  # noqa: E402


class WorkerDied(Exception):
    pass


class Worker:
    """One fresh worker process; `setup_s` runs from spawn to its ready line."""

    def __init__(self, trace: bool, warm_g6: Path):
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(SRC), "1" if trace else "0",
             str(warm_g6)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT)
        self._buf = b""
        self.rss_mb = None  # ru_maxrss once reaped
        try:
            self.read(120.0)  # the ready line
            self.setup_s = time.perf_counter() - t0
            self.environment = self.read(30.0)["environment"]
        except BaseException:
            self.kill()
            raise

    def read(self, timeout: float) -> dict:
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise TimeoutError
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                raise WorkerDied("worker closed its channel")
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return json.loads(line)

    def send(self, msg: dict) -> None:
        self.proc.stdin.write((json.dumps(msg) + "\n").encode())
        self.proc.stdin.flush()

    def close(self) -> None:
        """Ask the worker to exit, then reap it (killing it after 30 s)."""
        try:
            self.send({"exit": 1})
            self.proc.stdin.close()
            deadline = time.monotonic() + 30.0
            while not self._reap(os.WNOHANG) and time.monotonic() < deadline:
                time.sleep(0.01)
        except OSError:
            pass
        finally:
            self.kill()

    def kill(self) -> None:
        """Kill the worker if it still runs and reap it, keeping its peak RSS.

        Reaping goes through os.wait4, never Popen.poll/wait, so that the
        rusage of a worker killed at a ceiling or by the kernel is kept."""
        if self.rss_mb is None:
            try:
                os.kill(self.proc.pid, signal.SIGKILL)  # unreaped, so the pid is still ours
            except ProcessLookupError:
                pass
            self._reap(0)
        for pipe in (self.proc.stdin, self.proc.stdout):
            pipe.close()

    def _reap(self, flags: int) -> bool:
        if self.rss_mb is None:
            pid, status, usage = os.wait4(self.proc.pid, flags)
            if pid == 0:
                return False
            self.proc.returncode = os.waitstatus_to_exitcode(status)
            self.rss_mb = usage.ru_maxrss / 1024.0  # kB on Linux
        return True


def run_pass(jobs, trace: bool, warm_g6: Path, deadline: float) -> dict:
    """Run every job once, in order, in fresh workers (a new one after a kill).

    A job killed at its ceiling or at the run deadline, or skipped because
    the deadline has passed, counts as failed at its full ceiling, so that
    a slower program never reads as faster."""
    results, workers, env = [], [], None
    worker = None
    try:
        for job in jobs:
            left = deadline - time.monotonic()
            if left <= 0:
                results.append({"job": job, "status": "skipped", "seconds": job.ceiling_s})
                continue
            if worker is None:
                worker = Worker(trace, warm_g6)
                workers.append(worker)
                env = env or worker.environment
            t0 = time.perf_counter()
            try:
                worker.send({"job": {"name": job.name, **job.spec}})
                reply = worker.read(min(job.ceiling_s, left))
            except TimeoutError:
                worker.kill()
                worker = None
                results.append({"job": job, "status": "ceiling", "seconds": job.ceiling_s})
                continue
            except (WorkerDied, BrokenPipeError):
                worker.kill()
                worker = None
                results.append({"job": job, "status": "crashed",
                                "seconds": time.perf_counter() - t0})
                continue
            results.append(judge(job, reply))
        if worker is not None:
            worker.close()
    finally:
        for w in workers:
            w.kill()
    return {"results": results, "rss_mb": max((w.rss_mb for w in workers), default=0.0),
            "setups": [w.setup_s for w in workers], "environment": env}


def judge(job, reply: dict) -> dict:
    """Classify one job: ok, error, exit code, or a reference miss."""
    out = {"job": job, "seconds": reply["seconds"], "digest": reply["digest"],
           "reply": reply, "undetermined": False}
    if reply["error"] is not None:
        out["status"] = "error"
        out["detail"] = reply["error"].strip().splitlines()[-1]
    elif reply["rc"] not in (None, 0):
        out["status"] = f"exit-{reply['rc']}"
        out["detail"] = reply["stderr"].strip()[-200:]
    else:
        try:
            ok, undetermined = job.check(reply)
        except (KeyError, ValueError, TypeError, IndexError) as exc:
            ok, undetermined = False, False
            out["detail"] = f"unreadable output: {exc!r}"
        out["status"] = "ok" if ok else "reference-miss"
        out["undetermined"] = undetermined
    return out


def end_to_end(pas: dict, setup_s: float) -> dict:
    res = pas["results"]
    times = [r["seconds"] for r in res]
    return _with_units({
        "setup_s": setup_s,
        "wall_s": sum(times),
        "job_s.median": statistics.median(times),
        "job_s.max": max(times),
        "peak_rss_mb": pas["rss_mb"],
        "failed_share": sum(r["status"] != "ok" for r in res) / len(res),
        "undetermined_share": sum(r["undetermined"] for r in res) / len(res),
    }, "end_to_end")


def _with_units(values: dict, kind: str) -> dict:
    """Attach each metric's unit from BENCHMARK.json, which must name exactly these."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    if sorted(values) != sorted(m["name"] for m in spec):
        raise RuntimeError(f"{kind} metrics differ from BENCHMARK.json")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def per_layer(traced: dict, untraced: dict) -> tuple:
    """Per-layer metrics from a traced pass's spans, and whether every job's
    spans were consistent (see tracing.job_layers).

    `cli.self_s` is a job's time outside every span and its probe, so per
    job the layer self times, `cli.self_s` and the probe time add up to the
    job's traced wall time by construction."""
    tot = {name: {"calls": 0, "self_s": 0.0} for name, _, _ in LAYERS}
    cli_self = json_bytes = 0.0
    consistent = True
    for r in traced["results"]:
        reply = r.get("reply")
        if reply is None:
            continue
        layers, covered, ok = job_layers(reply["spans"], reply["t0"], reply["t1"])
        consistent &= ok
        cli_self += reply["seconds"] - covered
        json_bytes += len(reply["stdout"].encode())
        for layer, row in layers.items():
            merge_counters(tot[layer], row)
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    m = {}
    for layer, _, _ in LAYERS:
        m[f"{layer}.calls"] = tot[layer]["calls"]
        m[f"{layer}.self_s"] = tot[layer]["self_s"]
    t = tot  # short name for the lines below
    m["io.graph6.bytes"] = t["io.graph6"].get("bytes", 0)
    m["graphs.generate.failed"] = t["graphs.generate"].get("failed", 0)
    m["products.spectrum.combos"] = t["products.spectrum"].get("combos", 0)
    m["products.materialize.vertices"] = t["products.materialize"].get("vertices", 0)
    m["products.materialize.bytes_computed"] = t["products.materialize"].get("bytes_computed", 0)
    eig = t["spectra.eigensolve"]
    m["spectra.eigensolve.n3_sum"] = eig.get("n3", 0)
    m["spectra.eigensolve.repeat_share"] = ratio(eig.get("repeats", 0), eig.get("keyed", 0))
    sdp = t["theta.sdp"]
    m["theta.sdp.iterations"] = sdp.get("iterations", 0)
    m["theta.sdp.s_per_iteration"] = ratio(sdp["self_s"], sdp.get("iterations", 0))
    m["theta.sdp.converged_share"] = ratio(sdp.get("converged", 0), sdp.get("results", 0))
    m["theta.sdp.gap_max"] = sdp.get("gap", 0.0)
    best = t["theta.best"]
    m["theta.best.repeat_share"] = ratio(best.get("repeats", 0), best.get("keyed", 0))
    for method in ("closed-form", "spectral-pinch", "optimizer", "interval"):
        m[f"theta.best.method.{method}"] = best.get(f"method.{method}", 0)
    srg = t["srg.check"]
    m["srg.check.repeat_share"] = ratio(srg.get("repeats", 0), srg.get("keyed", 0))
    solves = [t["exact.clique"], t["exact.chromatic"]]
    m["exact.timeout_share"] = ratio(sum(s.get("timeouts", 0) for s in solves),
                                     sum(s.get("solves", 0) for s in solves))
    m["exact.budget_share"] = ratio(sum(s.get("elapsed", 0.0) for s in solves),
                                    sum(s.get("budget", 0.0) for s in solves))
    m["cli.self_s"] = cli_self
    m["cli.json_bytes"] = json_bytes
    wall = lambda p: sum(r["seconds"] for r in p["results"])  # noqa: E731
    m["trace.overhead_s"] = wall(traced) - wall(untraced)
    return _with_units(m, "per_layer"), consistent


def _environment(worker_env: dict) -> dict:
    env = dict(worker_env or {})
    try:
        env["commit"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        env["commit"] = None
    h = hashlib.sha256()
    for p in sorted((SRC / "thetakit").rglob("*")):
        if p.is_file() and p.suffix in (".py", ".g6", ".json"):
            h.update(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes())
    env["source_sha256"] = h.hexdigest()
    return env


def job_rows(pas: dict) -> list:
    return [{"name": r["job"].name, "seconds": round(r["seconds"], 6), "status": r["status"],
             "undetermined": r.get("undetermined", False), "digest": r.get("digest"),
             **({"detail": r["detail"]} if "detail" in r else {})} for r in pas["results"]]


def run(workload: str, seed: int, seconds: int, trace: bool, jobs_filter=None) -> dict:
    """Run one workload; returns the report (environment, jobs) and the result."""
    start = time.monotonic()
    workdir = ROOT / ".perfbench" / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        jobs = workloads.build(workload, seed, FIXTURES, workdir)
        if jobs_filter is not None:
            jobs = jobs_filter(jobs)
        warm = workdir / "warm.g6"
        warm.write_text(workloads.to_graph6(workloads.cycle(6)) + "\n")
        deadline = start + RUN_DEADLINE_S
        if not trace:
            setups = []
            for _ in range(SETUP_SAMPLES - 1):
                w = Worker(False, warm)
                setups.append(w.setup_s)
                w.close()
            pas = run_pass(jobs, False, warm, deadline)
            setups += pas["setups"][:1]
            metrics = end_to_end(pas, statistics.median(setups))
            checked, consistent = pas, True
        else:
            untraced = run_pass(jobs, False, warm, start + RUN_DEADLINE_S / 2)
            pas = run_pass(jobs, True, warm, deadline)
            metrics, consistent = per_layer(pas, untraced)
            checked = {"results": pas["results"] + untraced["results"]}
            spans_file = ROOT / ".perfbench" / f"spans-{workload}-{seed}.jsonl"
            with open(spans_file, "w") as fh:
                for r in pas["results"]:
                    for span in r.get("reply", {}).get("spans", []):
                        fh.write(json.dumps(span) + "\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    res = pas["results"]
    misses = [r for r in checked["results"] if r["status"] == "reference-miss"]
    result = {
        "correct": not misses and consistent,
        "attempted": len(res),
        "failed": sum(r["status"] != "ok" for r in res),
        "metrics": metrics,
    }
    report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "spans_file": str(spans_file.relative_to(ROOT)) if trace else None,
              "environment": _environment(pas["environment"]), "jobs": job_rows(pas),
              "elapsed_s": time.monotonic() - start}
    return {"report": report, "result": result}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True,
                    help="measuring window the job lists are sized for")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "thetakit" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no thetakit sources under {SRC} or no BENCHMARK.json; "
              "run from the root of a full checkout",
              file=sys.stderr)
        return 2
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(out["report"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
