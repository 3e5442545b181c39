"""Benchmark worker: imports thetakit, warms up, then runs jobs sent by run.py.

Protocol: one JSON object per line. The worker announces {"ready": true}
once thetakit.cli is imported and the warm-up commands have finished, sends
one {"environment": ...} line, answers each {"job": ...} line with one
result line, and exits on {"exit": 1}; run.py reads its peak RSS when it
reaps it. Job output (stdout/stderr of CLI commands) is captured, so only
protocol lines reach the channel.

Usage: python3 worker.py <src dir> <trace 0|1> <warm-up graph6 file>
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import sys
import time
import traceback


def _blas_info() -> list:
    """BLAS libraries mapped into this process, with their thread counts."""
    out, seen = [], set()
    try:
        with open("/proc/self/maps") as fh:
            paths = [ln.split()[-1] for ln in fh if ".so" in ln]
    except OSError:
        return out
    for path in paths:
        base = os.path.basename(path).lower()
        if path in seen or not any(k in base for k in ("openblas", "mkl_rt", "blis")):
            continue
        seen.add(path)
        row = {"library": os.path.basename(path), "threads": None, "config": None}
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads", "MKL_Get_Max_Threads",
                    "bli_thread_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                row["threads"] = fn()
                break
        for sym in ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                    "openblas_get_config64_", "openblas_get_config"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                row["config"] = fn().decode()
                break
        out.append(row)
    return out


def _environment() -> dict:
    import numpy
    import scipy
    from thetakit import spectra
    try:
        import numba  # noqa: F401
        numba_ok = True
    except ImportError:
        numba_ok = False
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_info(),
        "numba_importable": numba_ok,
        "eigensolver": "numba-jacobi" if spectra._HAVE_NUMBA else "python-jacobi",
    }


def _graph(spec: str):
    from thetakit import graphs
    name, *args = spec.split(":")
    return getattr(graphs, name)(*map(int, args))


def _graph_summary(g) -> dict:
    degs = g.degrees()
    return {"n": g.n, "edges": g.edge_count(),
            "degree_min": int(degs.min()), "degree_max": int(degs.max())}


def _lib_call(fn: str, args: list) -> dict:
    """Library jobs: one public thetakit call each, summarized as JSON."""
    from thetakit import exact, graphs, products, theta
    if fn == "random_regular":
        return _graph_summary(graphs.random_regular(*args))
    if fn == "strong_power":
        return _graph_summary(products.strong_power(_graph(args[0]), args[1]))
    if fn == "capacity_power_lb":
        bound, res = exact.capacity_power_lb(_graph(args[0]), args[1], args[2])
        return {"bound": bound, "alpha": res.value, "lower": res.lower,
                "upper": res.upper, "status": res.status}
    if fn == "theta_best_power":
        est = theta.theta_best(products.strong_power(_graph(args[0]), args[1]))
        b = est.bounds
        return {"method": est.method, "value": est.value,
                "lower": b.lower if b else None, "upper": b.upper if b else None}
    raise ValueError(f"unknown library job {fn!r}")


def _run_cli(argv) -> tuple:
    from thetakit import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            rc = exc.code if isinstance(exc.code, int) else 1
    return rc, out.getvalue(), err.getvalue()


def _run_job(job: dict, tracer) -> dict:
    reply = {"rc": None, "stdout": "", "stderr": "", "summary": None, "error": None}
    if tracer is not None:
        tracer.begin_job(job["name"])
    reply["t0"] = t0 = time.perf_counter()
    try:
        if "cli" in job:
            reply["rc"], reply["stdout"], reply["stderr"] = _run_cli(job["cli"])
        else:
            reply["summary"] = _lib_call(job["lib"], job["args"])
    except Exception:  # a crash is a recorded job failure; keep serving
        reply["error"] = traceback.format_exc(limit=4)
    reply["t1"] = time.perf_counter()
    reply["seconds"] = reply["t1"] - t0
    payload = reply["stdout"] if "cli" in job else json.dumps(reply["summary"], sort_keys=True)
    reply["digest"] = hashlib.sha256(payload.encode()).hexdigest()[:16]
    if tracer is not None:
        reply["spans"] = tracer.job_spans()
    return reply


def main() -> int:
    src, trace, warm_g6 = sys.argv[1], sys.argv[2] == "1", sys.argv[3]
    # protocol lines go to the original stdout; anything else that writes
    # to file descriptor 1 lands on stderr instead
    chan = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)
    sys.path.insert(0, src)
    import thetakit.cli  # noqa: F401  (paid in set-up, like a CLI start)
    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    for argv in (["analyze", "--g6", warm_g6, "--budget", "5", "--exact-chi", "--tasks",
                  "spectrum,theta,srg,ramanujan,product-bounds,chromatic-bounds,capacity,k0"],
                 ["power", "--gen", "cycle:5", "-k", "2", "--materialize"]):
        rc, _, err = _run_cli(argv)
        if rc != 0:
            print(f"warm-up {argv} exited {rc}: {err}", file=sys.stderr)
            return 3
    chan.write(json.dumps({"ready": True}) + "\n")
    chan.write(json.dumps({"environment": _environment()}) + "\n")
    for line in sys.stdin:
        msg = json.loads(line)
        if "exit" in msg:
            return 0
        chan.write(json.dumps(_run_job(msg["job"], tracer)) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
