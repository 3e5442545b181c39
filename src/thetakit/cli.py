"""Batch command-line front-end.

Subcommands: analyze (per-graph tasks), power (strong-power table),
catalog (available graphs). Machine output is deterministic JSON with
floats at 12 significant digits; exit code 0 on success, 1 on input
errors, 2 when an inequality that should be a theorem is observed
violated (that signals an implementation bug, so it is loud).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from . import catalog
from .bounds import (
    FactorProducts,
    chromatic_lb_strong_product,
    make_report,
    non_ramanujan_k0,
    wei_bounds,
)
from .exact import DEFAULT_BUDGET, capacity_certificate, chromatic_number
from .graphs import Graph, within_budget
from .io import read_edge_list, read_graph6
from .products import power_extremes, power_spectrum, strong_power
from .spectra import eigensolve_bytes, eigenvalues, ramanujan_verdict
from .srg import srg_check, srg_params_feasible
from .theta import (THETA_TOL, alpha_ceiling, theta_bounds_complement,
                    theta_bounds_regular, theta_best, theta_srg)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VIOLATION = 2


def _f(x):
    """Round to 12 significant digits for deterministic printing."""
    return float(f"{float(x):.12g}")


# json.dumps's text for the floats that repr writes differently
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _write(obj, out: list, pad: str) -> None:
    """Append obj's JSON to out, as json.dumps(obj, indent=2) writes it,
    with pad the newline and indent of obj's line. Floats are rounded by
    _f, a whole Fraction is an int and any other a rounded float, tuples
    are lists and numpy scalars their Python values; dict keys are str."""
    if isinstance(obj, str):
        out.append(_quote(obj))
    elif isinstance(obj, float):
        text = float.__repr__(_f(obj))
        out.append(_NONFINITE.get(text, text))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{" + inner
        for key, value in obj.items():
            out.append(sep + _quote(key) + ": ")
            _write(value, out, inner)
            sep = "," + inner
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = pad + "  "
        sep = "[" + inner
        for value in obj:
            out.append(sep)
            _write(value, out, inner)
            sep = "," + inner
        out.append(pad + "]")
    elif isinstance(obj, Fraction):
        _write(int(obj) if obj.denominator == 1 else float(obj), out, pad)
    elif hasattr(obj, "item"):
        _write(obj.item(), out, pad)
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _dumps(obj) -> str:
    out = []
    _write(obj, out, "\n")
    return "".join(out)


def _use_color(stream) -> bool:
    return stream.isatty() and not os.environ.get("NO_COLOR")


def _render_table(rows, header, stream):
    if not rows:
        return
    cols = len(header)
    widths = [len(str(header[i])) for i in range(cols)]
    srows = [[str(c) for c in r] for r in rows]
    for r in srows:
        for i, c in enumerate(r):
            widths[i] = max(widths[i], len(c))
    if _use_color(stream):
        head = "  ".join(f"\x1b[1m{str(header[i]).ljust(widths[i])}\x1b[0m"
                         for i in range(cols))
    else:
        head = "  ".join(str(header[i]).ljust(widths[i]) for i in range(cols))
    print(head, file=stream)
    print("  ".join("-" * w for w in widths), file=stream)
    for r in srows:
        print("  ".join(r[i].ljust(widths[i]) for i in range(cols)), file=stream)


def _load_source(args) -> Graph:
    if getattr(args, "gen", None):
        return catalog.load(args.gen)
    if getattr(args, "g6", None):
        return read_graph6(args.g6)
    if getattr(args, "edges", None):
        return read_edge_list(args.edges)
    raise ValueError("no graph source: use --gen, --g6, or --edges")


# -- analyze tasks ----------------------------------------------------


def _task_spectrum(g, _args):
    s = eigenvalues(g)
    out = {
        "n": g.n,
        "edges": g.edge_count(),
        "regular": g.is_regular(),
        "connected": g.is_connected(),
        "eigenvalues": [{"value": v, "multiplicity": m} for v, m in s.groups],
    }
    if g.n >= 1:
        out["lambda_max"] = s.largest()
        out["lambda_min"] = s.smallest()
    if g.n >= 2:
        out["lambda2"] = s.second_largest()
    if g.is_regular():
        out["degree"] = g.degree()
    return out, []


def _task_srg(g, _args):
    p = srg_check(g)
    if p is None:
        return {"strongly_regular": False}, []
    feas = srg_params_feasible(p)
    out = {
        "strongly_regular": True,
        "params": list(p.as_tuple()),
        "complement_params": list(p.complement().as_tuple()),
        "restricted_eigenvalues": [feas.p1, feas.p2],
        "multiplicities": None if feas.m1 is None else [feas.m1, feas.m2],
        "conference_case": feas.conference,
    }
    return out, []


def _theta_payload(est):
    out = {"method": est.method}
    if est.value is not None:
        out["theta"] = est.exact if est.exact is not None else est.value
    if est.bounds is not None:
        out["spectral_lower"] = est.bounds.lower
        out["spectral_upper"] = est.bounds.upper
    return out


def _task_theta(g, args):
    est = theta_best(g)
    out = _theta_payload(est)
    reports = []
    if g.is_regular() and 0 < g.degree() < g.n - 1:
        s = eigenvalues(g)
        n, d = g.n, g.degree()
        l2, lmin = s.second_largest(), s.smallest()
        b = theta_bounds_regular(n, d, l2, lmin)
        cb = theta_bounds_complement(n, d, l2, lmin)
        out["complement_lower"] = cb.lower
        out["complement_upper"] = cb.upper
        reports.append(make_report("theta-spectral-bounds-ordered",
                                   b.lower, b.upper, "<="))
        if est.value is not None:
            reports.append(make_report("theta-above-spectral-lower",
                                       b.lower, float(est.value) + THETA_TOL, "<="))
            reports.append(make_report("theta-below-spectral-upper",
                                       float(est.value) - THETA_TOL, b.upper, "<="))
    p = srg_check(g)
    if p is not None:
        out["theta_complement"] = theta_srg(p)[1]
    return out, reports


def _ramanujan_inapplicable(g, k: int = 1):
    """Why no Ramanujan statement applies to g's k-th strong power, or None:
    one needs a connected regular graph of degree >= 2 (Lubotzky, Phillips &
    Sarnak 1988), and G^k is so exactly when G is, with degree (d+1)^k - 1."""
    if not g.is_regular():
        return "graph is not regular"
    if (g.degree() + 1) ** k < 3:
        return "degree < 2"
    if not g.is_connected():
        return "graph is disconnected"
    return None


def _task_ramanujan(g, _args):
    reason = _ramanujan_inapplicable(g)
    if reason is not None:
        return {"applicable": False, "reason": reason}, []
    v = ramanujan_verdict(power_extremes(eigenvalues(g), 1)[2], g.degree())
    return {
        "applicable": True,
        "is_ramanujan": v.is_ramanujan,
        "lambda": v.lam,
        "threshold": v.threshold,
        "margin": v.margin,
    }, []


def _task_product_bounds(g, args):
    if not g.is_regular():
        return {"applicable": False, "reason": "graph is not regular"}, []
    k = args.power
    n, d = g.n, g.degree()
    if not 0 < d:
        return {"applicable": False, "reason": "empty graph"}, []
    s = eigenvalues(g)
    try:
        l2p, lminp, _ = power_extremes(s, k)
        est = theta_best(g)
        if est.value is None:
            return {"applicable": False,
                    "reason": "theta not determined for factor"}, []
        reports = []
        if d < n - 1:
            factor = (n, d, float(est.value), s.smallest())
            reports = FactorProducts.of([factor] * k).reports(l2p, lminp)
    except OverflowError as exc:
        raise ValueError(f"--power {k} leaves float range") from exc
    out = {
        "k": k,
        "product_order": n ** k,
        "product_degree": (d + 1) ** k - 1,
        "lambda2": l2p,
        "lambda_min": lminp,
        "theta_factor": float(est.value),
        "reports": [r.as_dict() for r in reports],
    }
    return out, reports


def _task_chromatic_bounds(g, args):
    est = theta_best(g)
    out = {}
    reports = []
    n = g.n
    alpha_lb, omega_lb = wei_bounds(g.degrees())
    out["wei_independence_lower"] = alpha_lb
    out["wei_clique_lower"] = omega_lb
    if est.value is not None and est.value > 0:
        # chi >= n/theta holds with theta's upper end, chi(complement) >=
        # theta only with its lower end: an optimizer's upper end can sit
        # its gap above an integer theta
        chi_lb, _ = chromatic_lb_strong_product([(n, float(est.value))])
        _, chi_complement_lb = chromatic_lb_strong_product([(n, est.lower)])
        out["chi_lower_from_theta"] = chi_lb
        out["chi_complement_lower_from_theta"] = chi_complement_lb
    if g.is_regular() and 0 < g.degree() < n - 1:
        s = eigenvalues(g)
        cb = theta_bounds_complement(n, g.degree(), s.second_largest(),
                                     s.smallest())
        # chi(G) >= theta(complement) >= 1 - d/lmin (Hoffman), and
        # omega(G) <= theta(complement) <= n(1+l2)/(n-d+l2)
        out["chi_lower_regular"] = chromatic_lb_strong_product([(n, cb.lower)])[1]
        out["haemers_clique_upper"] = cb.upper
    p = srg_check(g)
    if p is not None:
        out["chromatic_factor_srg"] = float(theta_srg(p)[1])
    if args.exact_chi:
        res = chromatic_number(g, args.budget,
                               lower=out.get("chi_lower_from_theta", 0),
                               alpha_upper=alpha_ceiling(est.value))
        out["chi"] = res.value
        out["chi_interval"] = [res.lower, res.upper]
        out["chi_status"] = res.status
        if res.status == "exact" and "chi_lower_from_theta" in out:
            reports.append(make_report("chi-at-least-n-over-theta",
                                       out["chi_lower_from_theta"],
                                       res.value, "<="))
    return out, reports


def _task_capacity(g, args):
    est = theta_best(g)
    if est.value is None:
        return {"status": "unknown-theta"}, []
    cert = capacity_certificate(g, float(est.value), args.budget)
    out = {
        "theta": float(est.value),
        "theta_method": est.method,
        "status": cert.status,
        "alpha": cert.alpha,
        "alpha_status": cert.alpha_result.status,
    }
    if cert.capacity is not None:
        out["capacity"] = cert.capacity
    reports = []
    if cert.alpha is not None:
        reports.append(make_report("alpha-at-most-theta", float(cert.alpha),
                                   float(est.value) + THETA_TOL, "<="))
    return out, reports


def _task_k0(g, args):
    if not g.is_regular():
        return {"applicable": False, "reason": "graph is not regular"}, []
    n, d = g.n, g.degree()
    if not 0 < d < n - 1:
        return {"applicable": False, "reason": "degenerate degree"}, []
    # the statements are about the powers k >= k0 >= 3
    reason = _ramanujan_inapplicable(g, 3)
    if reason is not None:
        return {"applicable": False, "reason": reason}, []
    est = theta_best(g)
    if est.value is None:
        return {"applicable": False, "reason": "theta not determined"}, []
    t = float(est.value)
    threshold = n / math.sqrt(d + 1.0)
    out = {"theta": t, "threshold_n_over_sqrt_d1": threshold}
    if t >= threshold:
        out["applicable"] = False
        out["reason"] = "requires theta < n/sqrt(d+1)"
        return out, []
    out["applicable"] = True
    out["k0"] = non_ramanujan_k0(n, d, t)
    return out, []


_TASK_FNS = {
    "spectrum": _task_spectrum,
    "theta": _task_theta,
    "srg": _task_srg,
    "ramanujan": _task_ramanujan,
    "product-bounds": _task_product_bounds,
    "chromatic-bounds": _task_chromatic_bounds,
    "capacity": _task_capacity,
    "k0": _task_k0,
}
TASKS = tuple(_TASK_FNS)


def _violations(reports):
    return [r.name for r in reports if not r.holds()]


def cmd_analyze(args) -> int:
    g = _load_source(args)
    tasks = [t.strip() for t in args.tasks.split(",") if t.strip()]
    bad = [t for t in tasks if t not in _TASK_FNS]
    if bad or not tasks:
        print(f"error: unknown tasks {bad}; choose from {', '.join(TASKS)}",
              file=sys.stderr)
        return EXIT_INPUT
    all_reports = []
    result = {
        "graph": {
            "name": g.meta.name or None,
            "n": g.n,
            "edges": g.edge_count(),
        },
        "tasks": {},
    }
    for t in tasks:
        payload, reports = _TASK_FNS[t](g, args)
        result["tasks"][t] = payload
        all_reports.extend(reports)
    viol = _violations(all_reports)
    result["violations"] = viol
    _emit(result, args)
    return EXIT_VIOLATION if viol else EXIT_OK


def cmd_power(args) -> int:
    if args.k < 1:
        raise ValueError("need k >= 1")
    g = _load_source(args)
    if not g.is_regular():
        print("error: power tables need a regular graph", file=sys.stderr)
        return EXIT_INPUT
    n, d = g.n, g.degree()
    if d == 0 or d == n - 1:
        # complete/empty factors stay complete/empty under strong powers.
        # Python 3.11+ refuses to print an int of more digits than its limit
        digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        too_long = 10 ** digits if digits else math.inf
        rows = []
        for k in range(1, args.k + 1):
            order = n ** k
            if order >= too_long:
                raise ValueError(f"row k = {k} has an order of more than "
                                 f"{digits} digits; -k {k - 1} is the "
                                 "largest power that fits")
            rows.append({"k": k, "order": order})
        result = {"graph": {"name": g.meta.name or None, "n": n},
                  "trivial": "complete" if d == n - 1 else "empty",
                  "rows": rows, "violations": []}
        _emit(result, args)
        return EXIT_OK
    s = eigenvalues(g)
    # one answer for every row: G^k is connected exactly when G is
    ramanujan = _ramanujan_inapplicable(g) is None
    est = theta_best(g)
    theta = float(est.value) if est.value is not None else None
    # the factor's products, multiplied into the running ones once per row
    one = (FactorProducts.of([(n, d, theta, s.smallest())])
           if theta is not None else None)
    products, closed = FactorProducts(), 1
    rows = []
    all_reports = []
    try:
        for k in range(1, args.k + 1):
            closed *= d + 1
            dk = closed - 1
            l2, lmin, lam = power_extremes(s, k)
            row = {
                "k": k,
                "order": n ** k,
                "degree": dk,
                "lambda2": l2,
                "lambda_min": lmin,
            }
            if ramanujan:
                verdict = ramanujan_verdict(lam, dk)
                row["alon_boppana"] = verdict.threshold
                row["is_ramanujan"] = verdict.is_ramanujan
                row["lambda_nontrivial"] = verdict.lam
            if one is not None:
                products = products * one
                reports = products.reports(l2, lmin)
                row["eig2_lower"] = reports[0].lhs
                row["eigmin_upper"] = reports[1].rhs
                all_reports.extend(reports)
            if args.materialize and within_budget(eigensolve_bytes(n ** k)):
                dense = eigenvalues(strong_power(g, k))
                row["lambda2_dense"] = dense.second_largest()
                row["lambda_min_dense"] = dense.smallest()
            rows.append(row)
    except OverflowError as exc:
        # the rows grow with k, so the first that overflows ends the ones that fit
        raise ValueError(f"row k = {k} leaves float range; "
                         f"-k {k - 1} is the largest power that fits") from exc
    viol = _violations(all_reports)
    result = {
        "graph": {"name": g.meta.name or None, "n": n, "degree": d},
        "theta_factor": theta,
        "rows": rows,
        "violations": viol,
    }
    _emit(result, args, table=lambda: _power_table(rows))
    return EXIT_VIOLATION if viol else EXIT_OK


def _power_table(rows):
    header = ["k", "order", "degree", "lambda2", "eig2_lower", "lambda_min",
              "eigmin_upper", "alon_boppana", "ramanujan"]
    out = []
    for r in rows:
        out.append([
            r["k"], r["order"], r["degree"],
            f"{r['lambda2']:.4f}",
            f"{r['eig2_lower']:.4f}" if "eig2_lower" in r else "-",
            f"{r['lambda_min']:.4f}",
            f"{r['eigmin_upper']:.4f}" if "eigmin_upper" in r else "-",
            f"{r['alon_boppana']:.4f}" if "alon_boppana" in r else "-",
            ("yes" if r["is_ramanujan"] else "no") if "is_ramanujan" in r else "-",
        ])
    return header, out


def cmd_catalog(args) -> int:
    entries = catalog.entries()
    result = {"entries": []}
    rows = []
    for e in entries:
        item = {
            "name": e.name,
            "kind": e.kind,
            "description": e.description,
        }
        if e.example:
            item["example"] = e.example
        if e.order:
            item["order"] = e.order
        if e.srg:
            item["srg"] = list(e.srg)
        if e.flags:
            item["flags"] = dict(sorted(e.flags.items()))
        if e.expected:
            item["expected"] = dict(sorted(e.expected.items()))
        if e.source:
            item["source"] = e.source
        result["entries"].append(item)
        known = ", ".join(f"{k}={v}" for k, v in sorted(e.expected.items()))
        rows.append([e.name, e.kind,
                     "x".join(map(str, e.srg)) if e.srg else "-",
                     known or "-"])
    _emit(result, args, table=lambda: (["name", "kind", "srg", "known values"], rows))
    return EXIT_OK


def _emit(result, args, table=None):
    """Print result as JSON, or as the table that `table()` returns (header,
    rows) when there is one and --json is not given; --out also writes the
    JSON to a file."""
    out_path = getattr(args, "out", None)
    as_json = table is None or getattr(args, "json", False)
    if out_path or as_json:
        payload = _dumps(result)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(payload + "\n")
    if as_json:
        print(payload)
        return
    header, rows = table()
    _render_table(rows, header, sys.stdout)
    if result.get("violations"):
        print(f"VIOLATED: {', '.join(result['violations'])}", file=sys.stderr)


# -- bundled reproduction suite ---------------------------------------


def _examples_spec():
    """The quick bundled reproductions: (name, callable -> (got, want, ok))."""
    from .graphs import complete, cycle, disjoint_union, empty, petersen
    from .srg import SrgParams
    from .bounds import g_sequence, k0_self_complementary_vt
    from .theta import theta_exact

    def srg_case(tup, want):
        def run():
            t, _ = theta_srg(SrgParams(*tup))
            ok = isinstance(t, Fraction) and t == want
            return t, want, ok
        return run

    cases = []
    for tup, want in [((10, 3, 0, 1), 4), ((16, 6, 2, 2), 4),
                      ((100, 36, 14, 12), 10), ((50, 7, 0, 1), 15),
                      ((27, 16, 10, 8), 3), ((56, 10, 0, 2), 16),
                      ((77, 16, 0, 4), 21), ((231, 30, 9, 3), 21),
                      ((28, 12, 6, 4), 4)]:
        cases.append((f"theta closed form {tup}", srg_case(tup, want)))

    def theta_c5():
        got = theta_exact(cycle(5))
        want = math.sqrt(5.0)
        return got, want, abs(got - want) < 1e-5
    cases.append(("theta(C5) = sqrt(5)", theta_c5))

    def theta_pet():
        got = theta_exact(petersen())
        return got, 4.0, abs(got - 4.0) < 1e-5
    cases.append(("theta(Petersen) = 4", theta_pet))

    def power_table():
        s = eigenvalues(cycle(5))
        got = [power_extremes(s, k)[0] for k in range(1, 6)]
        oracle = [power_spectrum(s, k).second_largest() for k in range(1, 6)]
        want = [0.6180, 3.8541, 13.5623, 42.6869, 130.0608]
        ok = all(abs(a - b) < 5e-4 for a, b in zip(got, want)) and all(
            abs(a - b) <= 1e-12 * abs(b) for a, b in zip(got, oracle))
        return [round(x, 4) for x in got], want, ok
    cases.append(("second eigenvalue of C5 strong powers", power_table))

    def k0_table():
        got = [k0_self_complementary_vt(n) for n in (5, 9, 13, 17, 21)]
        want = [5, 4, 3, 3, 3]
        return got, want, got == want
    cases.append(("k0 for self-complementary vertex-transitive orders",
                  k0_table))

    def gseq():
        g = disjoint_union(complete(2), complete(2), complete(2))
        got = tuple(round(v, 6) for v in g_sequence(g).values)
        want = (3.0, -1.0, -1.0, 1.0, -1.0, -1.0)
        return got, want, got == want
    cases.append(("g-sequence of 3 disjoint edges", gseq))

    def affine():
        from .bounds import affine_polar_params
        got = [affine_polar_params(e, q, "+").theta
               for e, q in [(2, 2), (3, 2), (2, 3), (3, 3)]]
        want = [4.0, 8.0, 9.0, 27.0]
        return got, want, got == want
    cases.append(("affine polar + type theta values", affine))

    def factors():
        got = [round(float(theta_srg(SrgParams(*t))[1]), 6) for t in
               [(27, 16, 10, 8), (16, 6, 2, 2), (100, 36, 14, 12),
                (1782, 416, 100, 96), (28, 12, 6, 4)]]
        want = [9.0, 4.0, 10.0, 27.0, 7.0]
        return got, want, got == want
    cases.append(("chromatic factor values for named parameter sets",
                  factors))

    def empty_theta():
        got = theta_exact(empty(7))
        return got, 7.0, abs(got - 7.0) < 1e-9
    cases.append(("theta of edgeless graph is its order", empty_theta))

    return cases


def cmd_examples(_args) -> int:
    cases = _examples_spec()
    failures = 0
    for name, fn in cases:
        try:
            got, want, ok = fn()
        except Exception as exc:  # a crash is a failure, keep going
            print(f"FAIL {name}: {exc!r}")
            failures += 1
            continue
        tag = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        print(f"{tag} {name}: got {got}, expected {want}")
    print(f"{len(cases) - failures}/{len(cases)} examples reproduced")
    return EXIT_OK if failures == 0 else EXIT_VIOLATION


# -- argument parsing -------------------------------------------------


def _add_source_args(p):
    src = p.add_mutually_exclusive_group()
    src.add_argument("--gen", help="generator or fixture spec, e.g. kneser:5:2")
    src.add_argument("--g6", help="path to a graph6 file")
    src.add_argument("--edges", help="path to an edge-list file")


def _add_common(p):
    p.add_argument("--json", action="store_true", help="print JSON to stdout")
    p.add_argument("--out", help="also write JSON to this path")
    p.add_argument("--budget", type=float, default=DEFAULT_BUDGET,
                   help="time budget in seconds for exact solvers")


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: `parse_args` returns a fresh
    namespace on every call, so no parsed state is kept between calls."""
    ap = argparse.ArgumentParser(
        prog="thetakit",
        description="Spectral bounds, theta values, and capacity "
                    "certificates for graphs and their strong products.")
    ap.add_argument("--paper-examples", action="store_true",
                    help="run the bundled reproduction suite and print "
                         "one pass/fail line per example")
    sub = ap.add_subparsers(dest="command")

    pa = sub.add_parser("analyze", help="run analysis tasks on one graph")
    _add_source_args(pa)
    _add_common(pa)
    pa.add_argument("--tasks", default="spectrum,theta",
                    help=f"comma-separated subset of: {', '.join(TASKS)}")
    pa.add_argument("--power", type=int, default=2,
                    help="power used by the product-bounds task")
    pa.add_argument("--exact-chi", action="store_true",
                    help="also run the exact coloring solver")
    pa.set_defaults(fn=cmd_analyze)

    pp = sub.add_parser("power", help="strong-power table for one graph")
    _add_source_args(pp)
    _add_common(pp)
    pp.add_argument("-k", type=int, default=5, help="largest power")
    pp.add_argument("--materialize", action="store_true",
                    help="cross-check small powers against a dense eigensolve")
    pp.set_defaults(fn=cmd_power)

    pc = sub.add_parser("catalog", help="list generators and fixtures")
    pc.add_argument("--json", action="store_true")
    pc.add_argument("--out", help="also write JSON to this path")
    pc.set_defaults(fn=cmd_catalog)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, the code of a violated theorem;
        # --help exits 0
        return EXIT_INPUT if exc.code else EXIT_OK
    if args.paper_examples:
        return cmd_examples(args)
    if not getattr(args, "command", None):
        ap.print_help()
        return EXIT_INPUT
    try:
        return args.fn(args)
    except (ValueError, OSError, KeyError, OverflowError) as exc:
        # bad input, a dense allocation refused by the byte budget, or, as a
        # backstop behind the power commands' own messages, float overflow
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
