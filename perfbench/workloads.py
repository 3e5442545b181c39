"""The benchmark's workloads: seeded job lists with independent reference checks.

Every reference here is computed by the benchmark itself: its own graph
constructions and graph6 codec, numpy's LAPACK eigensolver, closed forms
from the literature (theta of odd cycles, of strongly regular and
edge-transitive graphs, Lovasz multiplicativity under strong products) and
published invariants. Nothing calls back into thetakit to decide whether
thetakit's answer is right.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

ALL_TASKS = "spectrum,theta,srg,ramanujan,product-bounds,chromatic-bounds,capacity,k0"
BUDGET = 5.0  # seconds granted to every exact solve
TOL = 1e-6

WORKLOADS = ("catalog-analyze", "theta-sdp", "strong-powers")
# random_regular(60, 6, s) succeeds for about a fifth of seeds, so each
# degree gets this many seeds: enough for failed_share to stay steady, and
# enough jobs that the median job of theta-sdp is always one of them
RR60_DRAWS = 16
# jobs expected to take at least this long are spread evenly through the
# run, so that the short jobs sample the machine's speed before, between
# and after them rather than in one stretch
LONG_JOB_S = 10.0


@dataclass
class Job:
    """One command: `spec` is {"cli": argv} or {"lib": name, "args": [...]}.

    `check(reply)` returns (matches its references, finished without a full
    answer). `expect_s` is the time measured on a 2-CPU machine; the
    ceiling sits far above it.
    """

    name: str
    spec: dict
    expect_s: float
    check: Callable[[dict], tuple]

    @property
    def ceiling_s(self) -> float:
        return max(30.0, 4.0 * self.expect_s)


# -- reference graphs, built without thetakit --------------------------


def _adj(n, edges) -> np.ndarray:
    a = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        a[u, v] = a[v, u] = True
    return a


def cycle(n):
    return _adj(n, [(i, (i + 1) % n) for i in range(n)])


def hypercube(k):
    n = 1 << k
    return _adj(n, [(v, v ^ (1 << b)) for v in range(n) for b in range(k)])


def kneser(m, r):
    sets = [frozenset(c) for c in itertools.combinations(range(m), r)]
    return _adj(len(sets), [(i, j) for i, j in itertools.combinations(range(len(sets)), 2)
                            if not sets[i] & sets[j]])


def paley(q):
    squares = {x * x % q for x in range(1, q)}
    return _adj(q, [(i, j) for i, j in itertools.combinations(range(q), 2)
                    if (j - i) % q in squares])


def shrikhande():
    gens = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}
    pts = [(x, y) for x in range(4) for y in range(4)]
    return _adj(16, [(i, j) for i, j in itertools.combinations(range(16), 2)
                     if ((pts[j][0] - pts[i][0]) % 4, (pts[j][1] - pts[i][1]) % 4) in gens])


def frucht():
    lcf = [-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2]
    return _adj(12, [(i, (i + 1) % 12) for i in range(12)]
                + [(i, (i + s) % 12) for i, s in enumerate(lcf)])


def strong_product(a, b):
    p = np.kron(a.astype(np.uint8) + np.eye(len(a), dtype=np.uint8),
                b.astype(np.uint8) + np.eye(len(b), dtype=np.uint8)).astype(bool)
    np.fill_diagonal(p, False)
    return p


def relabel(a, rng: random.Random):
    perm = list(range(len(a)))
    rng.shuffle(perm)
    return a[np.ix_(perm, perm)]


def random_regular(n, d, rng: random.Random):
    """Pairing model with rejection, independent of thetakit's generator."""
    while True:
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        pairs = {(min(u, v), max(u, v)) for u, v in zip(stubs[::2], stubs[1::2])}
        if len(pairs) == n * d // 2 and all(u != v for u, v in pairs):
            return _adj(n, pairs)


def to_graph6(a) -> str:
    n = len(a)
    bits = [int(a[i, j]) for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = [63 + int("".join(map(str, bits[i:i + 6])), 2) for i in range(0, len(bits), 6)]
    return bytes([63 + n] + body).decode()  # every graph here has n <= 62


def from_graph6(text: str):
    data = text.strip().encode()
    if data[0] == 126:
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        body = data[4:]
    else:
        n, body = data[0] - 63, data[1:]
    bits = [(c - 63) >> (5 - k) & 1 for c in body for k in range(6)]
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    return _adj(n, [p for p, bit in zip(pairs, bits) if bit])


def independence_number(a) -> int:
    """Exact alpha by branching on a vertex of largest degree (small graphs)."""
    n = len(a)
    nbr = [sum(1 << int(j) for j in np.nonzero(a[i])[0]) for i in range(n)]
    memo = {}

    def alpha(mask):
        if not mask:
            return 0
        if mask in memo:
            return memo[mask]
        verts = [v for v in range(n) if mask >> v & 1]
        v = max(verts, key=lambda u: bin(nbr[u] & mask).count("1"))
        if not nbr[v] & mask:
            best = 1 + alpha(mask & ~(1 << v))
        else:
            best = max(alpha(mask & ~(1 << v)), 1 + alpha(mask & ~(1 << v) & ~nbr[v]))
        memo[mask] = best
        return best

    return alpha((1 << n) - 1)


# -- reference facts ---------------------------------------------------


@dataclass
class Ref:
    """A graph the benchmark knows: own adjacency plus published invariants."""

    adj: np.ndarray
    srg: tuple | None = None
    theta: float | None = None
    alpha: int | None = None
    omega: int | None = None
    chi: int | None = None

    @property
    def n(self):
        return len(self.adj)

    @property
    def spectrum(self):
        return np.linalg.eigvalsh(self.adj.astype(float))[::-1]

    def regular_bounds(self):
        """(lower, upper) spectral sandwich for theta of a regular graph."""
        ev, n = self.spectrum, self.n
        d, l2, lmin = ev[0], ev[1], ev[-1]
        return (n - d + l2) / (1 + l2), -n * lmin / (d - lmin)


def theta_odd_cycle(n):
    c = math.cos(math.pi / n)
    return n * c / (1 + c)


def theta_srg(n, d, lam, mu):
    """Lovasz: theta = -n s / (d - s) with s the least eigenvalue."""
    s = (lam - mu - math.sqrt((lam - mu) ** 2 + 4 * (d - mu))) / 2
    return -n * s / (d - s)


def _srg(adj, params, **known):
    return Ref(adj, params, theta=theta_srg(*params), **known)


def catalog_refs(fixtures: Path) -> dict:
    """Reference graphs by generator or fixture spec."""
    fx = lambda name: from_graph6((fixtures / f"{name}.g6").read_text())  # noqa: E731
    refs = {
        "petersen": _srg(kneser(5, 2), (10, 3, 0, 1), alpha=4, omega=2, chi=3),
        "shrikhande": _srg(shrikhande(), (16, 6, 2, 2), alpha=4, omega=3, chi=4),
        "paley:29": _srg(paley(29), (29, 14, 6, 7), alpha=4, omega=4),
        "kneser:7:2": _srg(kneser(7, 2), (21, 10, 3, 6), alpha=6, omega=3, chi=5),
        "kneser:8:2": _srg(kneser(8, 2), (28, 15, 6, 10), alpha=7, omega=4, chi=6),
        "chang1": _srg(fx("chang1"), (28, 12, 6, 4), alpha=4, omega=6, chi=7),
        "chang2": _srg(fx("chang2"), (28, 12, 6, 4), alpha=4, omega=5, chi=7),
        "chang3": _srg(fx("chang3"), (28, 12, 6, 4), alpha=4, omega=6, chi=7),
        "schlafli": _srg(fx("schlafli"), (27, 16, 10, 8), alpha=3, omega=6, chi=9),
        "gewirtz": _srg(fx("gewirtz"), (56, 10, 0, 2), alpha=16, omega=2),
        "hoffman_singleton": _srg(fx("hoffman_singleton"), (50, 7, 0, 1), alpha=15,
                                  omega=2, chi=4),
        "m22": _srg(fx("m22"), (77, 16, 0, 4), alpha=21, omega=2),
        "hall_janko": _srg(fx("hall_janko"), (100, 36, 14, 12), alpha=10, omega=4),
        "cameron": _srg(fx("cameron"), (231, 30, 9, 3), alpha=21),
        # gosset and perkel are edge-transitive, where theta is -n lmin/(d-lmin)
        "gosset": Ref(fx("gosset"), theta=5.6, alpha=4, omega=7, chi=14),
        "perkel": Ref(fx("perkel"), theta=19.0, alpha=19, omega=2, chi=3),
        "frucht": Ref(frucht(), alpha=5, omega=3, chi=3),
        "paley:13": _srg(paley(13), (13, 6, 2, 3), alpha=3, omega=3),
        "hypercube:5": Ref(hypercube(5), theta=16.0, alpha=16, omega=2, chi=2),
        "cycle:5": Ref(cycle(5), theta=math.sqrt(5), alpha=2, omega=2, chi=3),
        "cycle:7": Ref(cycle(7), theta=theta_odd_cycle(7), alpha=3, omega=2, chi=3),
        "cycle:9": Ref(cycle(9), theta=theta_odd_cycle(9), alpha=4, omega=2, chi=3),
        "cycle:13": Ref(cycle(13), theta=theta_odd_cycle(13), alpha=6, omega=2, chi=3),
    }
    return refs


# -- checks --------------------------------------------------------------


def close(x, y, rel=TOL) -> bool:
    return x is not None and abs(float(x) - float(y)) <= rel * max(1.0, abs(float(y)))


def power_extremes(ev, k):
    """(lambda2, lambda_min) of the k-th strong power of a connected regular
    graph with descending spectrum ev. Every eigenvalue of the power is
    prod(1 + v_i) - 1; the largest nontrivial product takes one factor from
    the top of the rest (or two from its most negative end), the least takes
    one most negative factor. For Petersen this is 2*4^(k-1) - 1."""
    top, rest = 1.0 + ev[0], 1.0 + np.asarray(ev[1:])
    a, b = rest.max(), rest.min()
    l2 = top ** (k - 1) * a
    if k >= 2:
        l2 = max(l2, top ** (k - 2) * b * b)
    lmin = top ** (k - 1) * b if b < 0 else b ** k
    return l2 - 1.0, lmin - 1.0


def _theta_ok(ref: Ref, value, lower=None, upper=None) -> tuple:
    """Check a reported theta, or the sandwich reported instead of one."""
    if value is None:
        lo, hi = ref.regular_bounds()
        ok = close(lower, lo) and close(upper, hi)
        if ref.theta is not None:
            ok = ok and lo - TOL <= ref.theta <= hi + TOL
        if ref.alpha is not None:
            ok = ok and ref.alpha <= hi + TOL
        return ok, True
    if ref.theta is not None:
        return close(value, ref.theta, 1e-5), False
    hi = ref.regular_bounds()[1]
    return (ref.alpha or 0) - 1e-5 <= float(value) <= hi + 1e-5, False


def _spectrum_ok(groups, ev) -> bool:
    got = sorted((g["value"] for g in groups for _ in range(g["multiplicity"])), reverse=True)
    return len(got) == len(ev) and all(close(x, y) for x, y in zip(got, ev))


def _ramanujan_ok(ev, r) -> bool:
    """The verdict against the benchmark's own spectrum: the largest
    nontrivial |eigenvalue| (dropping d, and -d if bipartite) is at most
    2 sqrt(d - 1)."""
    d = ev[0]
    rest = ev[1:-1] if close(ev[-1], -d) else ev[1:]
    lam, thr = float(np.abs(rest).max()), 2.0 * math.sqrt(d - 1.0)
    return (r["applicable"] and close(r["lambda"], lam) and close(r["threshold"], thr)
            and r["is_ramanujan"] == (lam <= thr + 1e-9))


def _k0_ok(ref: Ref, ev, r) -> bool:
    """k0 needs theta < n/sqrt(d+1); then the k0-th strong power must indeed
    be non-Ramanujan by the benchmark's own power spectrum."""
    n, d = ref.n, ev[0]
    if r.get("theta") is None:  # theta undetermined: no k0 is claimed
        return not r["applicable"]
    ok = close(r["threshold_n_over_sqrt_d1"], n / math.sqrt(d + 1.0))
    if ref.theta is not None:
        ok = ok and close(r["theta"], ref.theta, 1e-5)
    if r["theta"] >= r["threshold_n_over_sqrt_d1"]:
        return ok and not r["applicable"]
    k = r["k0"]
    l2, lmin = power_extremes(ev, k)
    return ok and r["applicable"] and k >= 3 and \
        max(abs(l2), abs(lmin)) > 2.0 * math.sqrt((1.0 + d) ** k - 2.0)


def check_analyze(ref: Ref, argv: list, reply: dict) -> tuple:
    """Every task named in argv must be answered and match the references."""
    out = json.loads(reply["stdout"])
    tasks = out["tasks"]
    asked = argv[argv.index("--tasks") + 1].split(",")
    ok = out["graph"]["n"] == ref.n and out["violations"] == [] and sorted(tasks) == sorted(asked)
    undetermined = False
    ev = ref.spectrum
    if "spectrum" in asked:
        ok = ok and _spectrum_ok(tasks["spectrum"]["eigenvalues"], ev)
    if "srg" in asked:
        srg = tasks["srg"]
        ok = ok and (srg.get("params") == list(ref.srg) if ref.srg
                     else not srg["strongly_regular"])
    if "theta" in asked:
        t = tasks["theta"]
        good, und = _theta_ok(ref, t.get("theta"), t.get("spectral_lower"),
                              t.get("spectral_upper"))
        ok, undetermined = ok and good, undetermined or und
    if "ramanujan" in asked:
        ok = ok and _ramanujan_ok(ev, tasks["ramanujan"])
    if "k0" in asked:
        ok = ok and _k0_ok(ref, ev, tasks["k0"])
    if "capacity" in asked:
        c = tasks["capacity"]
        undetermined = undetermined or c["status"] in ("timeout", "unknown-theta")
        if c.get("alpha") is not None:
            ok = ok and c["alpha"] <= c["theta"] + TOL
            ok = ok and (ref.alpha is None or c["alpha"] == ref.alpha)
            ok = ok and (c["status"] == "determined") == close(c["theta"], c["alpha"])
        if ref.theta is not None and "theta" in c:
            ok = ok and close(c["theta"], ref.theta, 1e-5)
    if "--exact-chi" in argv:
        c = tasks["chromatic-bounds"]
        lo, hi = c["chi_interval"]
        if c["chi_status"] == "exact":
            ok = ok and lo == hi == c["chi"] and (ref.chi is None or c["chi"] == ref.chi)
        else:
            undetermined = True
        ok = ok and lo <= hi and (ref.chi is None or lo <= ref.chi <= hi)
        ok = ok and (ref.omega is None or lo >= ref.omega)
    if "product-bounds" in asked:
        pb = tasks["product-bounds"]
        l2, lmin = power_extremes(ev, pb["k"])
        ok = ok and pb.get("applicable", True) and close(pb["lambda2"], l2) and \
            close(pb["lambda_min"], lmin)
    return ok, undetermined


def check_power(ref: Ref, k: int, materialize: bool, reply: dict) -> tuple:
    out = json.loads(reply["stdout"])
    ev, n, d = ref.spectrum, ref.n, int(round(ref.spectrum[0]))
    rows = out["rows"]
    ok = out["violations"] == [] and [r["k"] for r in rows] == list(range(1, k + 1))
    for r in rows:
        kk = r["k"]
        l2, lmin = power_extremes(ev, kk)
        ok = ok and r["order"] == n ** kk and r["degree"] == (1 + d) ** kk - 1
        ok = ok and close(r["lambda2"], l2) and close(r["lambda_min"], lmin)
        if materialize:
            ok = ok and close(r["lambda2_dense"], l2) and close(r["lambda_min_dense"], lmin)
    if out["theta_factor"] is None:  # no sandwich in the table to check
        return ok, True
    good, _ = _theta_ok(ref, out["theta_factor"])
    return ok and good, False


def check_examples(reply: dict) -> tuple:
    lines = reply["stdout"].strip().splitlines()
    m = re.fullmatch(r"(\d+)/(\d+) examples reproduced", lines[-1])
    ok = bool(m) and m.group(1) == m.group(2) and all(
        ln.startswith("PASS ") for ln in lines[:-1]) and int(m.group(2)) == len(lines) - 1
    for label, want in (("theta(C5) = sqrt(5)", math.sqrt(5)), ("theta(Petersen) = 4", 4.0)):
        got = [ln for ln in lines if ln.startswith(f"PASS {label}: got ")]
        ok = ok and len(got) == 1 and close(got[0].split("got ")[1].split(",")[0], want, 1e-5)
    return ok, False


def check_graph(n, d, reply) -> tuple:
    s = reply["summary"]
    return (s["n"] == n and s["degree_min"] == s["degree_max"] == d
            and s["edges"] == n * d // 2), False


def check_capacity_lb(alpha, k, reply) -> tuple:
    s = reply["summary"]
    if s["status"] != "exact":
        return s["lower"] <= alpha <= s["upper"], True
    return s["alpha"] == alpha and close(s["bound"], alpha ** (1.0 / k)), False


def check_theta_power(value, reply) -> tuple:
    s = reply["summary"]
    if s["method"] == "interval":
        return s["lower"] - TOL <= value <= s["upper"] + TOL, True
    return close(s["value"], value, 1e-5), False


# -- job lists -----------------------------------------------------------


def _cli(name, argv, expect, check):
    return Job(name, {"cli": argv}, expect, check)


def _lib(name, fn, args, expect, check):
    return Job(name, {"lib": fn, "args": args}, expect, check)


def _analyze(spec, refs, tasks=ALL_TASKS, chi=True, expect=1.0, src="--gen", path=None):
    argv = ["analyze", src, path or spec, "--tasks", tasks, "--budget", str(BUDGET), "--json"]
    if chi:
        argv.append("--exact-chi")
    ref = refs[spec]
    return _cli(f"analyze[{tasks if tasks != ALL_TASKS else 'all'}]:{spec}", argv, expect,
                lambda r: check_analyze(ref, argv, r))


def _power(spec, k, refs, materialize=False, expect=1.0, src="--gen", path=None):
    argv = ["power", src, path or spec, "-k", str(k), "--budget", str(BUDGET), "--json"]
    if materialize:
        argv.append("--materialize")
    ref = refs[spec]
    return _cli(f"power{'[dense]' if materialize else ''}:{spec}:k{k}", argv, expect,
                lambda r: check_power(ref, k, materialize, r))


def _probes(refs):
    """Two small jobs on every workload so each layer runs at least once."""
    return [_analyze("cycle:7", refs, "theta,capacity,chromatic-bounds,product-bounds",
                     expect=0.3),
            _power("cycle:7", 2, refs, materialize=True, expect=0.4)]


def _g6_input(name, ref, refs, workdir) -> str:
    """Write a reference graph as a graph6 input file; returns its path."""
    path = workdir / f"{name}.g6"
    path.write_text(to_graph6(ref.adj) + "\n")
    refs[name] = ref
    return str(path)


def _petersen_batch(make_job, count, rng, refs, workdir):
    """One small command on Petersen under `count` seeded labellings.

    Many jobs alike make the median job one of them, rather than whichever
    job sits at a gap in the job times, where machine noise moves it most.
    """
    jobs = []
    for j in range(count):
        name = f"petersen-{j}"
        ref = _srg(relabel(kneser(5, 2), rng), (10, 3, 0, 1), alpha=4, omega=2, chi=3)
        jobs.append(make_job(name, _g6_input(name, ref, refs, workdir)))
    return jobs


def _random_regular_60(seed, degrees, draws):
    """Library calls random_regular(60, d, s), `draws` seeds per degree.

    thetakit's pairing model gives up on these valid inputs: for about four
    in five seeds at d=6, and for nearly every seed at d=7 and d=8. The
    failures are part of what the benchmark measures.
    """
    return [_lib(f"random_regular(60,{d},{s})", "random_regular", [60, d, s], 0.1,
                 lambda r, d=d: check_graph(60, d, r))
            for d in degrees for s in range(seed * draws, (seed + 1) * draws)]


def build(workload: str, seed: int, fixtures: Path, workdir: Path) -> list:
    """The workload's job list for this seed, in a seeded order."""
    rng = random.Random(f"{workload}/{seed}")
    refs = catalog_refs(fixtures)
    jobs = _probes(refs)
    if workload == "catalog-analyze":
        for spec in ("chang1", "chang2", "chang3", "schlafli", "gewirtz",
                     "hoffman_singleton", "m22", "hall_janko", "petersen",
                     "shrikhande", "paley:29", "kneser:7:2", "kneser:8:2"):
            jobs.append(_analyze(spec, refs, expect=12.0 if spec == "hall_janko" else 1.0))
        jobs.append(_analyze("cameron", refs, "theta,capacity", chi=False, expect=13.0))
        jobs.append(_cli("paper-examples", ["--paper-examples"], 1.0, check_examples))
        jobs += _petersen_batch(lambda name, path: _analyze(name, refs, expect=0.1, src="--g6",
                                                            path=path),
                                48, rng, refs, workdir)
        # the generator defect on this workload too, so no workload's
        # failed_share is zero while the defect stands
        jobs += _random_regular_60(seed, (8,), 2)
    elif workload == "theta-sdp":
        for spec, expect in (("frucht", 1.5), ("hypercube:5", 0.3), ("cycle:9", 0.1),
                             ("gosset", 1.5), ("perkel", 2.0)):
            jobs.append(_analyze(spec, refs, "theta", chi=False, expect=expect))
        # graph6 inputs: fixed structures, the cheap ones under a seeded
        # vertex labelling. The optimizer's iteration count on the n=32 graph
        # moves by up to 16% with its labelling, so that one input is fixed.
        c5, pet = cycle(5), kneser(5, 2)
        files = {
            "c5xc5": (Ref(strong_product(c5, c5), theta=5.0, alpha=5), 0.3, True),
            "c5xpetersen": (Ref(strong_product(c5, pet), theta=4 * math.sqrt(5), alpha=8),
                            1.5, True),
            "rr24-4": (Ref(random_regular(24, 4, random.Random("rr24-4"))), 1.0, True),
            "rr32-3": (Ref(random_regular(32, 3, random.Random("rr32-3"))), 25.0, False),
        }
        for name, (ref, expect, seeded) in files.items():
            if seeded:
                ref.adj = relabel(ref.adj, rng)
            if ref.alpha is None:
                ref.alpha = independence_number(ref.adj)
            jobs.append(_analyze(name, refs, "theta", chi=False, expect=expect,
                                 src="--g6", path=_g6_input(name, ref, refs, workdir)))
        jobs += _random_regular_60(seed, (6, 7, 8), RR60_DRAWS)
    elif workload == "strong-powers":
        for spec, k, expect in (("cycle:5", 10, 0.1), ("petersen", 10, 0.1),
                                ("cycle:13", 10, 1.0), ("hypercube:5", 8, 0.6),
                                ("gosset", 8, 1.5), ("frucht", 6, 0.3)):
            jobs.append(_power(spec, k, refs, expect=expect))
        jobs += _petersen_batch(lambda name, path: _power(name, 10, refs, expect=0.1,
                                                          src="--g6", path=path),
                                48, rng, refs, workdir)
        for spec, k, expect in (("petersen", 2, 1.7), ("cycle:5", 3, 2.5),
                                ("paley:13", 2, 5.0)):
            jobs.append(_power(spec, k, refs, materialize=True, expect=expect))
        jobs.append(_lib("strong_power(petersen,4)", "strong_power", ["petersen", 4], 1.0,
                         lambda r: check_graph(10_000, 255, r)))
        # alpha(C7^3) = 33 is out of reach of the 5 s budget: a budget-bound job
        for spec, k, alpha in (("cycle:5", 2, 5), ("cycle:5", 3, 10), ("cycle:7", 3, 33)):
            jobs.append(_lib(f"capacity_power_lb({spec},{k})", "capacity_power_lb",
                             [spec, k, BUDGET], 5.0,
                             lambda r, k=k, a=alpha: check_capacity_lb(a, k, r)))
        jobs.append(_lib("theta_best(strong_power(cycle:5,3))", "theta_best_power",
                         ["cycle:5", 3], 1.0, lambda r: check_theta_power(5 ** 1.5, r)))
        jobs += _random_regular_60(seed, (8,), 2)
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng.shuffle(jobs)
    long = [j for j in jobs if j.expect_s >= LONG_JOB_S]
    jobs = [j for j in jobs if j.expect_s < LONG_JOB_S]
    for i, job in enumerate(long):
        jobs.insert(round((i + 1) * len(jobs) / (len(long) + 1)) + i, job)
    return jobs
