"""End-to-end verification battery.

Each test covers one headline capability and records a single pass/fail
line (via conftest.record_criterion) printed after the run, so the whole
gate is readable at a glance.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
from conftest import record_criterion

from thetakit.bounds import (
    FactorProducts,
    _eig2_lower,
    _eigmin_upper,
    affine_polar_params,
    chromatic_lb_strong_product,
    eig_inequality_cor0,
    g_sequence,
    k0_self_complementary_vt,
)
from thetakit.catalog import load_fixture
from thetakit.exact import (
    capacity_certificate,
    chromatic_number,
    independence_number,
)
from thetakit.graphs import (
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    empty,
    frucht,
    hypercube,
    kneser,
    paley,
    petersen,
    random_regular,
    shrikhande,
)
from thetakit.products import power_spectrum, product_spectrum, strong_power, strong_product
from thetakit.spectra import eigenvalues, lambda_nontrivial, ramanujan_verdict
from thetakit.srg import SrgParams, srg_check, srg_params_feasible
from thetakit.theta import (
    theta_exact,
    theta_exact_result,
    theta_srg,
    theta_upper_regular,
)

CLOSED_FORM_TABLE = [
    ((10, 3, 0, 1), 4), ((16, 6, 2, 2), 4), ((100, 36, 14, 12), 10),
    ((50, 7, 0, 1), 15), ((27, 16, 10, 8), 3), ((56, 10, 0, 2), 16),
    ((77, 16, 0, 4), 21), ((231, 30, 9, 3), 21), ((28, 12, 6, 4), 4),
]


def test_closed_form_theta_table():
    failures = []
    worst = 0.0
    for tup, want in CLOSED_FORM_TABLE:
        p = SrgParams(*tup)
        theta_srg(p)                        # warm up
        best = min(_timed(lambda: theta_srg(p)) for _ in range(5))
        worst = max(worst, best)
        t, _ = theta_srg(p)
        if not (isinstance(t, Fraction) and t == want):
            failures.append((tup, t, want))
    ok = not failures and worst < 1e-3
    record_criterion(
        "01-closed-form-theta",
        ok, f"9 parameter sets exact; slowest best-of-5 {worst * 1e6:.0f}us")
    assert ok, (failures, worst)


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_exact_theta_solver():
    t0 = time.perf_counter()
    checks = [
        ("pentagon", theta_exact(cycle(5)), math.sqrt(5.0), 1e-5),
        ("petersen", theta_exact(petersen()), 4.0, 1e-5),
        ("complete", theta_exact(complete(6)), 1.0, 1e-5),
        ("edgeless", theta_exact(empty(7)), 7.0, 1e-9),
        ("pentagon-square", theta_exact(strong_product(cycle(5), cycle(5))),
         5.0, 1e-4),
    ]
    elapsed = time.perf_counter() - t0
    failures = [(n, got, want) for n, got, want, tol in checks
                if abs(got - want) > tol]
    ok = not failures and elapsed < 30.0
    record_criterion(
        "02-exact-theta-solver", ok,
        f"5 reference values within tolerance in {elapsed:.1f}s")
    assert ok, (failures, elapsed)


def test_power_eigenvalue_table():
    t0 = time.perf_counter()
    s = eigenvalues(cycle(5), rtol=1e-9)
    l2 = []
    lb = []
    for k in range(1, 6):
        ps = power_spectrum(s, k, rtol=1e-10)
        l2.append(ps.second_largest())
        p = FactorProducts.of([(5, 2, math.sqrt(5.0), s.smallest())] * k)
        lb.append(_eig2_lower(p.order, p.closed, p.theta))
    l2_want = [0.6180, 3.8541, 13.5623, 42.6869, 130.0608]
    # the bound is (5^k - 3^k)/(5^(k/2) - 1) - 1; at k=4 that is
    # 544/24 - 1 = 65/3 = 21.6667
    lb_want = [0.6180, 3.0000, 8.6264, 65.0 / 3.0, 51.4938]
    ok = all(abs(a - b) <= 5e-5 for a, b in zip(l2, l2_want))
    ok = ok and all(abs(a - b) <= 5e-5 for a, b in zip(lb, lb_want))
    ok = ok and all(b <= a + 1e-9 for a, b in zip(l2, lb))
    for k in (1, 2, 3):
        w = np.linalg.eigvalsh(strong_power(cycle(5), k).adj.astype(np.float64))
        ok = ok and abs(w[-2] - l2[k - 1]) <= 1e-7
        ok = ok and abs(w[0] - power_spectrum(s, k, rtol=1e-10).smallest()) <= 1e-7
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    record_criterion(
        "03-power-eigenvalue-table", ok,
        f"five powers of the pentagon: eigenvalues and lower bounds match "
        f"(k=4 bound exactly 65/3) in {elapsed:.1f}s")
    assert ok, (l2, lb, elapsed)


def test_ramanujan_k0_thresholds():
    t0 = time.perf_counter()
    k0 = [k0_self_complementary_vt(n) for n in (5, 9, 13, 17, 21)]
    s = eigenvalues(cycle(5), rtol=1e-9)
    verdicts = []
    for k in range(1, 6):
        ps = power_spectrum(s, k, rtol=1e-10)
        d = 3 ** k - 1
        verdicts.append(ramanujan_verdict(lambda_nontrivial(ps, d), d).is_ramanujan)
    elapsed = time.perf_counter() - t0
    ok = (k0 == [5, 4, 3, 3, 3]
          and verdicts == [True, True, False, False, False]
          and elapsed < 60.0)
    record_criterion(
        "04-ramanujan-k0-thresholds", ok,
        f"k0 values {k0}; pentagon powers Ramanujan only for k=1,2 "
        f"in {elapsed:.1f}s")
    assert ok, (k0, verdicts, elapsed)


def test_equality_iff_strong_regularity():
    graphs = [
        petersen(), shrikhande(), paley(13), paley(17), cycle(5),
        complete_bipartite(3, 3), disjoint_union(complete(3), complete(3)),
        kneser(6, 2),
        cycle(6), cycle(7), frucht(), hypercube(3), hypercube(4),
        random_regular(14, 5, seed=5), random_regular(12, 3, seed=1),
        random_regular(16, 4, seed=3),
    ]
    n_srg = n_other = 0
    failures = []
    for g in graphs:
        s = eigenvalues(g)
        up, low = eig_inequality_cor0(g.n, g.degree(), s.second_largest(),
                                      s.smallest())
        is_eq = up.is_equality(1e-6) and low.is_equality(1e-6)
        is_srg = srg_check(g) is not None
        if is_srg:
            n_srg += 1
        else:
            n_other += 1
        if is_eq != is_srg:
            failures.append((g.n, g.degree(), is_eq, is_srg))
        if not (up.holds(1e-9) and low.holds(1e-9)):
            failures.append((g.n, g.degree(), "bound violated"))
    ok = not failures and n_srg >= 5 and n_other >= 5
    record_criterion(
        "05-equality-iff-strong-regularity", ok,
        f"{n_srg} strongly regular + {n_other} other regular graphs, "
        f"equality classification consistent at 1e-6")
    assert ok, (failures, n_srg, n_other)


def test_derived_sequence_values():
    three_edges = disjoint_union(complete(2), complete(2), complete(2))
    vals = g_sequence(three_edges).values
    ok = all(abs(a - b) <= 1e-9 for a, b in
             zip(vals, (3.0, -1.0, -1.0, 1.0, -1.0, -1.0)))

    hj = g_sequence(load_fixture("hall_janko"))
    groups = [(round(v, 6), m) for v, m in hj.groups()]
    ok = ok and groups == [(62.0, 1), (9.0, 27), (-1.0, 72)]
    ok = ok and (9.0, 27) in groups

    pent = g_sequence(cycle(5))
    ok = ok and pent.distinct_count() == 2
    record_criterion(
        "06-derived-sequence-values", ok,
        "three-edge values exact; 100-vertex rank-3 fixture shows extra "
        "value 9 with multiplicity 27; pentagon has two distinct values")
    assert ok, (vals, groups, pent.values)


def test_chromatic_reproductions():
    t0 = time.perf_counter()
    failures = []
    for g, want in [(shrikhande(), 4), (frucht(), 3),
                    (load_fixture("chang1"), 7), (load_fixture("chang2"), 7),
                    (load_fixture("chang3"), 7)]:
        res = chromatic_number(g, budget=120.0)
        if res.status != "exact" or res.value != want:
            failures.append((g.n, res.status, res.value, want))

    factor_cases = [((27, 16, 10, 8), 9.0), ((16, 6, 2, 2), 4.0),
                    ((100, 36, 14, 12), 10.0), ((1782, 416, 100, 96), 27.0),
                    ((28, 12, 6, 4), 7.0)]
    for tup, want in factor_cases:
        got = float(theta_srg(SrgParams(*tup))[1])
        if abs(got - want) > 1e-9:
            failures.append((tup, got, want))

    perkel = load_fixture("perkel")
    lmin = eigenvalues(perkel).smallest()
    if abs(lmin - (-3.0)) > 1e-8:
        failures.append(("perkel-lmin", lmin))
    for k in range(1, 5):
        factor = (57, theta_upper_regular(57, 6, -3.0))
        if chromatic_lb_strong_product([factor] * k)[0] != 3 ** k:
            failures.append(("perkel-power-bound", k))
    chi_perkel = chromatic_number(perkel, budget=120.0)
    if chi_perkel.value != 3:
        failures.append(("perkel-chi", chi_perkel.value))
    elapsed = time.perf_counter() - t0
    ok = not failures
    record_criterion(
        "07-chromatic-reproductions", ok,
        f"5 exact colorings, 5 factor values, 57-vertex bound 3^k tight at "
        f"k=1, in {elapsed:.1f}s")
    assert ok, (failures, elapsed)


def test_capacity_certificates():
    t0 = time.perf_counter()
    cases = [
        (petersen(), 4), (shrikhande(), 4),
        (load_fixture("hall_janko"), 10),
        (load_fixture("hoffman_singleton"), 15),
        (load_fixture("schlafli"), 3),
        (load_fixture("gewirtz"), 16),
        (load_fixture("m22"), 21),
        (load_fixture("chang1"), 4),
    ]
    failures = []
    for g, want in cases:
        t, _ = theta_srg(srg_check(g))
        cert = capacity_certificate(g, float(t), budget=120.0)
        if cert.status != "determined" or cert.capacity != want:
            failures.append((g.n, cert.status, cert.capacity, want))

    comp = load_fixture("schlafli").complement()
    tc, _ = theta_srg(srg_check(comp))
    cert = capacity_certificate(comp, float(tc), budget=120.0)
    if not (cert.status == "gap" and cert.alpha == 6
            and abs(float(tc) - 9.0) < 1e-9):
        failures.append(("schlafli-complement", cert.status, cert.alpha))
    elapsed = time.perf_counter() - t0
    ok = not failures
    record_criterion(
        "08-capacity-certificates", ok,
        f"8 determined capacities, 1 certified gap (alpha 6 vs theta 9) "
        f"in {elapsed:.1f}s")
    assert ok, (failures, elapsed)


def test_capacity_certificate_cameron():
    # the exhaustive search cannot finish here (greedy coloring of the
    # dense complement bounds the clique at 58, far above 21), but a
    # size-21 witness appears immediately and theta pins the rest
    g = load_fixture("cameron")
    t, _ = theta_srg(srg_check(g))
    cert = capacity_certificate(g, float(t), budget=5.0)
    assert cert.status == "determined"
    assert cert.capacity == 21
    assert cert.alpha == 21


def test_affine_polar_grid():
    failures = []
    for e in (2, 3):
        for q in (2, 3, 4, 5):
            for sign in ("+", "-"):
                info = affine_polar_params(e, q, sign)
                feas = srg_params_feasible(info.params)
                if not feas.feasible:
                    failures.append((e, q, sign, "infeasible", feas.reason))
                    continue
                p1, p2 = info.params.eigenvalues()
                if p1 != info.l2 or p2 != info.lmin:
                    failures.append((e, q, sign, "eigenvalues", p1, p2))
                t, tc = theta_srg(info.params)
                if abs(float(t) - info.theta) > 1e-9:
                    failures.append((e, q, sign, "theta", float(t), info.theta))
                if abs(float(tc) - info.theta_complement) > 1e-9:
                    failures.append((e, q, sign, "theta-complement",
                                     float(tc), info.theta_complement))
    named = [(2, 2, 4.0), (3, 2, 8.0), (2, 3, 9.0), (3, 3, 27.0)]
    for e, q, want in named:
        if affine_polar_params(e, q, "+").theta != want:
            failures.append((e, q, "+", "named", want))
    ok = not failures
    record_criterion(
        "09-affine-polar-grid", ok,
        "16 parameter sets feasible, closed forms agree to 1e-9, "
        "plus-type values 4/8/9/27 exact")
    assert ok, failures


def test_oracle_soundness_sweep():
    t0 = time.perf_counter()
    rng = random.Random(20260823)

    pool = [cycle(4), cycle(5), petersen(), shrikhande(), paley(13),
            complete_bipartite(3, 3), kneser(6, 2)]
    i = 0
    while len(pool) < 40:
        n = rng.randrange(6, 21)
        d = rng.randrange(2, min(n - 1, 6))
        i += 1
        if (n * d) % 2:
            continue
        try:
            # the pairing model can exhaust its retries at higher degrees
            pool.append(random_regular(n, d, seed=3000 + i))
        except RuntimeError:
            continue

    spectra = [eigenvalues(g, rtol=1e-9) for g in pool]
    theta_res = [theta_exact_result(g) for g in pool]

    # 200 distinct ordered pairs; the three seeded small pairs keep the
    # sandwich subset (product order <= 20) from being empty
    cases = [(0, 0), (0, 1), (1, 0)]
    seen = set(cases)
    while len(cases) < 200:
        a = rng.randrange(len(pool))
        b = rng.randrange(len(pool))
        if (a, b) in seen or pool[a].n * pool[b].n > 400:
            continue
        seen.add((a, b))
        cases.append((a, b))

    max_dev = 0.0
    n_sandwich = 0
    failures = []
    for a, b in cases:
        g1, g2 = pool[a], pool[b]
        ps = product_spectrum([spectra[a], spectra[b]], rtol=1e-10)
        gp = strong_product(g1, g2)
        dense = np.linalg.eigvalsh(gp.adj.astype(np.float64))
        dev = float(np.abs(dense[::-1] - np.asarray(ps.expanded())).max())
        max_dev = max(max_dev, dev)
        if dev > 1e-7:
            failures.append((a, b, "spectrum", dev))

        # certified directions: upper thetas weaken the lower bound,
        # lower thetas weaken the upper bound, so a failure here is real
        up = FactorProducts.of(
            [(g1.n, g1.degree(), theta_res[a].value, spectra[a].smallest()),
             (g2.n, g2.degree(), theta_res[b].value, spectra[b].smallest())])
        lo = FactorProducts.of(
            [(g1.n, g1.degree(), theta_res[a].lower, spectra[a].smallest()),
             (g2.n, g2.degree(), theta_res[b].lower, spectra[b].smallest())])
        l2p, lminp = ps.second_largest(), ps.smallest()
        if _eig2_lower(up.order, up.closed, up.theta) > l2p + 1e-9:
            failures.append((a, b, "eig2-lower"))
        if lminp > _eigmin_upper(lo.closed, lo.ratio) + 1e-9:
            failures.append((a, b, "eigmin-upper"))

        if gp.n <= 20:
            n_sandwich += 1
            res = theta_exact_result(gp)
            alpha = independence_number(gp, budget=30.0).value
            chi_c = chromatic_number(gp.complement(), budget=30.0).value
            if not (alpha <= res.value + 1e-6 and res.lower <= chi_c + 1e-6):
                failures.append((a, b, "sandwich", alpha, res.value,
                                 res.lower, chi_c))

    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 300.0
    record_criterion(
        "10-oracle-soundness-sweep", ok,
        f"200 products: max spectrum deviation {max_dev:.2e}, product "
        f"bounds and {n_sandwich} sandwich checks clean in {elapsed:.1f}s")
    assert ok, (failures[:5], max_dev, elapsed)
