"""Spectral inequalities, the derived per-index sequence, product bounds,
power thresholds, and chromatic lower bounds."""

import math

import pytest

from thetakit.bounds import (
    BoundReport,
    FactorProducts,
    _eig2_lower,
    _eigmin_upper,
    affine_polar_params,
    chromatic_lb_strong_product,
    eig_inequality_cor0,
    g_sequence,
    haemers_clique_upper_maxdeg,
    k0_self_complementary_vt,
    make_report,
    non_ramanujan_k0,
    self_complementary_eig_bounds,
    wei_bounds,
)
from thetakit.catalog import load_fixture
from thetakit.graphs import (
    complete,
    cycle,
    disjoint_union,
    frucht,
    hypercube,
    kneser,
    paley,
    path,
    petersen,
    random_regular,
    shrikhande,
)
from thetakit.products import power_extremes, power_spectrum
from thetakit.spectra import eigenvalues, ramanujan_verdict
from thetakit.srg import SrgParams
from thetakit.theta import (
    theta_bounds_complement,
    theta_bounds_regular,
    theta_srg,
    theta_upper_regular,
)


def test_make_report_slack_semantics():
    r = make_report("x", 2.0, 3.0, "<=")
    assert r.slack == pytest.approx(1.0) and r.holds() and not r.is_equality()
    r = make_report("x", 3.0, 3.0, ">=")
    assert r.is_equality()
    r = make_report("x", 4.0, 3.0, "<=")
    assert not r.holds()
    # holding is judged relative to the larger side, tightness is not: a
    # bound tight at 2^37 may miss by one rounding step, 2^-15, yet a real
    # miss at that scale still fails
    r = make_report("x", 2.0 ** 37 - 1 + 2.0 ** -15, 2.0 ** 37 - 1, "<=")
    assert r.holds() and not r.is_equality()
    assert not make_report("x", 2e11, 1e11, "<=").holds()
    assert not make_report("x", 1.0 + 2e-6, 1.0, "<=").holds()
    with pytest.raises(ValueError):
        make_report("x", 1.0, 2.0, "<")


def test_report_dict_round_trip():
    r = make_report("y", 1.0, 2.0, "<=", applicable=False, reason="n/a")
    d = r.as_dict()
    assert BoundReport(**d) == r


def test_cor0_equality_on_srg():
    for g in [petersen(), shrikhande(), paley(13), cycle(5)]:
        s = eigenvalues(g)
        up, low = eig_inequality_cor0(g.n, g.degree(), s.second_largest(),
                                      s.smallest())
        assert up.is_equality(1e-8) and low.is_equality(1e-8)


def test_cor0_strict_on_non_srg():
    for g in [cycle(6), frucht(), hypercube(3)]:
        s = eigenvalues(g)
        up, low = eig_inequality_cor0(g.n, g.degree(), s.second_largest(),
                                      s.smallest())
        assert up.holds(1e-9) and low.holds(1e-9)
        assert not (up.is_equality(1e-6) and low.is_equality(1e-6))


def test_cor0_rejects_degenerate():
    with pytest.raises(ValueError):
        eig_inequality_cor0(5, 4, 1.0, -1.0)


def test_g_sequence_three_edges():
    g = disjoint_union(complete(2), complete(2), complete(2))
    got = g_sequence(g).values
    assert got == pytest.approx((3.0, -1.0, -1.0, 1.0, -1.0, -1.0), abs=1e-9)


def test_g_sequence_head_is_invariant():
    for g in [petersen(), cycle(6), frucht()]:
        gs = g_sequence(g)
        assert gs.head == pytest.approx(g.n - g.degree() - 2, abs=1e-9)


def test_g_sequence_petersen_third_value():
    # multiplicity gap |m1 - m2| = 1 puts one extra value next to the -1 run
    gs = g_sequence(petersen())
    groups = [(round(v, 6), m) for v, m in gs.groups()]
    assert groups == [(5.0, 1), (-1.0, 8), (-4.0, 1)]
    assert gs.distinct_count() == 3
    tail = [(round(v, 6), m) for v, m in gs.tail_groups()]
    assert tail == [(-1.0, 8), (-4.0, 1)]


def test_g_sequence_dichotomy_bounds():
    # g_n <= -1 <= g_2 for every regular graph in the sweep
    for seed in range(5):
        g = random_regular(12, 5, seed=seed)
        vals = g_sequence(g).values
        assert vals[1] >= -1.0 - 1e-8
        assert vals[-1] <= -1.0 + 1e-8


def test_self_complementary_eig_bounds_tight_on_paley():
    lo2, hi_min = self_complementary_eig_bounds(13)
    s = eigenvalues(paley(13))
    assert s.second_largest() == pytest.approx(lo2, abs=1e-9)
    assert s.smallest() == pytest.approx(hi_min, abs=1e-9)


def test_haemers_clique_upper():
    # the clique bound n(1+l2)/(n-d+l2) is the complement sandwich's upper end
    assert theta_bounds_complement(10, 3, 1.0, -2.0).upper == pytest.approx(2.5)
    # complete bipartite: bound hits omega exactly
    assert theta_bounds_complement(6, 3, 0.0, -3.0).upper == pytest.approx(2.0)
    with pytest.raises(ValueError):
        theta_bounds_complement(5, 6, 0.0, -1.0)


def test_haemers_maxdeg_reduces_to_regular():
    s = eigenvalues(petersen())
    reg = theta_bounds_complement(10, 3, s.second_largest(), s.smallest()).upper
    gen = haemers_clique_upper_maxdeg(10, 3.0, s.largest(),
                                      s.second_largest(), 3)
    assert gen == pytest.approx(reg, abs=1e-9)


def test_haemers_maxdeg_on_irregular():
    g = path(4)
    s = eigenvalues(g)
    ub = haemers_clique_upper_maxdeg(4, 1.5, s.largest(), s.second_largest(), 2)
    assert ub >= 2.0 - 1e-9      # omega(P4) = 2


def test_ramanujan_bounds():
    # a Ramanujan graph's nontrivial eigenvalues lie in [-2 sqrt(d-1), 2 sqrt(d-1)]
    s = 2.0 * math.sqrt(2.0)
    theta_lower = theta_bounds_regular(10, 3, s, -s).lower
    clique_upper_raw = theta_bounds_complement(10, 3, s, -s).upper
    assert math.floor(clique_upper_raw) == 3
    assert theta_lower == pytest.approx((10 - 3 + 2 * math.sqrt(2))
                                        / (1 + 2 * math.sqrt(2)))
    assert chromatic_lb_strong_product([(10, theta_lower)])[1] == 3
    assert clique_upper_raw > theta_lower


def test_wei_bounds():
    alpha_lb, omega_lb = wei_bounds(petersen().degrees())
    assert alpha_lb == pytest.approx(2.5)
    assert omega_lb == pytest.approx(10.0 / 7.0)


def test_product_eig_bounds_pentagon():
    sqrt5 = math.sqrt(5.0)
    lmin = -(1 + sqrt5) / 2
    p = FactorProducts.of([(5, 2, sqrt5, lmin)])
    assert _eig2_lower(p.order, p.closed, p.theta) == pytest.approx(
        (math.sqrt(5) - 1) / 2, abs=1e-9)
    assert _eigmin_upper(p.closed, p.ratio) == pytest.approx(
        -(1 + math.sqrt(5)) / 2, abs=1e-9)
    # the spectral theta agrees because C5 is strongly regular
    pl = FactorProducts.of([(5, 2, theta_upper_regular(5, 2, lmin), lmin)])
    assert _eig2_lower(pl.order, pl.closed, pl.theta) == pytest.approx(
        _eig2_lower(p.order, p.closed, p.theta), abs=1e-9)
    assert _eigmin_upper(pl.closed, pl.ratio) == pytest.approx(
        _eigmin_upper(p.closed, p.ratio), abs=1e-9)


def test_product_eig_bounds_guard_rails():
    p = FactorProducts.of([(4, 3, 1.0, -1.0)])     # complete factor only
    with pytest.raises(ValueError, match="all factors complete"):
        _eig2_lower(p.order, p.closed, p.theta)
    # an empty factor, (n, d, theta) = (4, 0, 4), has no negative lmin for
    # FactorProducts.of, so its products prod (1 + d) and prod n/theta are
    # passed directly
    with pytest.raises(ValueError, match="all factors empty"):
        _eigmin_upper(1 + 0, 4 / 4.0)


def test_alon_boppana():
    # the Ramanujan threshold is the Alon-Boppana bound 2 sqrt(d-1), d >= 2
    assert ramanujan_verdict(0.0, 2).threshold == pytest.approx(2.0)
    assert ramanujan_verdict(0.0, 3).threshold == pytest.approx(2.0 * math.sqrt(2.0))
    with pytest.raises(ValueError, match="degree"):
        ramanujan_verdict(0.0, 1)


def test_non_ramanujan_k0_preconditions():
    with pytest.raises(ValueError):
        non_ramanujan_k0(6, 3, 3.0)    # theta = n/sqrt(d+1) exactly
    with pytest.raises(ValueError):
        non_ramanujan_k0(5, 0, 1.0)
    assert non_ramanujan_k0(10, 3, 4.0) >= 3


def test_k0_self_complementary_orders():
    assert [k0_self_complementary_vt(n) for n in (5, 9, 13, 17, 21)] == \
        [5, 4, 3, 3, 3]
    with pytest.raises(ValueError):
        k0_self_complementary_vt(8)


def test_chromatic_lb_forms_agree_on_pentagon():
    sqrt5 = math.sqrt(5.0)
    both = chromatic_lb_strong_product([(5, sqrt5), (5, sqrt5)])
    assert both == (5, 5)
    # theta(C5) = -n*lmin/(d-lmin) = sqrt(5): C5 is strongly regular
    lmin = -(1 + sqrt5) / 2
    assert chromatic_lb_strong_product(
        [(5, theta_upper_regular(5, 2, lmin))] * 2) == (5, 5)


def test_srg_product_chromatic_bounds():
    # n/theta_srg(p) = theta(complement); the product colouring gives chi <= 4*7
    factors = [(p[0], theta_srg(SrgParams(*p))[0])
               for p in [(16, 6, 2, 2), (28, 12, 6, 4)]]
    assert chromatic_lb_strong_product(factors)[0] == 28 == 4 * 7


def test_srg_chromatic_factor_values():
    cases = [((27, 16, 10, 8), 9.0), ((16, 6, 2, 2), 4.0),
             ((100, 36, 14, 12), 10.0), ((1782, 416, 100, 96), 27.0),
             ((28, 12, 6, 4), 7.0)]
    for tup, want in cases:
        # the factor is theta of the complement parameter set, n/theta
        t, tc = theta_srg(SrgParams(*tup))
        assert float(tc) == pytest.approx(want, abs=1e-9)
        assert tup[0] / float(t) == pytest.approx(want, abs=1e-9)


def test_affine_polar_params_structure():
    info = affine_polar_params(2, 2, "+")
    assert info.params.as_tuple() == (16, 9, 4, 6)
    assert info.theta == 4.0
    with pytest.raises(ValueError):
        affine_polar_params(2, 2, "x")
    with pytest.raises(ValueError):
        affine_polar_params(1, 2, "+")


def test_product_bound_reports_assembly():
    # Petersen: (n, d, theta, lmin), whose ratio bound -n lmin/(d - lmin) = 4 is theta
    s = eigenvalues(petersen())
    ps = power_spectrum(s, 2)
    reports = FactorProducts.of([(10, 3, 4.0, -2.0)] * 2).reports(
        ps.second_largest(), ps.smallest())
    assert [r.name for r in reports] == [
        "eig2-product-lower", "eigmin-product-upper",
        "eig2-product-lower-lmin", "eigmin-product-upper-lmin"]
    assert all(r.applicable and r.holds(1e-6) for r in reports)
    # a factor is tight when its ratio bound is within EQUALITY_TOL of theta;
    # one that is not disables only the lmin-form upper bound
    for below, tight in [(5e-7, True), (2e-6, False)]:
        factors = [(10, 3, 4.0 - below, -2.0), (10, 3, 4.0, -2.0)]
        got = FactorProducts.of(factors).reports(ps.second_largest(), ps.smallest())
        assert [r.applicable for r in got] == [True, True, True, tight]
        assert got[3].reason == (None if tight else
                                 "factors not all edge-transitive or SRG")
        assert got[3].holds()     # not-applicable reports never violate


def _sweep_graphs():
    yield from (random_regular(n, d, seed=seed) for n, d, seed in
                [(12, 5, 0), (12, 5, 1), (12, 5, 2), (14, 3, 0), (16, 6, 1),
                 (20, 3, 1), (24, 4, 3), (30, 7, 2), (40, 5, 4)])
    yield from (petersen(), frucht(), cycle(7), cycle(9), hypercube(4),
                kneser(7, 2), shrikhande(), paley(13))
    yield from (load_fixture(name) for name in ("perkel", "gosset"))


def test_variant_closed_forms_are_base_form_calls():
    # each closed form below once had its own function; check it against
    # the base-form call that now computes it, on G and on its strong powers
    rel = 1e-12
    checked = 0
    for g in _sweep_graphs():
        n, d = g.n, g.degree()
        s = eigenvalues(g)
        lmin = s.smallest()
        theta_hat = theta_upper_regular(n, d, lmin)
        for k in range(1, 5):
            nk, dk = n ** k, (d + 1) ** k - 1
            l2k, lmink, _ = power_extremes(s, k)
            cb = theta_bounds_complement(nk, dk, l2k, lmink)
            assert cb.lower == pytest.approx(1.0 - dk / lmink, rel=rel)
            assert cb.upper == pytest.approx(nk * (1.0 + l2k) / (nk - dk + l2k),
                                             rel=rel)
            p = FactorProducts.of([(n, d, theta_hat, lmin)] * k)
            ratio = (1.0 - d / lmin) ** k
            assert _eigmin_upper(p.closed, p.ratio) == pytest.approx(
                -((1 + d) ** k - 1.0) / (ratio - 1.0), rel=rel)
            assert chromatic_lb_strong_product([(n, theta_hat)] * k)[0] == \
                math.ceil(ratio - 1e-9)
        checked += 1
    assert checked == 19
