"""Strong-regularity certification and parameter arithmetic."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import pytest

from thetakit import graphs
from thetakit.catalog import fixture_names, load_fixture
from thetakit.graphs import (
    Graph,
    complete,
    complete_bipartite,
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
from thetakit.products import strong_product
from thetakit.srg import (SrgParams, _srg_identity, srg_check, srg_check_bytes,
                          srg_params_feasible)
from thetakit.theta import theta_srg


def test_srg_check_positives():
    cases = [
        (petersen(), (10, 3, 0, 1)),
        (shrikhande(), (16, 6, 2, 2)),
        (paley(13), (13, 6, 2, 3)),
        (cycle(5), (5, 2, 0, 1)),
        (complete_bipartite(3, 3), (6, 3, 0, 3)),
        (kneser(6, 2), (15, 6, 1, 3)),
        # disconnected union of equal cliques: mu = 0
        (disjoint_union(complete(3), complete(3)), (6, 2, 1, 0)),
    ]
    for g, want in cases:
        got = srg_check(g).as_tuple()
        assert got == want
        assert all(type(x) is int for x in got)


def test_srg_check_negatives():
    for g in [cycle(6), cycle(7), frucht(), hypercube(3), hypercube(4),
              path(4), complete(5), complete_bipartite(2, 3)]:
        assert srg_check(g) is None


def test_srg_check_is_refused_over_the_budget(monkeypatch):
    # C200 is built in 3 * 200^2 bytes; its check needs 12 * 200^2
    g = cycle(200)
    monkeypatch.setattr(graphs, "DENSE_BYTE_BUDGET", 200_000)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="SRG check.*budget"):
            srg_check(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 200_000
    # an irregular graph allocates nothing, so it is answered
    assert srg_check(path(200)) is None


def test_srg_check_peak_within_its_estimate():
    # the budget check trusts srg_check_bytes, so it must bound the peak
    g = random_regular(1000, 4, 0)
    g.degree()
    tracemalloc.start()
    try:
        assert srg_check(g) is None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= srg_check_bytes(g.n)


def test_complement_params_consistent():
    p = srg_check(petersen())
    assert p.complement().as_tuple() == (10, 6, 3, 4)
    assert srg_check(petersen().complement()).as_tuple() == (10, 6, 3, 4)


def test_eigenvalues_and_multiplicities():
    p = SrgParams(10, 3, 0, 1)
    p1, p2 = p.eigenvalues()
    assert p1 == pytest.approx(1.0) and p2 == pytest.approx(-2.0)
    assert p.multiplicities() == (Fraction(5), Fraction(4))
    assert p.disc == 9


def test_conference_multiplicities():
    p = SrgParams(5, 2, 0, 1)
    assert p.multiplicities() == (Fraction(2), Fraction(2))
    assert srg_params_feasible(p).conference


def test_feasibility_accepts_known_tuples():
    for tup in [(10, 3, 0, 1), (16, 6, 2, 2), (100, 36, 14, 12),
                (50, 7, 0, 1), (27, 16, 10, 8), (56, 10, 0, 2),
                (77, 16, 0, 4), (231, 30, 9, 3), (28, 12, 6, 4),
                (1782, 416, 100, 96)]:
        f = srg_params_feasible(SrgParams(*tup))
        assert f.feasible, (tup, f.reason)
        assert f.m1.denominator == 1 and f.m2.denominator == 1


def test_feasibility_rejects_bad_tuples():
    # counting relation fails
    f = srg_params_feasible(SrgParams(10, 3, 0, 2))
    assert not f.feasible and not f.relation_ok
    # irrational eigenvalue split with unequal multiplicities
    f = srg_params_feasible(SrgParams(13, 6, 3, 2))
    assert not f.feasible
    assert "irrational" in f.reason
    # degenerate degree
    assert not srg_params_feasible(SrgParams(5, 0, 0, 0)).feasible
    assert not srg_params_feasible(SrgParams(5, 4, 3, 0)).feasible


def test_multiplicities_none_on_irrational_unbalanced():
    assert SrgParams(13, 6, 3, 2).multiplicities() is None


def brute_srg(g):
    """(n, d, lam, mu) by counting common neighbours pair by pair, or None."""
    nbrs = [set(g.neighbors(v).tolist()) for v in range(g.n)]
    degrees = {len(s) for s in nbrs}
    counts = (set(), set())    # common-neighbour counts over non-edges, edges
    for u, v in itertools.combinations(range(g.n), 2):
        counts[v in nbrs[u]].add(len(nbrs[u] & nbrs[v]))
    if len(degrees) != 1 or len(counts[0]) != 1 or len(counts[1]) != 1:
        return None
    (mu,), (lam,), (d,) = counts[0], counts[1], degrees
    return (g.n, d, lam, mu)


def rook_4x4():
    """K4 x K4 (Cartesian): srg(16, 6, 2, 2), not isomorphic to Shrikhande."""
    cells = list(itertools.product(range(4), repeat=2))
    return Graph.from_edge_list(16, [(i, j) for (i, a), (j, b)
                                     in itertools.combinations(enumerate(cells), 2)
                                     if a[0] == b[0] or a[1] == b[1]])


IDENTITY_CASES = (
    [(name, lambda name=name: load_fixture(name)) for name in fixture_names()]
    + [("shrikhande", shrikhande), ("rook4x4", rook_4x4), ("frucht", frucht),
       ("c5xc5", lambda: strong_product(cycle(5), cycle(5)))]
    + [(f"rr24-4-{s}", lambda s=s: random_regular(24, 4, s)) for s in range(3)])


@pytest.mark.parametrize("name,build", IDENTITY_CASES,
                         ids=[name for name, _ in IDENTITY_CASES])
def test_srg_identity_matches_a_pairwise_count(name, build):
    g = build()
    got = _srg_identity(g)
    assert (got and got.as_tuple()) == brute_srg(g)
    # Gosset and Perkel are distance-regular of diameter 3, not strongly regular
    regular_not_srg = ("gosset", "perkel", "frucht", "c5xc5")
    assert (got is None) == (name in regular_not_srg or name.startswith("rr"))


def feasible_params(max_n):
    """Every feasible parameter set on at most max_n vertices: mu is fixed
    by the counting relation (n - d - 1) mu = d (d - lam - 1)."""
    for n in range(4, max_n + 1):
        for d in range(1, n - 1):
            for lam in range(d):
                mu, rem = divmod(d * (d - lam - 1), n - d - 1)
                if rem == 0 and mu <= d:
                    p = SrgParams(n, d, lam, mu)
                    if srg_params_feasible(p).feasible:
                        yield p


def old_theta_srg(p):
    """theta_srg's rational branch as a chain of Fraction operations."""
    n, d, lam, mu = p.as_tuple()
    t = Fraction(math.isqrt(p.disc))
    theta = Fraction(n) * (t + mu - lam) / (2 * d + t + mu - lam)
    return theta, Fraction(n) / theta


def old_multiplicities(p):
    """SrgParams.multiplicities' rational branch as nested Fractions."""
    n, d, lam, mu = p.as_tuple()
    num = 2 * d + (n - 1) * (lam - mu)
    s = math.isqrt(p.disc)
    return (Fraction(n - 1 - Fraction(num, s), 2),
            Fraction(n - 1 + Fraction(num, s), 2))


def test_closed_forms_match_the_fraction_chains():
    checked = 0
    for p in feasible_params(200):
        mults = p.multiplicities()
        if math.isqrt(p.disc) ** 2 != p.disc:
            # conference parameters: half each way, theta a float
            assert mults == (Fraction(p.n - 1, 2),) * 2
            assert all(type(t) is float for t in theta_srg(p))
            continue
        for got, want in ((mults, old_multiplicities(p)),
                          (theta_srg(p), old_theta_srg(p))):
            assert got == want
            assert [type(x) for x in got] == [Fraction, Fraction]
        checked += 1
    assert checked > 1800
