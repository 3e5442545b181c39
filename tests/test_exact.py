"""Exact clique / independent set / coloring solvers checked against
brute-force enumeration on small graphs and known values on named ones."""

import itertools
import math

import numpy as np
import pytest

from thetakit import exact
from thetakit.catalog import load_fixture
from thetakit.exact import (
    CapacityCertificate,
    SolveResult,
    capacity_certificate,
    capacity_power_lb,
    chromatic_number,
    clique_number,
    independence_number,
)
from thetakit.graphs import (
    Graph,
    complete,
    complete_bipartite,
    cycle,
    empty,
    frucht,
    hypercube,
    kneser,
    paley,
    path,
    petersen,
    random_regular,
    shrikhande,
)
from thetakit.products import strong_power
from thetakit.theta import theta_best, theta_exact


def brute_clique(g):
    best = 0
    for r in range(g.n, 0, -1):
        for sub in itertools.combinations(range(g.n), r):
            if all(g.adj[u, v] for u, v in itertools.combinations(sub, 2)):
                return r
    return best


def brute_alpha(g):
    return brute_clique(g.complement()) if g.n else 0


def brute_chi(g):
    if g.n == 0:
        return 0
    for k in range(1, g.n + 1):
        for col in itertools.product(range(k), repeat=g.n):
            if all(col[u] != col[v] for u, v in g.edges()):
                return k
    return g.n


SMALL = [
    ("c5", cycle(5)),
    ("c6", cycle(6)),
    ("c7", cycle(7)),
    ("p4", path(4)),
    ("k4", complete(4)),
    ("e5", empty(5)),
    ("k23", complete_bipartite(2, 3)),
    ("q3", hypercube(3)),
    ("r1", random_regular(10, 3, seed=2)),
    ("r2", random_regular(12, 5, seed=7)),
]


@pytest.mark.parametrize("name,g", SMALL, ids=[n for n, _ in SMALL])
def test_clique_matches_brute_force(name, g):
    res = clique_number(g)
    assert res.status == "exact"
    assert res.value == brute_clique(g)


@pytest.mark.parametrize("name,g", SMALL, ids=[n for n, _ in SMALL])
def test_alpha_matches_brute_force(name, g):
    res = independence_number(g)
    assert res.status == "exact"
    assert res.value == brute_alpha(g)


@pytest.mark.parametrize("name,g",
                         [(n, g) for n, g in SMALL if g.n <= 7],
                         ids=[n for n, g in SMALL if g.n <= 7])
def test_chi_matches_brute_force(name, g):
    res = chromatic_number(g)
    assert res.status == "exact"
    assert res.value == brute_chi(g)


def test_known_values():
    assert clique_number(kneser(6, 2)).value == 3
    assert independence_number(petersen()).value == 4
    assert chromatic_number(petersen()).value == 3
    assert chromatic_number(kneser(6, 2)).value == 4
    assert chromatic_number(hypercube(3)).value == 2
    assert chromatic_number(complete(6)).value == 6
    assert chromatic_number(shrikhande()).value == 4
    assert chromatic_number(frucht()).value == 3
    assert independence_number(paley(13)).value == 3


def test_witness_validity():
    g = petersen()
    res = clique_number(g)
    w = res.witness
    assert len(w) == res.value
    assert all(g.adj[u, v] for u, v in itertools.combinations(w, 2))

    res = independence_number(g)
    w = res.witness
    assert len(w) == res.value
    assert not any(g.adj[u, v] for u, v in itertools.combinations(w, 2))

    res = chromatic_number(g)
    col = res.witness
    assert len(col) == g.n and len(set(col)) == res.value
    assert all(col[u] != col[v] for u, v in g.edges())


def test_solve_result_invariants():
    res = clique_number(cycle(9))
    assert res.lower == res.upper == res.value
    assert res.elapsed >= 0.0
    with pytest.raises(ValueError):
        SolveResult(value=3, lower=2, upper=3, witness=None, status="exact",
                    elapsed=0.0)


def test_timeout_path():
    # a budget of zero forces the bookkeeping-only path
    g = kneser(8, 3)
    res = independence_number(g, budget=0.0)
    if res.status == "timeout":
        assert res.value is None
        assert res.lower <= res.upper
    else:
        assert res.status == "exact"           # fast machines may finish


def test_empty_and_trivial():
    assert clique_number(empty(0)).value == 0
    assert clique_number(empty(4)).value == 1
    assert independence_number(empty(4)).value == 4
    assert chromatic_number(empty(0)).value == 0
    assert chromatic_number(empty(4)).value == 1


def test_capacity_certificate_determined():
    g = petersen()
    th = theta_exact(g)
    cert = capacity_certificate(g, th)
    assert isinstance(cert, CapacityCertificate)
    assert cert.status == "determined"
    assert cert.alpha == 4
    assert cert.capacity == pytest.approx(4.0, abs=1e-6)


def test_capacity_certificate_gap():
    g = cycle(5)
    th = theta_exact(g)
    cert = capacity_certificate(g, th)
    assert cert.status == "gap"
    assert cert.alpha == 2
    assert cert.capacity is None
    assert cert.theta == pytest.approx(5.0 ** 0.5, abs=1e-4)
    assert cert.alpha_result.status == "exact"


def test_capacity_certificate_witness_pinch():
    # exhausting this search space is hopeless, but the greedy witness
    # already meets the theta ceiling, which ends the search with alpha
    # proven even on a zero budget
    g = load_fixture("cameron")
    cert = capacity_certificate(g, 21.0, budget=0.0)
    assert cert.alpha_result.status == "exact"
    assert cert.status == "determined"
    assert cert.alpha == 21
    assert cert.capacity == 21.0


def test_capacity_certificate_stops_at_theta():
    # floor(theta) = 21 is reached by the first witness, so the search
    # returns alpha proven instead of running out the budget
    g = load_fixture("cameron")
    cert = capacity_certificate(g, 21.0, budget=5.0)
    assert cert.alpha_result.status == "exact"
    assert cert.alpha_result.value == cert.alpha == 21


def test_timed_out_interval_ends_at_the_target():
    # alpha(C7^3) = 33 is out of reach of a short search; the colouring
    # bound at the root is 64, but floor(theta(C7)^3) = 36 is proven
    th = theta_exact(cycle(7)) ** 3
    cert = capacity_certificate(strong_power(cycle(7), 3), th, budget=0.5)
    res = cert.alpha_result
    assert res.status == "timeout"
    assert res.lower <= res.upper <= 36


def gnp(n, p, seed):
    a = np.triu(np.random.default_rng(seed).random((n, n)) < p, 1)
    return Graph(a | a.T)


def naive_degeneracy_order(g):
    left = set(range(g.n))
    order = []
    while left:
        v = min(left, key=lambda u: (sum(g.adj[u, w] for w in left), u))
        order.append(v)
        left.remove(v)
    return order


@pytest.mark.parametrize("seed", range(12))
def test_degeneracy_order_matches_naive_reference(seed):
    # sparse graphs tie on degree often, so the lowest-index rule is exercised
    g = gnp(5 + 4 * seed, (0.1, 0.3, 0.6)[seed % 3], seed)
    assert exact._degeneracy_order(g.adj) == naive_degeneracy_order(g)


@pytest.mark.parametrize("g,target", [(cycle(5), 2), (paley(29), 5)],
                         ids=["c5", "paley29"])
def test_alpha_with_target_matches_untargeted(g, target):
    # paley29 has alpha 4 < 5, so the targeted search must still finish
    res = independence_number(g, target=target)
    assert res.status == "exact"
    assert res.value == independence_number(g).value


@pytest.mark.parametrize("seed", range(6))
def test_alpha_with_target_matches_brute_force(seed, monkeypatch):
    g = gnp(9 + seed, (0.25, 0.5, 0.75)[seed % 3], seed)
    alpha = brute_alpha(g)
    for greedy_start in (True, False):
        if not greedy_start:
            # the greedy start finds alpha on graphs this small, so the
            # branch and bound alone must then reach the target
            monkeypatch.setattr(exact, "_greedy_clique", lambda masks, n: ())
        for target in (alpha, alpha + 1):
            res = independence_number(g, target=target)
            assert res.status == "exact"
            assert res.value == alpha == len(res.witness)
            assert not any(g.adj[u, v]
                           for u, v in itertools.combinations(res.witness, 2))


CHI_LOWER = [("petersen", petersen), ("shrikhande", shrikhande),
             ("frucht", frucht), ("kneser62", lambda: kneser(6, 2)),
             ("chang1", lambda: load_fixture("chang1"))]


@pytest.mark.parametrize("name,make", CHI_LOWER, ids=[n for n, _ in CHI_LOWER])
def test_chi_with_theta_lower_matches_unbounded(name, make):
    g = make()
    lower = math.ceil(g.n / float(theta_best(g).value) - 1e-9)
    res = chromatic_number(g, lower=lower)
    assert res.status == "exact"
    assert res.value == chromatic_number(g).value
    assert all(res.witness[u] != res.witness[v] for u, v in g.edges())


def test_chi_lower_at_dsatur_bound_skips_search(monkeypatch):
    def no_search(*args):
        raise AssertionError("search ran")

    monkeypatch.setattr(exact, "_k_colorable", no_search)
    monkeypatch.setattr(exact, "_max_clique_masks", no_search)
    # ceil(n / theta) = 3 on both, and DSATUR colors both with 3 colors
    for g in (petersen(), frucht()):
        res = chromatic_number(g, lower=3)
        assert res.status == "exact" and res.value == 3
        assert all(res.witness[u] != res.witness[v] for u, v in g.edges())


def test_capacity_power_lb_pentagon():
    root, res = capacity_power_lb(cycle(5), 2)
    assert res.status == "exact"
    assert res.value == 5                      # alpha of C5 box C5
    assert root == pytest.approx(5.0 ** 0.5, abs=1e-9)


def test_capacity_power_lb_cap():
    with pytest.raises(ValueError):
        capacity_power_lb(petersen(), 5)       # a 10^5-vertex adjacency is over the byte budget
