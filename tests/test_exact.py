"""Exact clique / independent set / coloring solvers checked against
brute-force enumeration on small graphs and known values on named ones."""

import itertools
import math
import sys
import time

import numpy as np
import pytest

from thetakit import exact, graphs, slices
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
    disjoint_union,
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
from thetakit.catalog import entries
from thetakit.products import strong_power, strong_product
from thetakit.theta import alpha_ceiling, theta_best, theta_exact


def inertia_bound(g):
    """Cvetkovic's inertia bound: alpha <= min(n - n_plus, n - n_minus),
    counting the eigenvalues above 1e-9 and below -1e-9."""
    w = np.linalg.eigvalsh(g.adj.astype(np.float64))
    return g.n - max(int((w > 1e-9).sum()), int((w < -1e-9).sum()))


@pytest.fixture(autouse=True)
def inertia_oracle(monkeypatch):
    """Check every exact alpha a test here computes, directly or through
    chromatic_number and the capacity functions, against the inertia
    bound once the test has run (outside any timed search)."""
    found = {}
    search = exact.independence_number

    def checked(g, *args, **kwargs):
        res = search(g, *args, **kwargs)
        if res.status == "exact":
            found[id(g)] = (g, res.value)
        return res

    monkeypatch.setattr(exact, "independence_number", checked)
    monkeypatch.setitem(globals(), "independence_number", checked)
    yield
    for g, alpha in found.values():
        assert alpha <= inertia_bound(g)


def test_inertia_bound_on_known_spectra():
    # the oracle itself, where alpha meets it: Petersen 3, 1^5, (-2)^4
    # gives 10 - 6 = 4; C5 2, 0.618^2, (-1.618)^2 gives 5 - 3 = 2; K6
    # 5, (-1)^5 gives 6 - 5 = 1; an edgeless graph has only zeros
    assert inertia_bound(petersen()) == 4
    assert inertia_bound(cycle(5)) == 2
    assert inertia_bound(complete(6)) == 1
    assert inertia_bound(empty(4)) == 4


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


def spy_clique_searches(monkeypatch):
    """Count the calls of the clique branch and bound."""
    calls = []
    search = exact._clique_search

    def spy(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(exact, "_clique_search", spy)
    return calls


def greedy_reaches(g, target):
    """Whether the greedy clique of g (of its neighbourhood of vertex 0
    when g is flagged vertex-transitive) already has `target` vertices."""
    if g.meta.vertex_transitive:
        g, target = g.subgraph(g.neighbors(0)), target - 1
    found = exact._greedy_clique(exact._pack(g.adj), g.n, exact._Budget(60.0),
                                 ceiling=target)
    return len(found) >= target


# the greedy descents start at the K5,5's vertices, of highest degree,
# and find only edges, so the clique search must find the K4
HIDDEN_K4 = ("k55+k4", disjoint_union(complete_bipartite(5, 5), complete(4)))


@pytest.mark.parametrize("name,g", SMALL + [HIDDEN_K4],
                         ids=[n for n, _ in SMALL + [HIDDEN_K4]])
def test_a_greedy_set_at_the_target_ends_the_search(name, g, monkeypatch):
    # with the true value as target, the answer is the brute-force value
    # and a witness of that size; the branch and bound runs only when the
    # greedy set falls short of the target
    calls = spy_clique_searches(monkeypatch)
    for solve, brute, graph, edge in (
            (clique_number, brute_clique, g, True),
            (independence_number, brute_alpha, g.complement(), False)):
        h = g.with_meta()   # a fresh memo, so alpha is searched again
        want = brute(h)
        calls.clear()
        res = solve(h, target=want)
        assert res.status == "exact" and res.value == want
        assert len(set(res.witness)) == want
        assert all(h.adj[u, v] == edge for u, v in itertools.combinations(res.witness, 2))
        assert (calls == []) == greedy_reaches(graph, want)
    if name == HIDDEN_K4[0]:
        assert not greedy_reaches(g, 4)


def test_greedy_alpha_at_floor_theta_skips_the_search(monkeypatch):
    # Petersen's and Cameron's greedy independent sets reach floor(theta)
    # (4 and 21), which proves alpha with no branch and bound
    calls = spy_clique_searches(monkeypatch)
    for g, alpha in ((petersen(), 4), (load_fixture("cameron"), 21)):
        res = independence_number(g, target=alpha)
        assert res.status == "exact" and res.value == alpha
        assert not any(g.adj[u, v] for u, v in itertools.combinations(res.witness, 2))
    assert calls == []


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


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("bounded", [False, True], ids=["plain", "bounded"])
def test_edgeless_chi_is_one_exact_colouring(n, bounded):
    # the general path colours an edgeless graph with colour 0 alone
    g = empty(n)
    kwargs = {"lower": 1, "alpha_upper": n} if bounded else {}
    res = chromatic_number(g, **kwargs)
    assert (res.value, res.lower, res.upper, res.status) == (1, 1, 1, "exact")
    assert res.witness == (0,) * n
    assert_proper(g, res.witness, 1)


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


@pytest.mark.parametrize("args,lower,upper", [((30, 0.5, 0), 5, 11),
                                              ((50, 0.7, 3), 11, 19)])
def test_timeout_upper_is_the_degeneracy_ordered_color_bound(args, lower,
                                                             upper):
    # a budget of zero stops the search at the root: the interval runs from
    # the greedy clique to the root coloring in degeneracy order, which
    # reads 9 and 17 on these graphs in input order
    res = clique_number(gnp(*args), 0.0)
    assert res.status == "timeout"
    assert (res.lower, res.upper) == (lower, upper)


def naive_dsatur(g):
    colors = [-1] * g.n
    for _ in range(g.n):
        def key(u):
            seen = {colors[w] for w in range(g.n) if g.adj[u, w]} - {-1}
            return (len(seen), int(g.adj[u].sum()), -u)
        v = max((u for u in range(g.n) if colors[u] < 0), key=key)
        taken = {colors[w] for w in range(g.n) if g.adj[v, w]}
        colors[v] = min(c for c in range(g.n) if c not in taken)
    return colors


DSATUR_NAMED = [("petersen", petersen), ("frucht", frucht),
                ("paley29", lambda: paley(29)),
                ("m22", lambda: load_fixture("m22"))]


@pytest.mark.parametrize(
    "g", [gnp(6 + 3 * seed, (0.15, 0.4, 0.7)[seed % 3], seed)
          for seed in range(12)] + [make() for _, make in DSATUR_NAMED],
    ids=[f"gnp{seed}" for seed in range(12)] + [n for n, _ in DSATUR_NAMED])
def test_greedy_descent_is_naive_dsatur(g):
    # with k = n the backtracking search never backtracks: its first
    # coloring is the DSATUR coloring
    verdict, cols = exact._k_colorable(*exact._by_rank(g), g.n,
                                       exact._Budget(math.inf), ())
    assert verdict is True
    assert cols == naive_dsatur(g)


@pytest.mark.parametrize("g,target", [(cycle(5), 2), (paley(29), 5)],
                         ids=["c5", "paley29"])
def test_alpha_with_target_matches_untargeted(g, target):
    # paley29 has alpha 4 < 5, so the targeted search must still finish;
    # each call gets a copy of g with an empty memo, so each one searches
    res = independence_number(g.with_meta(), target=target)
    assert res.status == "exact"
    assert res.value == independence_number(g.with_meta()).value


@pytest.mark.parametrize("seed", range(6))
def test_alpha_with_target_matches_brute_force(seed, monkeypatch):
    g = gnp(9 + seed, (0.25, 0.5, 0.75)[seed % 3], seed)
    alpha = brute_alpha(g)
    for greedy_start in (True, False):
        if not greedy_start:
            # the greedy start finds alpha on graphs this small, so the
            # branch and bound alone must then reach the target
            monkeypatch.setattr(exact, "_greedy_clique", lambda masks, n, budget, ceiling: ())
        for target in (alpha, alpha + 1):
            # a copy with an empty memo, so that every call searches
            res = independence_number(g.with_meta(), target=target)
            assert res.status == "exact"
            assert res.value == alpha == len(res.witness)
            assert not any(g.adj[u, v]
                           for u, v in itertools.combinations(res.witness, 2))


@pytest.mark.parametrize("seconds", [math.nan, -1.0, -math.inf])
def test_a_budget_is_a_number_of_seconds(seconds):
    # a NaN deadline never passes, and a negative one would report a
    # timeout with no search; an infinite budget stays legal
    with pytest.raises(ValueError, match="budget"):
        exact._Budget(seconds)
    with pytest.raises(ValueError, match="budget"):
        chromatic_number(petersen(), seconds)
    with pytest.raises(ValueError, match="budget"):
        capacity_power_lb(cycle(5), 2, seconds)
    assert not exact._Budget(math.inf).check_now()


def test_greedy_start_runs_one_descent_past_the_deadline():
    # on G(30, 0.5) seed 0 the first of the eight descents finds 5
    # vertices and a later one 6; past the deadline only the first runs,
    # and the search that follows sees the budget spent
    g = gnp(30, 0.5, 0)
    masks = exact._pack(g.adj)
    assert len(exact._greedy_clique(masks, g.n, exact._Budget(math.inf))) == 6
    spent = exact._Budget(0.0)
    first = exact._greedy_clique(masks, g.n, spent)
    assert len(first) == 5 and spent.expired
    assert all(g.adj[u, v] for u, v in itertools.combinations(first, 2))
    res = clique_number(g, 0.0)
    assert res.status == "timeout" and res.lower == 5 <= res.upper


def test_greedy_start_stops_at_the_ceiling(monkeypatch):
    # alpha(Cameron) = 21 = floor(theta): the search runs on the 210
    # non-neighbours of vertex 0 with ceiling 20, and the first greedy
    # descent already reaches it, so the other seven do not run
    descents = []
    descent = exact._greedy_descent

    def spy(masks, seed):
        clique = descent(masks, seed)
        descents.append(len(clique))
        return clique

    monkeypatch.setattr(exact, "_greedy_descent", spy)
    res = independence_number(load_fixture("cameron"), target=21)
    assert res.status == "exact" and res.value == 21
    assert descents == [20]


# (graph, k or None for k = n with no seed, verdict, search nodes counted
# as budget polls by the search that walked neighbour tuples)
DSATUR_NODES = [(lambda: load_fixture("m22"), 4, False, 1864),
                (lambda: load_fixture("m22"), 5, True, 255),
                (lambda: load_fixture("hall_janko"), 6, False, 195),
                (lambda: load_fixture("hall_janko"), 7, False, 11154),
                (lambda: paley(29), 6, False, 453),
                (lambda: kneser(8, 2), 5, False, 224),
                (lambda: load_fixture("perkel"), 3, True, 422),
                (lambda: load_fixture("cameron"), None, True, 232)]


def test_dsatur_is_node_for_node_unchanged():
    # the same verdicts after exactly as many search nodes as before the
    # search ran on packed rows; every search but the k = n descent starts
    # from clique_number's witness
    for make, k, verdict, nodes in DSATUR_NODES:
        g = make()
        seed = () if k is None else clique_number(g).witness
        b = exact._Budget(60.0)
        got, cols = exact._k_colorable(*exact._by_rank(g), k or g.n, b, seed)
        assert (got, b._tick) == (verdict, nodes)
        if verdict:
            assert_proper(g, cols, max(cols) + 1)
            assert max(cols) < (k or g.n)
            assert all(cols[v] == c for c, v in enumerate(seed))
        else:
            assert cols is None
    # the greedy k = n descent: one node per vertex and one to finish
    for seed in range(30):
        h = gnp(5 + seed % 20, (0.2, 0.4, 0.6)[seed % 3], 100 + seed)
        b = exact._Budget(60.0)
        verdict, cols = exact._k_colorable(*exact._by_rank(h), h.n, b, ())
        assert verdict is True and cols == naive_dsatur(h)
        assert b._tick == h.n + 1


def test_a_seed_that_saturates_a_vertex_fails_at_the_first_node():
    # K4 plus a vertex 4 joined to 0 and 1, with three of K4's vertices as
    # the seed at k = 3: the fourth sees all three colors, so it is picked
    # before vertex 4 and the first node fails, as under the plain rule
    g = Graph.from_edge_list(5, [(u, v) for u, v in itertools.combinations(
        range(4), 2)] + [(0, 4), (1, 4)])
    for seed in ((0, 1, 2), (2, 0, 3)):
        b = exact._Budget(60.0)
        got = exact._k_colorable(*exact._by_rank(g), 3, b, seed)
        assert got == naive_k_colorable(g, 3, seed) == (False, None)
        assert b._tick == 1


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


def naive_k_colorable(g, k, clique_seed=()):
    """Backtracking k-coloring, recursive and unpruned, that colors next
    the uncolored vertex of least (-saturation, -degree, index) and tries
    colors from 0 up to one past the largest in use."""
    if len(clique_seed) > k:
        return False, None
    colors = [-1] * g.n
    for i, v in enumerate(clique_seed):
        colors[v] = i
    degs = g.degrees()

    def saturation(u):
        return len({colors[w] for w in g.neighbors(u)} - {-1})

    def solve(used):
        free = [u for u in range(g.n) if colors[u] < 0]
        if not free:
            return True
        v = min(free, key=lambda u: (-saturation(u), -degs[u], u))
        taken = {colors[w] for w in g.neighbors(v)}
        for c in range(min(k, used + 1)):
            if c not in taken:
                colors[v] = c
                if solve(max(used, c + 1)):
                    return True
        colors[v] = -1
        return False

    return (True, colors) if solve(len(clique_seed)) else (False, None)


@pytest.mark.parametrize("seed", range(16))
def test_k_colorable_matches_the_plain_dsatur_rule(seed):
    # the same verdicts and the same first colorings, with and without a
    # clique seed, on every k from 1 to one past the chromatic number
    g = gnp(7 + seed % 8, (0.25, 0.45, 0.65, 0.85)[seed % 4], seed)
    packed = exact._by_rank(g)
    clique = clique_number(g).witness
    chi = chromatic_number(g).value
    for k in range(1, chi + 2):
        for clique_seed in ((), clique):
            got = exact._k_colorable(*packed, k, exact._Budget(60.0),
                                     clique_seed)
            assert got == naive_k_colorable(g, k, clique_seed)


@pytest.mark.parametrize("g", [petersen(), cycle(7), frucht(), path(6),
                               complete_bipartite(2, 5), gnp(20, 0.4, 3)],
                         ids=lambda g: g.meta.name or "gnp")
def test_by_rank_matches_the_sorted_construction(g):
    order = sorted(range(g.n), key=(-g.degrees()).tolist().__getitem__)
    rank = sorted(range(g.n), key=order.__getitem__)
    rows, got = exact._by_rank(g)
    assert rows == exact._pack(g.adj[np.ix_(order, order)])
    assert got == rank and all(type(r) is int for r in got)


def only_greedy_descent(monkeypatch):
    """Let `_k_colorable` run only with k = n, the greedy DSATUR descent:
    any refutation search (k < n) fails the test."""
    k_colorable = exact._k_colorable

    def spy(rows, rank, k, budget, clique_seed):
        if k < len(rows):
            raise AssertionError("search ran")
        return k_colorable(rows, rank, k, budget, clique_seed)

    monkeypatch.setattr(exact, "_k_colorable", spy)


def test_chi_lower_at_dsatur_bound_skips_search(monkeypatch):
    def no_search(*args):
        raise AssertionError("search ran")

    only_greedy_descent(monkeypatch)
    monkeypatch.setattr(exact, "_clique_search", no_search)
    # ceil(n / theta) = 3 on both, and DSATUR colors both with 3 colors
    for g in (petersen(), frucht()):
        res = chromatic_number(g, lower=3)
        assert res.status == "exact" and res.value == 3
        assert all(res.witness[u] != res.witness[v] for u, v in g.edges())


@pytest.mark.parametrize("g,budget", [(cycle(1201), 60.0),
                                      (random_regular(1500, 4, 1), 5.0)],
                         ids=["c1201", "rr1500"])
def test_chi_search_depth_is_unlimited(g, budget):
    # one search frame per colored vertex: deeper than Python's recursion limit
    res = chromatic_number(g, budget)
    assert res.status == "exact" and res.value == 3
    assert_proper(g, res.witness, 3)


def _spy_targets(monkeypatch):
    targets = []
    search = exact.independence_number

    def spy(g, budget, target=None):
        targets.append(target)
        return search(g, budget, target=target)

    monkeypatch.setattr(exact, "independence_number", spy)
    monkeypatch.setattr(slices, "independence_number", spy)
    return targets


def test_capacity_power_lb_pentagon(monkeypatch):
    # floor(theta(C5)^2) = 5: the first independent 5-set ends the search
    targets = _spy_targets(monkeypatch)
    root, res = capacity_power_lb(cycle(5), 2)
    assert targets == [2, 5]                   # alpha(C5) seeds, then C5^2
    assert res.status == "exact"
    assert res.value == 5                      # alpha of C5 box C5
    assert root == pytest.approx(5.0 ** 0.5, abs=1e-9)


def test_capacity_power_lb_keeps_the_witness_on_a_timeout(monkeypatch):
    # C7^4 is not decided in 1 s: its rung lists C7^3's maximum 33-sets at
    # best. Each rung's first set is the product of the rung below's and
    # alpha(C7)'s, so the witness holds at least 3 * 3 * 3 * 3 = 81 vertices
    # however far the rungs got, and floor(theta(C7)^4) = 121 bounds the
    # interval from above. C7 is decided at its target 3 and C7^2 by the
    # slice search; only the shift floor of C7^3 (target 10) may search
    # alpha after that, if the machine gets that far within the second
    targets = _spy_targets(monkeypatch)
    bound, res = capacity_power_lb(cycle(7), 4, budget=1.0)
    assert targets in ([3], [3, 10])
    assert res.status == "timeout" and res.value is None
    assert 81 <= res.lower < res.upper <= 121
    assert bound == len(res.witness) ** (1 / 4)
    assert res.lower == len(res.witness)
    w = list(res.witness)
    assert not strong_power(cycle(7), 4).adj[np.ix_(w, w)].any()


def test_capacity_power_lb_short_budget_keeps_an_independent_witness():
    # at 0.1 s the product of the factor witnesses may beat the search's
    # own set; either way the witness is independent in C7^3
    bound, res = capacity_power_lb(cycle(7), 3, budget=0.1)
    assert res.status == "timeout"
    assert res.lower == len(res.witness) <= 33 <= res.upper
    assert res.upper <= 35                     # the slice bound, not theta's 36
    assert bound == len(res.witness) ** (1 / 3)
    pk = strong_power(cycle(7), 3)
    assert not any(pk.adj[u, v]
                   for u, v in itertools.combinations(res.witness, 2))


def test_capacity_power_lb_cap():
    with pytest.raises(ValueError):
        capacity_power_lb(petersen(), 5)       # a 10^5-vertex adjacency is over the byte budget


def test_capacity_power_lb_refuses_before_any_search(monkeypatch):
    # the seed searches on Petersen and Petersen^4 would take seconds
    g = petersen()
    targets = _spy_targets(monkeypatch)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="budget"):
        capacity_power_lb(g, 5, 4.0)
    assert time.perf_counter() - start < 0.1
    assert targets == []


def _slice_search(h, length, maps=None):
    """The slice search on h x C_length, with alpha(h) searched exactly;
    maps defaults to the identity alone, a group that takes every slice."""
    cyc = exact._cycle_order(cycle(length))
    maps = np.arange(h.n)[None] if maps is None else maps
    alpha = independence_number(h).value
    maxsets = slices._maximum_sets(h, alpha, exact._Budget(60))
    return slices._Slices(h, alpha, maps, cyc, maxsets), alpha


def _slice_targets(length, alpha_h):
    """The targets the slice search takes: deficit 0 to SLICE_DEFICIT."""
    top = length * alpha_h // 2
    return range((length * alpha_h - slices.SLICE_DEFICIT + 1) // 2, top + 1)


def assert_slice_search_agrees(h, length, maps=None):
    g = strong_product(h, cycle(length))
    alpha = independence_number(g).value
    search, alpha_h = _slice_search(h, length, maps)
    for t in _slice_targets(length, alpha_h):
        budget = exact._Budget(60)
        found = search.search(t, budget)
        assert not budget.expired
        assert (found is not None) == (t <= alpha), t
        if found:
            assert len(found) >= t
            assert not g.adj[np.ix_(found, found)].any()


def _dihedral(length):
    return slices._cycle_power_maps(exact._cycle_order(cycle(length)), 1)


@pytest.mark.parametrize("h, length, maps", [
    (cycle(5), 5, _dihedral(5)),
    (cycle(5), 7, _dihedral(5)),
    (cycle(7), 5, _dihedral(7)),
    (cycle(7), 7, _dihedral(7)),
    (complete(3), 5, np.array(list(itertools.permutations(range(3))))),
], ids=["C5xC5", "C5xC7", "C7xC5", "C7xC7", "K3xC5"])
def test_slice_search_agrees_with_exact_alpha(h, length, maps):
    # found exactly when t <= alpha(h x C_L), for every target it takes
    assert_slice_search_agrees(h, length, maps)


@pytest.mark.parametrize("seed", range(8))
def test_slice_search_agrees_on_random_graphs(seed):
    # irregular h with no symmetry assumed; refutations as well as finds
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 8))
    a = np.triu(rng.random((n, n)) < 0.4, 1)
    assert_slice_search_agrees(Graph(a | a.T), 5 + 2 * (seed % 2))


def test_slice_search_joins_two_short_pairs(monkeypatch):
    # C5 x C5 has 4-sets whose pairs fall short by 1 twice, e.g. slices
    # {}, {0, 2}, {}, {1}, {3}: with the one-short-pair closure switched
    # off, the meet in the middle alone still finds one
    monkeypatch.setattr(slices._Slices, "_close", lambda self, layers, near0: None)
    search, _ = _slice_search(cycle(5), 5, _dihedral(5))
    found = search.search(4, exact._Budget(60))
    assert found is not None and len(found) == 4
    assert not strong_power(cycle(5), 2).adj[np.ix_(found, found)].any()


def _short_pairs(g_set, alpha_h, cyc):
    """How many cyclic slice pairs of a set of h x C_L fall short of
    alpha(h), by 1 and by more."""
    sizes = [0] * len(cyc)
    for v in g_set:
        sizes[cyc.index(v % len(cyc))] += 1
    short = [alpha_h - sizes[j] - sizes[(j + 1) % len(cyc)] for j in range(len(cyc))]
    return sum(d == 1 for d in short), sum(d > 1 for d in short)


@pytest.mark.parametrize("length", [5, 7])
@pytest.mark.parametrize("shape", ["close", "join"])
def test_slice_shapes_match_brute_force(shape, length, monkeypatch):
    # every graph on 4 labelled vertices: with the other shape switched off,
    # a t-set is found exactly when some t-set of h x C_L has that shape,
    # at most one short pair ("close") or two pairs short by 1 ("join")
    other = "_join" if shape == "close" else "_close"
    monkeypatch.setattr(slices._Slices, other, lambda self, *args: None)
    cyc = exact._cycle_order(cycle(length))
    pairs = list(itertools.combinations(range(4), 2))
    for mask in range(1 << len(pairs)):
        h = Graph.from_edge_list(4, [e for i, e in enumerate(pairs) if mask >> i & 1])
        g = strong_product(h, cycle(length))
        search, alpha_h = _slice_search(h, length)
        for t in _slice_targets(length, alpha_h):
            _, sets = exact._clique_search(g.complement().adj, exact._Budget(60), t, t)
            counts = [_short_pairs(list(exact._bits(x)), alpha_h, cyc) for x in sets]
            want = any(c[0] + c[1] <= 1 if shape == "close" else c == (2, 0)
                       for c in counts)
            assert (search.search(t, exact._Budget(60)) is not None) == want, (mask, t)


def test_slice_search_positive_control():
    # alpha(C7 x C7) = 10 = floor(7 * 3 / 2): t = 10 is found, independent
    search, _ = _slice_search(cycle(7), 7, _dihedral(7))
    found = search.search(10, exact._Budget(60))
    assert len(found) == 10
    assert not strong_power(cycle(7), 2).adj[np.ix_(found, found)].any()


def test_slice_search_refutes_twelve_on_c5_cubed():
    # C5^3 cut by its last factor: alpha(C5^2) = 5 and t = 12 leave a
    # deficit of 1, but alpha(C5^3) = 10
    cyc = exact._cycle_order(cycle(5))
    h = strong_power(cycle(5), 2)
    budget = exact._Budget(60)
    maxsets = slices._maximum_sets(h, 5, budget)
    search = slices._Slices(h, 5, slices._cycle_power_maps(cyc, 2), cyc, maxsets)
    assert search.search(12, budget) is None
    assert not budget.expired


def _reference_walk(maxsets, first, depth):
    """The walk by reach sets one slice at a time, on Python int bitsets:
    the slices one maximum step on from s are M ^ s for each maximum set M
    that holds s, found by ANDing per-vertex bitsets of maximum-set indices."""
    holding = {}
    for i, m in enumerate(maxsets):
        for v in exact._bits(m):
            holding[v] = holding.get(v, 0) | 1 << i

    def steps(s):
        held = (1 << len(maxsets)) - 1
        for v in exact._bits(s):
            held &= holding.get(v, 0)
        return [maxsets[i] ^ s for i in exact._bits(held)]

    layers = [{first}]
    for _ in range(depth):
        layers.append({y for x in layers[-1] for y in steps(x)})
    return layers


def _as_int(row):
    return int.from_bytes(row.tobytes(), "little")


def _keyed_sets(layer, key):
    """One key's slices in a keyed layer, as Python int bitsets."""
    sets, keys, idx = layer
    return {_as_int(sets[i]) for i in idx[keys == key]}


def assert_walk_matches_reference(search, maxsets, firsts, depth):
    for i in range(0, len(firsts), search.batch):
        batch = firsts[i:i + search.batch]
        keys = np.arange(len(batch))
        layers = search._walk([(batch, keys, keys)], depth, exact._Budget(60))
        assert all((np.diff(layer[1]) >= 0).all() for layer in layers)   # sorted by key
        for k in keys:
            want = _reference_walk(maxsets, _as_int(batch[k]), depth)
            assert [_keyed_sets(layer, k) for layer in layers] == want


def test_batched_walk_matches_the_reference_on_c7_squared():
    # every canonical first slice of C7 x C7, 90 of 4 vertices and 159 of 5,
    # walked L - 1 = 6 maximum steps in batches: each first's layers are
    # the reference walk's, and the firsts are one per orbit of the maps,
    # each the least of its orbit
    h, cyc = strong_power(cycle(7), 2), exact._cycle_order(cycle(7))
    maps = slices._cycle_power_maps(cyc, 2)
    maxsets = slices._maximum_sets(h, 10, exact._Budget(60))
    search = slices._Slices(h, 10, maps, cyc, maxsets)
    for s, count in ((4, 90), (5, 159)):
        firsts = search._firsts(s, exact._Budget(60))
        assert len(firsts) == count
        subsets = {sum(1 << v for v in sub) for m in maxsets
                   for sub in itertools.combinations(exact._bits(m), s)}
        orbits = [{sum(1 << int(v) for v in row) for row in maps[:, list(exact._bits(f))]}
                  for f in map(_as_int, firsts)]
        assert set().union(*orbits) == subsets
        assert sum(map(len, orbits)) == len(subsets)
        assert [min(o) for o in orbits] == sorted(map(_as_int, firsts))
        assert_walk_matches_reference(search, maxsets, firsts, 6)


@pytest.mark.parametrize("cap", [None, 64], ids=["default", "tiny"])
@pytest.mark.parametrize("length", [5, 7])
def test_batched_walk_matches_the_reference_on_four_vertices(length, cap, monkeypatch):
    # every graph on 4 labelled vertices, as in the brute-force shape test:
    # each first slice's walk, and the independent sets the walk back
    # starts from, against the reference walk and a brute-force listing;
    # with a 64-byte cap as well, so that every batch, chunk and
    # depth-first piece is split
    if cap:
        monkeypatch.setattr(slices, "SLICE_BYTES", cap)
    pairs = list(itertools.combinations(range(4), 2))
    for mask in range(1 << len(pairs)):
        h = Graph.from_edge_list(4, [e for i, e in enumerate(pairs) if mask >> i & 1])
        search, alpha = _slice_search(h, length)
        maxsets = slices._maximum_sets(h, alpha, exact._Budget(60))
        for s in range(alpha // 2 + 1):
            firsts = search._firsts(s, exact._Budget(60))
            assert_walk_matches_reference(search, maxsets, firsts, length - 1)
            near = search._near(firsts)
            a = alpha - 1 - s
            ends = search._independent_sets(search.every_vertex & ~near, a, exact._Budget(60))
            assert (np.diff(ends[1]) >= 0).all()
            for k, row in enumerate(near):
                clear = [v for v in range(4) if not _as_int(row) >> v & 1]
                want = {sum(1 << v for v in sub) for sub in itertools.combinations(clear, a)
                        if not h.adj[np.ix_(sub, sub)].any()} if a >= 0 else set()
                assert _keyed_sets(ends, k) == want, (mask, s)


@pytest.mark.parametrize("h, length, maps", [
    (cycle(5), 5, _dihedral(5)),
    (cycle(5), 7, _dihedral(5)),
    (complete(3), 5, np.array(list(itertools.permutations(range(3))))),
], ids=["C5xC5", "C5xC7", "K3xC5"])
def test_slice_search_in_tiny_chunks_agrees_with_exact_alpha(h, length, maps, monkeypatch):
    # a 64-byte cap splits every batch of firsts, chunk of moves, meet and
    # canonical pass: the verdicts are still exact alpha's
    monkeypatch.setattr(slices, "SLICE_BYTES", 64)
    assert_slice_search_agrees(h, length, maps)


@pytest.mark.parametrize("shape", ["_close", "_join"])
def test_slice_search_returns_a_set_found_as_the_deadline_passes(shape, monkeypatch):
    # the budget expires right after `shape` finds a set: t = 10 on C7 x C7
    # by one closing run, t = 4 on C5 x C5 by the meet with `_close` off.
    # The set is returned, not dropped
    budget = exact._Budget(60)
    find = getattr(slices._Slices, shape)

    def find_then_expire(self, *args):
        found = find(self, *args)
        budget.expired = budget.expired or bool(found)
        return found

    monkeypatch.setattr(slices._Slices, shape, find_then_expire)
    if shape == "_join":
        monkeypatch.setattr(slices._Slices, "_close", lambda self, layers, near0: None)
    length, t = (7, 10) if shape == "_close" else (5, 4)
    search, _ = _slice_search(cycle(length), length, _dihedral(length))
    found = search.search(t, budget)
    assert budget.expired
    assert found is not None and len(found) >= t
    assert not strong_power(cycle(length), 2).adj[np.ix_(found, found)].any()


def test_search_rung_keeps_a_set_found_as_the_deadline_passes(monkeypatch):
    # the rung C7 x C7 from the 9-set 3 x 3 under theta's ceiling 11: the
    # slice search finds a 10-set at the slice bound floor(7 * 3 / 2) and
    # the budget expires right after; the rung returns that set
    budget = exact._Budget(60)
    close = slices._Slices._close

    def close_then_expire(self, layers, near0):
        found = close(self, layers, near0)
        budget.expired = budget.expired or bool(found)
        return found

    monkeypatch.setattr(slices._Slices, "_close", close_then_expire)
    g = cycle(7)
    base = independence_number(g).witness
    pk = strong_power(g, 2)
    best = tuple(sorted(i * 7 + v for i in base for v in base))
    ceiling, best = slices.search_rung(pk, g, 3, base, exact._cycle_order(g), best, 11, budget)
    assert budget.expired
    assert ceiling == 10 and len(best) == 10
    assert not pk.adj[np.ix_(best, best)].any()


def test_capacity_power_lb_keeps_its_deadline_on_c7_cubed():
    # a 0.2 s budget ends within 0.3 s at an interval between the seed set
    # 10 x 3 and the slice bound 35, with an independent witness; a machine
    # that decides C7^3 within 0.2 s gets exact 33, inside the same bounds
    start = time.perf_counter()
    bound, res = capacity_power_lb(cycle(7), 3, 0.2)
    assert time.perf_counter() - start <= 0.3
    assert res.status == "timeout" or (res.status, res.value) == ("exact", 33)
    assert 30 <= res.lower == len(res.witness) and res.upper <= 35
    w = list(res.witness)
    assert not strong_power(cycle(7), 3).adj[np.ix_(w, w)].any()


@pytest.mark.slow
def test_capacity_power_lb_decides_c41_squared():
    # the first slices are C(20, 9) + C(20, 10) subsets of one maximum set
    # of C41, canonicalised in chunks: the slice search refutes nothing
    # below floor(41 * 20 / 2) = 410 and finds a 410-set within 5 s
    g = cycle(41)
    bound, res = capacity_power_lb(g, 2, 5.0)
    assert res.status == "exact" and res.value == 410
    w = list(res.witness)
    assert len(w) == 410 and not strong_power(g, 2).adj[np.ix_(w, w)].any()


def _relabelled_c7():
    perm = [3, 6, 0, 5, 1, 4, 2]
    return Graph.from_edge_list(7, [(perm[i], perm[(i + 1) % 7]) for i in range(7)])


def test_cycle_power_maps_are_the_wreath_product():
    # (2 * 7)^2 * 2! = 392 distinct automorphisms of C7 x C7, also when the
    # cycle's labels do not follow it
    g = _relabelled_c7()
    cyc = exact._cycle_order(g)
    assert all(g.has_edge(cyc[i], cyc[(i + 1) % 7]) for i in range(7))
    maps = slices._cycle_power_maps(cyc, 2)
    a = strong_power(g, 2).adj
    assert maps.shape == (392, 49) and len({tuple(m) for m in maps.tolist()}) == 392
    assert all(np.array_equal(a[np.ix_(m, m)], a) for m in maps)
    assert exact._cycle_order(cycle(6)) is None      # even
    assert exact._cycle_order(cycle(3)) is None      # a triangle
    assert exact._cycle_order(disjoint_union(cycle(5), cycle(5))) is None


def test_shift_floor_on_c7_cubed():
    # the diagonal (0,0,0), (2,2,2), (4,4,4) and ten orbits of three
    g, k = cycle(7), 3
    pk = strong_power(g, k)
    diag = [w * 57 for w in (0, 2, 4)]
    found = slices._shift_floor(pk, diag, 7, k, 33, exact._Budget(60))
    assert len(found) == 33 and set(diag) <= set(found)
    assert not pk.adj[np.ix_(found, found)].any()
    shift = {v: v % 49 * 7 + v // 49 for v in range(pk.n)}
    assert {shift[v] for v in found} == set(found)


def test_capacity_power_lb_decides_c7_cubed(monkeypatch):
    # the slice search finds C7^2's 10-set at its bound, then on C7^3
    # refutes 34 (so 35 too) and the shift floor finds 33, so neither
    # power's own search runs; twice, the same set
    targets = _spy_targets(monkeypatch)
    runs = [capacity_power_lb(cycle(7), 3, budget=5.0) for _ in range(2)]
    assert targets == [3, 10] * 2              # C7, the orbit graph
    (bound, res), (again, res2) = runs
    assert (bound, res.value, res.witness) == (again, res2.value, res2.witness)
    assert res.status == "exact" and res.value == res.lower == res.upper == 33
    assert bound == 33 ** (1 / 3)
    w = list(res.witness)
    assert len(w) == 33 and not strong_power(cycle(7), 3).adj[np.ix_(w, w)].any()


class _TopRungReached(Exception):
    pass


def test_capacity_power_lb_hands_each_rung_an_exact_alpha(monkeypatch):
    # C7^4's top rung gets alpha(C7^3) = 33, exact, from rung 3: the slice
    # search runs only on an exact rung below. The top rung's own slice
    # search, which would list C7^3's maximum 33-sets until the deadline,
    # is cut off where it starts
    calls = []
    search = slices.search_rung

    def spy(pk, h, alpha_h, *args):
        calls.append((h.n, alpha_h))
        if pk.n == 7 ** 4:
            raise _TopRungReached
        return search(pk, h, alpha_h, *args)

    monkeypatch.setattr(slices, "search_rung", spy)
    with pytest.raises(_TopRungReached):
        capacity_power_lb(cycle(7), 4, budget=5.0)
    assert calls == [(7, 3), (49, 10), (343, 33)]


@pytest.mark.parametrize("factors", [(complete(1), cycle(7)), (cycle(7), complete(1))],
                         ids=["K1xC7", "C7xK1"])
def test_capacity_power_lb_reads_the_cycle_not_the_factors(factors):
    # K1 x C7 is a 7-cycle that records two factors, so its cube records
    # six: the rung is still C7^3, decided as cycle(7)'s is
    g = strong_product(*factors)
    bound, res = capacity_power_lb(g, 3, 5.0)
    assert res.status == "exact" and res.value == 33
    w = list(res.witness)
    assert len(w) == 33 and not strong_power(g, 3).adj[np.ix_(w, w)].any()


def test_capacity_power_lb_builds_the_maps_of_the_rung_below(monkeypatch):
    # K1 x C9 squared slices C9 itself, so only C9's maps are built, not
    # the 204 MB table of C9^3's that its four recorded factors would ask for
    powers = []
    build = slices._cycle_power_maps

    def spy(cyc, m):
        powers.append(m)
        return build(cyc, m)

    monkeypatch.setattr(slices, "_cycle_power_maps", spy)
    g = strong_product(complete(1), cycle(9))
    _, res = capacity_power_lb(g, 2, 5.0)
    assert res.status == "exact" and res.value == 18
    assert powers == [1]
    w = list(res.witness)
    assert not strong_power(g, 2).adj[np.ix_(w, w)].any()


def test_capacity_power_lb_builds_each_power_once(monkeypatch):
    ks = []
    build = exact.strong_power

    def spy(g, k):
        ks.append(k)
        return build(g, k)

    monkeypatch.setattr(exact, "strong_power", spy)
    _, res = capacity_power_lb(cycle(5), 3, budget=5.0)
    assert ks == [2, 3]
    assert res.status == "exact" and res.value == 10


@pytest.mark.parametrize("make", [lambda: cycle(7), petersen,
                                  frucht, lambda: random_regular(12, 3, 0)],
                         ids=["C7", "petersen", "frucht", "rr12"])
def test_capacity_power_lb_first_power_is_the_alpha_search(make):
    bound, res = capacity_power_lb(make(), 1)
    g = make()
    direct = independence_number(g, target=alpha_ceiling(theta_best(g).value))
    assert (res.value, res.status, res.witness) == (direct.value, "exact", direct.witness)
    assert bound == res.value


@pytest.mark.parametrize("g, alpha", [(_relabelled_c7(), 10), (cycle(15), 52),
                                      (cycle(21), 105)],
                         ids=["C7-relabelled", "C15", "C21"])
def test_capacity_power_lb_slices_cycle_squares(g, alpha):
    # floor(L (L - 1) / 4) is below floor(theta(C_L)^2) and the slice
    # search finds a set that large, so alpha(C_L^2) is exact with no branch
    # and bound (which left C15^2 at [50, 55] after 5 s)
    bound, res = capacity_power_lb(g, 2, budget=5.0)
    assert res.status == "exact" and res.value == alpha
    w = list(res.witness)
    assert len(w) == alpha and not strong_power(g, 2).adj[np.ix_(w, w)].any()


def test_chi_clique_seed_gets_only_the_budget_left(monkeypatch):
    # lower = 1 and alpha_upper = 5 = n send C5 to the cover first, which
    # refutes k = 1 after most of the 1 s budget; the clique seed that
    # follows gets what is left, not a fresh quarter of the budget. The
    # alpha step is bypassed: alpha(C5) = 2 would raise lower to 3 = chi
    # and skip both the cover and the seed
    alpha_times_out(monkeypatch)
    cover, search = exact._clique_cover, exact.clique_number
    budgets = []

    def slow_cover(*args):
        time.sleep(0.9)
        return cover(*args)

    def spy(g, budget, target=None):
        budgets.append(budget)
        return search(g, budget, target=target)

    monkeypatch.setattr(exact, "_clique_cover", slow_cover)
    monkeypatch.setattr(exact, "clique_number", spy)
    res = chromatic_number(cycle(5), 1.0, lower=1, alpha_upper=5)
    # C5 is vertex-transitive: the seed search recurses once, same budget
    assert budgets and all(0.0 <= b <= 0.1 for b in budgets)
    assert res.lower <= 3 <= res.upper


# -- chi by exact cover on theta-tight graphs --------------------------


def theta_tight_bounds(g):
    th = float(theta_best(g).value)
    return math.ceil(g.n / th - 1e-9), math.floor(th + 1e-6)


def assert_proper(g, coloring, k):
    assert len(coloring) == g.n and len(set(coloring)) == k
    assert all(coloring[u] != coloring[v] for u, v in g.edges())


def no_search(*args, **kwargs):
    raise AssertionError("search ran")


def alpha_times_out(monkeypatch):
    """Bypass chromatic_number's alpha step: every independence search
    times out at once, so `lower` and `alpha_upper` stay as given."""
    def timeout(g, budget, target=None):
        return SolveResult(None, 0, g.n, (), "timeout", 0.0)

    monkeypatch.setattr(exact, "independence_number", timeout)


def alpha_from_the_memo(g, alpha_upper):
    """Store g's exact alpha, so the alpha step runs no clique search."""
    assert independence_number(g, target=alpha_upper).status == "exact"


def test_cover_decides_hall_janko(monkeypatch):
    g = load_fixture("hall_janko")
    lower, alpha_upper = theta_tight_bounds(g)
    assert (lower, alpha_upper) == (10, 10)
    alpha_from_the_memo(g, alpha_upper)
    only_greedy_descent(monkeypatch)
    monkeypatch.setattr(exact, "clique_number", no_search)
    res = chromatic_number(g, lower=lower, alpha_upper=alpha_upper)
    assert res.status == "exact" and res.value == 10
    assert_proper(g, res.witness, res.value)
    sizes = [res.witness.count(c) for c in range(10)]
    assert sizes == [10] * 10


def test_cover_refutes_kneser62(monkeypatch):
    # theta = 5 and n = 15 = 3 * 5, but the only independent 5-sets are
    # the six stars, and three disjoint stars cannot cover the 15 pairs
    g = kneser(6, 2)
    assert theta_tight_bounds(g) == (3, 5)
    _, sets = exact._clique_search(g.complement().adj, exact._Budget(60.0),
                                   5, 5)
    assert len(list(sets)) == 6
    assert exact._clique_cover(g.complement().adj, 5,
                               exact._Budget(60.0)) == (False, None)
    tried = []
    k_colorable = exact._k_colorable

    def spy(rows, rank, k, budget, clique_seed):
        tried.append(k)
        return k_colorable(rows, rank, k, budget, clique_seed)

    monkeypatch.setattr(exact, "_k_colorable", spy)
    res = chromatic_number(g, lower=3, alpha_upper=5)
    assert res.status == "exact" and res.value == 4
    assert 3 not in tried
    assert_proper(g, res.witness, res.value)


@pytest.mark.parametrize("name,chi", [("chang1", 7), ("chang2", 7),
                                      ("chang3", 7), ("schlafli", 9),
                                      ("perkel", 3)])
def test_cover_on_fixtures(name, chi, monkeypatch):
    g = load_fixture(name)
    lower, alpha_upper = theta_tight_bounds(g)
    assert g.n == lower * alpha_upper
    alpha_from_the_memo(g, alpha_upper)
    only_greedy_descent(monkeypatch)
    monkeypatch.setattr(exact, "clique_number", no_search)
    res = chromatic_number(g, lower=lower, alpha_upper=alpha_upper)
    assert res.status == "exact" and res.value == chi
    assert_proper(g, res.witness, res.value)


def test_cover_stops_honestly_on_the_budget():
    # n = 231 = 11 * 21, and a cover by 21-cocliques, drawn one at a time
    # through one vertex after another, is far out of reach of 0.5 s
    g = load_fixture("cameron")
    assert theta_tight_bounds(g) == (11, 21)
    res = chromatic_number(g, budget=0.5, lower=11, alpha_upper=21)
    assert res.status == "timeout" and res.value is None
    assert (res.lower, res.upper) == (11, 17)
    assert res.elapsed < 2.0
    assert_proper(g, res.witness, 17)


def test_cover_sets_are_budgeted(monkeypatch):
    # the cover's first step already holds 63 packed candidates (the
    # non-neighbours of its vertex) of 49 bytes each, past 1000 bytes
    g = load_fixture("hall_janko")
    monkeypatch.setattr(graphs, "DENSE_BYTE_BUDGET", 1000)
    res = chromatic_number(g, lower=10, alpha_upper=10)
    assert res.status == "timeout"
    assert (res.lower, res.upper) == (10, 16)


def spy_cover_steps(monkeypatch):
    """Record the cover's steps: ("open", order of its candidates, size of
    its cliques) when a step starts its search, ("draw", step) for each
    clique a step takes from it."""
    events = []
    search = exact._clique_search

    def spy(adj, budget, floor, ceiling):
        root_bound, cliques = search(adj, budget, floor, ceiling)
        if floor != ceiling:
            return root_bound, cliques
        step = sum(event[0] == "open" for event in events)
        events.append(("open", len(adj), floor))

        def draws():
            for clique in cliques:
                events.append(("draw", step))
                yield clique

        return root_bound, draws()

    monkeypatch.setattr(exact, "_clique_search", spy)
    return events


def test_cover_draws_only_the_sets_through_the_branching_vertex(monkeypatch):
    # Hall-Janko is srg(100, 36, 14, 12): the first step searches the
    # 9-sets among the 63 non-neighbours of its vertex, and no step draws
    # more than the one set it keeps
    g = load_fixture("hall_janko")
    alpha_from_the_memo(g, 10)
    events = spy_cover_steps(monkeypatch)
    res = chromatic_number(g, lower=10, alpha_upper=10)
    assert res.status == "exact" and res.value == 10
    assert events[0] == ("open", 63, 9)
    opened = sum(event[0] == "open" for event in events)
    drawn = sum(event[0] == "draw" for event in events)
    assert drawn == opened == 14


def test_cover_opens_its_second_step_after_one_draw(monkeypatch):
    # Cameron's first step searches the 20-sets among the 200
    # non-neighbours of its vertex and opens the next step as soon as it
    # draws one; the cover still times out at the DSATUR count
    g = load_fixture("cameron")
    alpha_from_the_memo(g, 21)
    events = spy_cover_steps(monkeypatch)
    res = chromatic_number(g, budget=1.0, lower=11, alpha_upper=21)
    assert res.status == "timeout" and (res.lower, res.upper) == (11, 17)
    assert events[:3] == [("open", 200, 20), ("draw", 0), ("open", 182, 20)]
    assert_proper(g, res.witness, 17)


def test_cover_needs_little_recursion():
    # the steps keep their own stack: Python's recursion goes no deeper
    # than the one suspended clique search a draw resumes, about 10 frames
    # for Hall-Janko's 10-sets, so 100 frames past the caller's depth suffice
    g = load_fixture("hall_janko")
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        res = chromatic_number(g, lower=10, alpha_upper=10)
    finally:
        sys.setrecursionlimit(limit)
    assert res.status == "exact" and res.value == 10
    assert_proper(g, res.witness, 10)


def test_no_alpha_upper_keeps_the_search(monkeypatch):
    # without alpha_upper there is neither an alpha step nor a cover
    monkeypatch.setattr(exact, "independence_number", no_search)
    monkeypatch.setattr(exact, "_clique_cover", no_search)
    res = chromatic_number(kneser(6, 2), lower=3)
    assert res.status == "exact" and res.value == 4


# -- chi >= ceil(n / alpha) from an exact alpha --------------------------


# on these random graphs ceil(n / alpha) never passes the clique number;
# on petersen, m22 and every graph from C7 on it does, and on C5^2
# alpha = 5 and n = 25 send chi to the cover
SWEEP_GRAPHS = ([(f"gnp{seed}", lambda seed=seed: gnp(
                     9 + seed % 8, (0.2, 0.35, 0.5, 0.65, 0.8)[seed % 5], seed))
                 for seed in range(20)]
                + [("petersen", petersen), ("frucht", frucht),
                   ("kneser62", lambda: kneser(6, 2)),
                   ("m22", lambda: load_fixture("m22")),
                   ("C7", lambda: cycle(7)), ("C9", lambda: cycle(9)),
                   ("kneser72", lambda: kneser(7, 2)),
                   ("paley13", lambda: paley(13)), ("shrikhande", shrikhande),
                   ("C5^2", lambda: strong_power(cycle(5), 2)),
                   ("rr30-3-1", lambda: random_regular(30, 3, 1))])


@pytest.mark.parametrize("name,make", SWEEP_GRAPHS,
                         ids=[n for n, _ in SWEEP_GRAPHS])
def test_alpha_step_matches_the_plain_search(name, make, monkeypatch):
    # alpha_upper = n is a proven bound that leaves the alpha search
    # untargeted; each bound gets a copy of g with an empty memo, so its
    # own alpha search runs
    g = make()
    bounds = [(0, g.n)]
    if theta_best(g).value is not None:
        bounds.append(theta_tight_bounds(g))
    for lower, alpha_upper in bounds:
        res = chromatic_number(g.with_meta(), lower=lower,
                               alpha_upper=alpha_upper)
        assert res.status == "exact"
        assert_proper(g, res.witness, res.value)
        with monkeypatch.context() as m:
            alpha_times_out(m)
            plain = chromatic_number(g, lower=lower, alpha_upper=alpha_upper)
        assert plain.status == "exact" and plain.value == res.value


def test_paley29_needs_no_refutation(monkeypatch):
    # theta = sqrt(29) gives only chi >= 6, but alpha = 4 gives
    # chi >= ceil(29 / 4) = 8, the size of the greedy DSATUR coloring
    g = paley(29)
    lower, alpha_upper = theta_tight_bounds(g)
    assert (lower, alpha_upper) == (6, 5)
    only_greedy_descent(monkeypatch)
    res = chromatic_number(g, lower=lower, alpha_upper=alpha_upper)
    assert res.status == "exact" and res.value == 8
    assert_proper(g, res.witness, 8)
    assert g._memo[("alpha", alpha_upper)].value == 4


def test_alpha_step_decides_gosset_by_the_cover(monkeypatch):
    # theta = 5.6 leaves [10, 16] to a search that runs out of any budget;
    # alpha = 4 and 56 = 14 * 4 send chi to the exact cover at k = 14
    g = load_fixture("gosset")
    lower, alpha_upper = theta_tight_bounds(g)
    assert (lower, alpha_upper) == (10, 5)
    only_greedy_descent(monkeypatch)
    res = chromatic_number(g, budget=5.0, lower=lower, alpha_upper=alpha_upper)
    assert res.status == "exact" and res.value == 14
    assert_proper(g, res.witness, 14)
    assert sorted(res.witness.count(c) for c in range(14)) == [4] * 14


def _spy_alpha_budgets(monkeypatch):
    budgets = []
    search = exact.independence_number

    def spy(g, budget, target=None):
        budgets.append(budget)
        return search(g, budget, target=target)

    monkeypatch.setattr(exact, "independence_number", spy)
    return budgets


def test_alpha_step_gets_a_quarter_of_the_budget(monkeypatch):
    budgets = _spy_alpha_budgets(monkeypatch)
    assert chromatic_number(paley(29), budget=1.0, alpha_upper=5).value == 8
    assert len(budgets) == 1 and 0.0 < budgets[0] <= 0.25


def test_no_alpha_step_without_alpha_upper(monkeypatch):
    # without a proven bound to target, alpha is not searched: the
    # k-search refutes 6 and 7 on its own
    budgets = _spy_alpha_budgets(monkeypatch)
    res = chromatic_number(paley(29), lower=6)
    assert res.status == "exact" and res.value == 8
    assert budgets == []


def test_alpha_step_gets_only_the_budget_left(monkeypatch):
    # a greedy descent that takes 0.9 s of the 1 s budget leaves the alpha
    # step at most 0.1 s, less than a quarter of the budget
    budgets = _spy_alpha_budgets(monkeypatch)
    k_colorable = exact._k_colorable

    def slow_descent(rows, rank, k, budget, clique_seed):
        if k == len(rows):
            time.sleep(0.9)
        return k_colorable(rows, rank, k, budget, clique_seed)

    monkeypatch.setattr(exact, "_k_colorable", slow_descent)
    res = chromatic_number(paley(29), budget=1.0, alpha_upper=5)
    assert len(budgets) == 1 and 0.0 <= budgets[0] <= 0.1
    assert res.lower <= 8 <= res.upper


def test_alpha_timeout_keeps_the_interval(monkeypatch):
    # 22 is a proven bound on alpha(Cameron) = 21, but proving that no
    # 22-set exists is out of reach, so the alpha step times out, stores
    # nothing, and the k = 11 search ends at the interval it reaches
    # without the alpha step
    g = load_fixture("cameron")
    statuses = []
    search = exact.independence_number

    def spy(h, budget, target=None):
        res = search(h, budget, target=target)
        statuses.append(res.status)
        return res

    monkeypatch.setattr(exact, "independence_number", spy)
    res = chromatic_number(g, budget=0.5, lower=11, alpha_upper=22)
    assert statuses == ["timeout"] and ("alpha", 22) not in g._memo
    with monkeypatch.context() as m:
        alpha_times_out(m)
        plain = chromatic_number(g, budget=0.5, lower=11, alpha_upper=22)
    assert res.status == plain.status == "timeout"
    assert (res.lower, res.upper) == (plain.lower, plain.upper) == (11, 17)
    assert_proper(g, res.witness, 17)


@pytest.mark.parametrize("seed", range(6))
def test_cliques_of_size_match_brute_force(seed):
    g = gnp(12 + seed, (0.3, 0.5, 0.7)[seed % 3], seed)
    for size in range(1, 6):
        want = sorted(sum(1 << v for v in sub)
                      for sub in itertools.combinations(range(g.n), size)
                      if all(g.adj[u, v]
                             for u, v in itertools.combinations(sub, 2)))
        _, got = exact._clique_search(g.adj, exact._Budget(60.0), size, size)
        assert sorted(got) == want


def brute_partition(g, size):
    """Whether g's vertices split into independent sets of `size` vertices:
    the lowest uncovered vertex goes with every independent choice of the
    rest of its set among the uncovered vertices."""
    def solve(left):
        if not left:
            return True
        v, rest = left[0], left[1:]
        return any(solve([u for u in rest if u not in sub])
                   for sub in itertools.combinations(rest, size - 1)
                   if not any(g.adj[a, b] for a, b in
                              itertools.combinations((v,) + sub, 2)))

    return solve(list(range(g.n)))


@pytest.mark.parametrize("seed", range(20))
def test_exact_cover_matches_brute_force(seed):
    # a partition of a random graph into independent a-sets, a dividing n:
    # the cover runs on the complement, where they are cliques
    rng = np.random.default_rng(seed)
    n = int(rng.choice([4, 6, 8, 9]))
    size = int(rng.choice([a for a in range(2, n // 2 + 1) if n % a == 0]))
    g = gnp(n, float(rng.uniform(0.1, 0.6)), seed)
    verdict, chosen = exact._clique_cover(g.complement().adj, size,
                                          exact._Budget(60.0))
    assert verdict == brute_partition(g, size)
    if verdict:
        assert sum(chosen) == (1 << n) - 1
        assert all(not a & b for a, b in itertools.combinations(chosen, 2))
        for block in chosen:
            members = list(exact._bits(block))
            assert len(members) == size
            assert not any(g.adj[u, v]
                           for u, v in itertools.combinations(members, 2))
    else:
        assert chosen is None


def test_cover_matches_the_search_on_random_graphs(monkeypatch):
    # every graph whose alpha divides n, with lower = n / alpha: the cover
    # must agree with the backtracking search, refuted or not
    rng = np.random.default_rng(5)
    checked = 0
    for _ in range(400):
        n = int(rng.choice([8, 9, 10, 12]))
        g = gnp(n, float(rng.uniform(0.3, 0.8)), int(rng.integers(1 << 30)))
        alpha = independence_number(g).value
        if n % alpha:
            continue
        res = chromatic_number(g, lower=n // alpha, alpha_upper=alpha)
        assert res.status == "exact"
        with monkeypatch.context() as m:
            # the reference is the plain backtracking search
            alpha_times_out(m)
            ref = chromatic_number(g)
        assert res.value == ref.value
        assert_proper(g, res.witness, res.value)
        checked += 1
    assert checked >= 50


# -- vertex-transitive graphs: search the neighbourhood of vertex 0 ------


VT_GENERATED = [
    ("K5", lambda: complete(5)), ("empty5", lambda: empty(5)),
    ("C5", lambda: cycle(5)), ("C8", lambda: cycle(8)),
    ("K33", lambda: complete_bipartite(3, 3)),
    ("kneser62", lambda: kneser(6, 2)), ("kneser73", lambda: kneser(7, 3)),
    ("petersen", petersen), ("paley13", lambda: paley(13)),
    ("paley29", lambda: paley(29)), ("shrikhande", shrikhande),
    ("Q4", lambda: hypercube(4)),
    ("C5^2", lambda: strong_power(cycle(5), 2)),
    ("C5^3", lambda: strong_power(cycle(5), 3)),
    ("petersen^2", lambda: strong_power(petersen(), 2)),
]
VT_FIXTURES = [(e.name, lambda name=e.name: load_fixture(name))
               for e in entries()
               if e.kind == "fixture" and e.flags.get("vertex_transitive")]
# floor(theta), a proven bound on alpha, where the plain search would run
# for seconds (petersen^2) or out of any budget (cameron) without it
ALPHA_TARGET = {"petersen^2": 16, "cameron": 21}


@pytest.mark.parametrize("name,make", VT_GENERATED + VT_FIXTURES,
                         ids=[n for n, _ in VT_GENERATED + VT_FIXTURES])
def test_vertex_transitive_search_matches_the_plain_one(name, make):
    g = make()
    assert g.meta.vertex_transitive is True
    plain = g.with_meta(vertex_transitive=None)
    for solve, target, edge in ((clique_number, None, True),
                                (independence_number, ALPHA_TARGET.get(name),
                                 False)):
        res = solve(g, target=target)
        ref = solve(plain, target=target)
        assert res.status == ref.status == "exact"
        assert res.value == ref.value == len(res.witness)
        # the witness is in g's own labels, vertex 0 and its neighbours
        assert 0 in res.witness and list(res.witness) == sorted(res.witness)
        assert all(g.adj[u, v] == edge
                   for u, v in itertools.combinations(res.witness, 2))


def test_vertex_transitive_timeout_interval_is_shifted():
    g = strong_power(cycle(7), 3)
    res = independence_number(g, budget=0.2)
    assert res.status == "timeout" and res.value is None
    assert res.lower == len(res.witness) <= 33 <= res.upper
    assert res.witness[0] == 0
    assert not any(g.adj[u, v] for u, v in itertools.combinations(res.witness, 2))


def test_vertex_transitive_search_runs_on_the_neighbourhood(monkeypatch):
    sizes = []
    search = exact._clique_search

    def spy(adj, *args):
        sizes.append(len(adj))
        return search(adj, *args)

    monkeypatch.setattr(exact, "_clique_search", spy)
    g = strong_power(cycle(5), 3)
    assert independence_number(g).value == 10
    assert clique_number(g).value == 8
    # 125 - 27 non-neighbours of vertex 0 for alpha, its 26 neighbours for omega
    assert sizes == [98, 26]


def test_vertex_transitive_target_stops_the_search(monkeypatch):
    calls = 0
    color_bound = exact._color_bound

    def spy(*args):
        nonlocal calls
        calls += 1
        return color_bound(*args)

    monkeypatch.setattr(exact, "_color_bound", spy)
    g = strong_power(cycle(5), 3)
    counts = []
    for target in (None, 10):
        calls = 0
        # a copy with an empty memo, so that the targeted call searches
        res = independence_number(g.with_meta(), target=target)
        assert res.status == "exact" and res.value == 10
        counts.append(calls)
    assert counts[1] < counts[0] / 10


def test_vertex_transitive_empty_and_complete():
    for n in (1, 2, 5):
        for target in (None, n):
            assert clique_number(complete(n), target=target).witness == tuple(range(n))
            assert independence_number(empty(n), target=target).witness == tuple(range(n))
        for target in (None, 1):
            assert clique_number(empty(n), target=target).witness == (0,)
            assert independence_number(complete(n), target=target).witness == (0,)
    assert clique_number(empty(0)).value == independence_number(complete(0)).value == 0


def test_strong_product_is_vertex_transitive_when_every_factor_is():
    c5 = cycle(5)
    assert strong_product(c5, petersen()).meta.vertex_transitive is True
    assert strong_power(c5, 3).meta.vertex_transitive is True
    assert strong_power(c5, 3).meta.name == "C5^3"
    for other in (frucht(), path(3), c5.with_meta(vertex_transitive=False)):
        assert other.meta.vertex_transitive is not True
        assert strong_product(c5, other).meta.vertex_transitive is None
        assert strong_product(other, c5, c5).meta.vertex_transitive is None
