"""Theta values: closed forms, spectral sandwiches, and the certified optimizer."""

import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from thetakit import cli, graphs, theta
from thetakit.catalog import fixture_names, load_fixture
from thetakit.exact import independence_number
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
from thetakit.io import from_graph6, to_graph6
from thetakit.products import strong_power, strong_product
from thetakit.spectra import eigenvalues
from thetakit.srg import SrgParams, srg_check
from thetakit.theta import (
    theta_best,
    theta_bounds_complement,
    theta_bounds_regular,
    theta_exact,
    theta_exact_result,
    theta_kneser,
    theta_lower_regular,
    theta_srg,
    theta_upper_regular,
)


def test_theta_srg_rational_branch():
    t, tc = theta_srg(SrgParams(10, 3, 0, 1))
    assert t == Fraction(4) and tc == Fraction(5, 2)
    assert isinstance(t, Fraction)
    t, tc = theta_srg(SrgParams(27, 16, 10, 8))
    assert t == Fraction(3) and tc == Fraction(9)


def test_theta_srg_conference_branch():
    t, tc = theta_srg(SrgParams(5, 2, 0, 1))
    assert isinstance(t, float)
    assert t == pytest.approx(math.sqrt(5.0), abs=1e-12)
    assert t * tc == pytest.approx(5.0, abs=1e-9)


def test_theta_product_is_order_for_srg():
    # the two values multiply to n on every SRG parameter set used here
    for tup in [(10, 3, 0, 1), (16, 6, 2, 2), (50, 7, 0, 1), (28, 12, 6, 4)]:
        t, tc = theta_srg(SrgParams(*tup))
        assert t * tc == tup[0]


def test_spectral_bounds_pinch_on_petersen():
    b = theta_bounds_regular(10, 3, 1.0, -2.0)
    assert b.lower == pytest.approx(4.0)
    assert b.upper == pytest.approx(4.0)


@pytest.mark.parametrize("t, want", [
    (4, (4, 16, 64)), (4.0, (4, 16, 64)), (Fraction(4), (4, 16, 64)),
    (21.0, (21, 441, 9261)), (math.nextafter(4.0, 0.0), (4, 16, 64)),
    (math.nextafter(21.0, 0.0), (21, 441, 9261)),
    (math.nextafter(1.0, 0.0), (1, 1, 1)), (4.0 - 2e-6, (3, 15, 63)),
    (math.sqrt(5.0), (2, 5, 11)), (math.sqrt(7.0), (2, 7, 18)),
    (Fraction(7, 2), (3, 12, 42)), (Fraction(2, 3), (0, 0, 0)),
], ids=repr)
def test_alpha_ceiling_matches_the_floors_it_replaced(t, want):
    # a few ulps below a whole number count as it; the floors the chi
    # search, capacity_certificate and capacity_power_lb each wrote out
    # before sharing theta.alpha_ceiling agree on every value
    assert tuple(theta.alpha_ceiling(t, k) for k in (1, 2, 3)) == want
    assert theta.alpha_ceiling(t) == math.floor(float(t) + 1e-6)
    assert theta.alpha_ceiling(t) == math.floor(t + 1e-6)
    for k in (1, 2, 3):
        assert theta.alpha_ceiling(t, k) == math.floor(float(t) ** k + 1e-6)
    assert theta.alpha_ceiling(None) is None
    assert theta.alpha_ceiling(None, 3) is None


def test_complement_bounds_pinch_on_petersen():
    b = theta_bounds_complement(10, 3, 1.0, -2.0)
    assert b.lower == pytest.approx(2.5)
    assert b.upper == pytest.approx(2.5)


def test_bound_preconditions():
    with pytest.raises(ValueError):
        theta_upper_regular(5, 2, 0.5)
    with pytest.raises(ValueError):
        theta_lower_regular(5, 2, -1.5)


def test_theta_exact_known_values():
    assert theta_exact(cycle(5)) == pytest.approx(math.sqrt(5.0), abs=1e-5)
    assert theta_exact(petersen()) == pytest.approx(4.0, abs=1e-5)
    assert theta_exact(complete(6)) == pytest.approx(1.0, abs=1e-5)
    assert theta_exact(empty(6)) == pytest.approx(6.0, abs=1e-9)


def test_theta_exact_certificate_brackets():
    res = theta_exact_result(cycle(7), tol=1e-6)
    assert res.converged
    assert res.lower <= res.value <= res.lower + 1e-6 + 1e-9
    # value is lambda_max of the returned feasible matrix
    import numpy as np

    assert res.value == pytest.approx(
        float(np.linalg.eigvalsh(res.matrix)[-1]), abs=1e-9)


def test_theta_exact_cap():
    # the byte budget, not a vertex count, bounds the solver: the IPM on a
    # dense irregular 100-vertex graph would hold (m+1)^2 doubles several
    # times over, and is refused before anything that size is allocated
    with pytest.raises(ValueError):
        theta_exact(empty(0))
    g = gnp(100, 0.9, seed=0)
    assert not g.is_regular()
    assert theta.ipm_bytes(g.n, g.edge_count()) > graphs.DENSE_BYTE_BUDGET
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="dense budget"):
            theta_exact_result(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_ratio_pair_is_budgeted_apart_from_the_ipm(monkeypatch):
    # at 10 000 bytes C9's ratio pair (34 n^2 bytes) fits and pinches, while
    # the IPM on the 12-vertex Frucht graph does not fit
    monkeypatch.setattr(graphs, "DENSE_BYTE_BUDGET", 10_000)
    res = theta_exact_result(cycle(9))
    assert res.converged and res.iterations == 0
    with pytest.raises(ValueError, match="IPM"):
        theta_exact_result(frucht())


def test_theta_exact_within_spectral_bounds():
    # seeded sweep: optimizer value must respect the regular-graph sandwich
    for seed in range(6):
        g = random_regular(12, 4, seed=seed)
        s = eigenvalues(g)
        b = theta_bounds_regular(g.n, g.degree(), s.second_largest(),
                                 s.smallest())
        t = theta_exact(g, tol=1e-6)
        assert b.lower - 1e-4 <= t <= b.upper + 1e-4


def test_theta_kneser():
    assert theta_kneser(5, 2) == 4
    assert theta_kneser(6, 2) == 5
    assert theta_exact(kneser(6, 2)) == pytest.approx(5.0, abs=1e-4)
    with pytest.raises(ValueError):
        theta_kneser(3, 2)


def test_theta_best_dispatch():
    assert theta_best(complete(5)).method == "closed-form"
    assert theta_best(empty(4)).value == 4.0
    est = theta_best(petersen())
    assert est.method == "closed-form"
    assert est.exact == Fraction(4)
    est = theta_best(cycle(5))
    assert est.method == "closed-form"      # SRG, conference branch
    assert est.exact is None
    est = theta_best(frucht())
    assert est.method == "optimizer"
    assert est.value == pytest.approx(theta_exact(frucht()), abs=1e-5)
    est = theta_best(random_regular(70, 3, seed=1), exact_cap=64)
    assert est.method == "interval"
    assert est.value is None


def test_theta_multiplicativity_on_pentagon_square():
    g = strong_product(cycle(5), cycle(5))
    assert theta_exact(g, tol=1e-5) == pytest.approx(5.0, abs=1e-4)


def test_theta_best_complement_pair():
    # theta(G) * theta(complement) >= n, equality on vertex-transitive graphs
    g = paley(13)
    t = float(theta_best(g).value)
    tc = float(theta_best(g.complement()).value)
    assert t * tc == pytest.approx(13.0, rel=1e-6)


def test_loose_tolerance_on_c6_is_the_ratio_pair(monkeypatch):
    # C6 is regular, not strongly regular: its sandwich 2.5 <= 3 does not
    # meet, but the ratio pair gives theta(C6) = 3 with no IPM step
    calls = _spy_hkm(monkeypatch)
    est = theta_best(cycle(6), tol=1.0)
    assert est.method == "optimizer"
    assert est.value == pytest.approx(3.0, abs=1e-12)
    assert est.bounds.lower == pytest.approx(2.5)
    assert not calls


def test_spectral_sandwich_meets_only_on_strongly_regular_graphs():
    # the two ends meet exactly in the equality case of the eigenvalue
    # inequality, which only strongly regular graphs reach; theta_best
    # answers those by the closed form, so no regular graph is left whose
    # theta the sandwich alone would decide. The sweep: generators,
    # fixtures, seeded random regular graphs and all their complements,
    # the regular ones with 0 < d < n - 1
    gs = [cycle(n) for n in range(3, 26)] + [hypercube(k) for k in range(2, 7)]
    gs += [kneser(m, r) for m, r in ((5, 2), (6, 2), (7, 2), (7, 3), (8, 3))]
    gs += [paley(q) for q in (5, 13, 17, 29, 37)] + [petersen(), shrikhande()]
    gs += [complete_bipartite(a, a) for a in range(2, 6)]
    gs += [disjoint_union(complete(4), complete(4)),
           disjoint_union(cycle(5), cycle(5)),
           strong_product(cycle(5), cycle(5)), strong_product(cycle(5), petersen())]
    gs += [load_fixture(name) for name in fixture_names()]
    gs += [random_regular(n, d, seed=s) for n in range(8, 41, 4)
           for d in (3, 4, 5) if n * d % 2 == 0 for s in range(3)]
    gs += [g.complement() for g in gs]
    met = 0
    for g in gs:
        if not g.is_regular() or not 0 < g.degree() < g.n - 1:
            continue
        s = eigenvalues(g)
        b = theta_bounds_regular(g.n, g.degree(), s.second_largest(),
                                 s.smallest())
        if b.upper - b.lower <= 1e-6:
            met += 1
            assert srg_check(g) is not None
            assert theta_best(g).method == "closed-form"
    assert met >= 40


def gnp(n, p, seed):
    a = np.triu(np.random.default_rng(seed).random((n, n)) < p, 1)
    return Graph(a | a.T)


# random graphs up to the optimizer's cap of 64 vertices, regular and not
HARD = {
    "rr24-4": lambda: random_regular(24, 4, seed=0),
    "rr32-3": lambda: random_regular(32, 3, seed=0),
    "rr40-5": lambda: random_regular(40, 5, seed=0),
    "rr64-4": lambda: random_regular(64, 4, seed=0),
    "rr64-7": lambda: random_regular(64, 7, seed=0),
    "gnp30": lambda: gnp(30, 0.3, seed=1),
    "gnp64": lambda: gnp(64, 0.2, seed=2),
}


@pytest.mark.parametrize("name", sorted(HARD))
def test_theta_exact_converges_on_random_graphs(name):
    res = theta_exact_result(HARD[name](), tol=1e-6)
    assert res.converged
    assert 0.0 <= res.gap <= 1e-6
    assert res.iterations <= 50


CERTIFIED = {
    "rr24-4": HARD["rr24-4"],
    "gnp30": HARD["gnp30"],
    "frucht": frucht,
    "c7": lambda: cycle(7),
    "c5xc5": lambda: strong_product(cycle(5), cycle(5)),
}


@pytest.mark.parametrize("name", sorted(CERTIFIED))
def test_theta_exact_matrix_is_a_certificate(name):
    g = CERTIFIED[name]()
    res = theta_exact_result(g, tol=1e-6)
    b = res.matrix
    assert np.array_equal(b, b.T)
    fixed = ~g.adj
    assert np.all(b[fixed] == 1.0)              # diagonal and non-edges
    assert res.value == pytest.approx(float(np.linalg.eigvalsh(b)[-1]),
                                      abs=1e-12)
    assert res.lower <= res.value
    if g.n <= 24:
        alpha = independence_number(g)
        assert alpha.status == "exact"
        assert alpha.value <= res.value


@pytest.mark.parametrize("n", [7, 9, 13])
def test_theta_exact_tight_tolerance_on_odd_cycles(n):
    c = math.cos(math.pi / n)
    res = theta_exact_result(cycle(n), tol=1e-10)
    assert res.value == pytest.approx(n * c / (1 + c), abs=1e-9)


def test_theta_exact_breakdown_returns_best_pair():
    # at tol=0 the loop runs until a factorisation fails; no exception
    res = theta_exact_result(cycle(7), tol=0.0)
    c = math.cos(math.pi / 7)
    assert res.value == pytest.approx(7 * c / (1 + c), abs=1e-9)
    assert res.converged == (res.gap <= 0.0)


CLAMPED = [("K3", lambda: complete(3)), ("K6", lambda: complete(6)),
           ("C5", lambda: cycle(5)), ("C7", lambda: cycle(7)),
           ("C9", lambda: cycle(9)), ("petersen", petersen),
           ("Q3", lambda: hypercube(3))]


@pytest.mark.parametrize("tol", [0.0, 1e-6])
@pytest.mark.parametrize("name,make", CLAMPED, ids=[n for n, _ in CLAMPED])
def test_lower_end_never_passes_the_value(name, make, tol):
    # at tol 0 K6's IPM ends with a witness value 1.0000000000000002, a
    # rounding error above its certified value 1.0: the lower end is clamped
    res = theta_exact_result(make(), tol=tol)
    assert res.lower <= res.value
    assert res.gap == res.value - res.lower >= 0.0


def _schur_by_definition(x, w, edges_u, edges_v):
    """M_kl = tr(A_k X A_l W) with A_0 = I and A_e = E_e, from dense matrices."""
    n = len(x)
    mats = [np.eye(n)]
    for i, j in zip(edges_u, edges_v):
        e = np.zeros((n, n))
        e[i, j] = e[j, i] = 1.0
        mats.append(e)
    # tr(A X B W) = sum(A * (X B W)^T)
    right = [(x @ b @ w).T for b in mats]
    return np.array([[np.sum(a * xbw) for xbw in right] for a in mats])


def test_schur_complement_matches_its_definition():
    # one class per edge: M itself, for any X and W
    g = frucht()
    eu, ev = np.nonzero(np.triu(g.adj, 1))
    rng = np.random.default_rng(0)
    n = g.n
    x, w = (q @ q.T + np.eye(n) for q in rng.standard_normal((2, n, n)))
    want = _schur_by_definition(x, w, eu, ev)
    got = theta._schur(x, w, eu, ev)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("name", ["c5xc5", "circulant"])
def test_reduced_schur_complement_is_the_compressed_definition(name):
    # for X and W in the coherent algebra, here squares of random
    # polynomials in A plus I, the regular *-representation's complement,
    # from X's and W's coefficients, is S^T M S, with S summing the edges
    # of each class
    g = relabelled({"c5xc5": strong_product(cycle(5), cycle(5)),
                    "circulant": random_circulant(3)}[name], seed=5)
    cls = theta._edge_classes(g, *np.nonzero(np.triu(g.adj, 1)))
    m, r = len(cls.u), cls.r
    assert 1 < r < m
    a = g.adj.astype(np.float64)
    rng = np.random.default_rng(1)
    x, w = (np.eye(g.n) + p @ p for p in
            (sum(c * np.linalg.matrix_power(a, k)
                 for k, c in enumerate(rng.standard_normal(4))) for _ in range(2)))
    s = np.zeros((m + 1, r + 1))
    s[0, 0] = 1.0
    s[np.arange(1, m + 1), cls.of_edge + 1] = 1.0
    want = s.T @ _schur_by_definition(x, w, cls.u, cls.v) @ s
    assert isinstance(cls, theta._Regular)
    got = cls.schur(coefficients(cls, x), coefficients(cls, w))
    assert np.allclose(got, want, rtol=1e-12, atol=1e-9 * np.abs(want).max())
    # and its step lengths are those of the dense matrices, here short
    # of 1 along a direction with a large negative part
    p = sum(c * np.linalg.matrix_power(a, k) for k, c in enumerate(rng.standard_normal(4)))
    for point in (x, w):
        move = p - 3.0 * point
        dense = theta._step(np.linalg.inv(np.linalg.cholesky(point)), move)
        small = theta._step(np.linalg.inv(np.linalg.cholesky(cls.mat(coefficients(cls, point)))),
                            cls.mat(coefficients(cls, move)))
        assert dense < 1.0
        assert small == pytest.approx(dense, rel=1e-10)


def coefficients(cls, a):
    """The coefficients of a, a dense matrix in the coherent algebra, in
    the closure's colour classes: the mean over each class."""
    return np.bincount(cls.col.ravel(), a.ravel(), cls.d) / cls.size


def test_schur_complement_memory():
    # M is built in place: besides M, at most two m x m scratch arrays are
    # live at once (plus n x m column gathers), so fewer than four in all
    g = gnp(40, 0.7, seed=3)
    eu, ev = np.nonzero(np.triu(g.adj, 1))
    m = len(eu)
    x = w = np.eye(g.n)
    tracemalloc.start()
    try:
        theta._schur(x, w, eu, ev)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m > 400
    assert peak < 3.5 * 8 * (m + 1) ** 2


def test_analyze_theta_on_dense_random_regular(capsys):
    rc = cli.main(["analyze", "--gen", "random_regular:60:8:0",
                   "--tasks", "theta", "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["tasks"]["theta"]["method"] == "optimizer"


# -- the ratio-bound pair ----------------------------------------------

def _spy_hkm(monkeypatch):
    calls = []
    step = theta._hkm_step

    def spy(*args):
        calls.append(args)
        return step(*args)

    monkeypatch.setattr(theta, "_hkm_step", spy)
    return calls


# distance-regular or edge-transitive graphs: the lambda_min eigenprojector
# is constant on the edges, so the ratio-bound pair pinches
PINCH = {f"c{n}": (lambda n=n: cycle(n)) for n in (5, 7, 9, 11, 13)}
PINCH.update({f"q{k}": (lambda k=k: hypercube(k)) for k in (3, 4, 5)})
PINCH.update({
    "kneser7-3": lambda: kneser(7, 3),
    "petersen": petersen,
    "perkel": lambda: load_fixture("perkel"),
    "gosset": lambda: load_fixture("gosset"),
    "c5+c5": lambda: disjoint_union(cycle(5), cycle(5)),
})


@pytest.mark.parametrize("name", sorted(PINCH))
def test_ratio_pair_pinches_without_iterations(name, monkeypatch):
    g = PINCH[name]()
    calls = _spy_hkm(monkeypatch)
    res = theta_exact_result(g)
    assert res.iterations == 0 and not calls
    assert res.converged and res.gap <= 1e-6
    n, d, lmin = g.n, g.degree(), eigenvalues(g).smallest()
    assert abs(res.value + n * lmin / (d - lmin)) <= 1e-9
    assert res.lower <= res.value + 1e-12
    b = res.matrix
    assert np.all(b[~g.adj] == 1.0)             # diagonal and non-edges


# regular graphs where the ratio bound is not theta (or the projector is
# not constant on the edges): the IPM runs from its usual start. The
# values are the IPM's before the ratio pair was tried, to 1e-12, far
# inside the 1e-6 gap, and the iteration counts match exactly
FALL_THROUGH = {
    "frucht": (frucht, 8, 5.000000000003852, 4.999999902785138),
    "rr24-4-1": (lambda: random_regular(24, 4, seed=1), 11,
                 9.427665013916885, 9.42766483099373),
    "rr32-3-2": (lambda: random_regular(32, 3, seed=2), 11,
                 14.39180354851293, 14.391803045968166),
    "c5xc5": (lambda: strong_product(cycle(5), cycle(5)), 7,
              5.000000045152705, 4.9999999718320485),
    "c5xpetersen": (lambda: strong_product(cycle(5), petersen()), 7,
                    8.944272095794922, 8.944271730944113),
    "c5+c7": (lambda: disjoint_union(cycle(5), cycle(7)), 7,
              5.553735216556086, 5.5537349521709345),
}


@pytest.mark.parametrize("name", sorted(FALL_THROUGH))
def test_ratio_pair_falls_through_to_the_ipm(name, monkeypatch):
    make, iterations, value, lower = FALL_THROUGH[name]
    calls = _spy_hkm(monkeypatch)
    res = theta_exact_result(make())
    assert res.iterations == len(calls) == iterations
    assert res.value == pytest.approx(value, rel=0, abs=1e-12)
    assert res.lower == pytest.approx(lower, rel=0, abs=1e-12)


# -- theta of strong products from their factors ----------------------


PRODUCT_ORACLE = {
    "C5xC5": lambda: strong_product(cycle(5), cycle(5)),
    "C5xK2": lambda: strong_product(cycle(5), complete(2)),
    "petersenxK2": lambda: strong_product(petersen(), complete(2)),
    "C5xpetersen": lambda: strong_product(cycle(5), petersen()),
}


@pytest.mark.parametrize("name", sorted(PRODUCT_ORACLE))
def test_product_theta_matches_the_solver_on_the_materialized_graph(name):
    g = PRODUCT_ORACLE[name]()
    est = theta_best(g)
    assert est.method == "product" and g._adj is None
    assert est.lower <= est.value
    res = theta_exact_result(Graph(g.adj))
    assert res.converged
    assert est.value == pytest.approx(res.value, abs=1e-6)
    assert est.lower == pytest.approx(res.lower, abs=1e-6)


def test_product_theta_is_exact_or_rounded_outward():
    est = theta_best(strong_product(petersen(), complete(3), empty(2)))
    assert est.method == "product"
    assert est.exact == Fraction(8) and est.value == est.lower == 8.0
    # sqrt 5 is a float closed form: each step rounds outward
    c5 = theta_best(cycle(5))
    assert c5.exact is None
    est = theta_best(strong_power(cycle(5), 3))
    assert est.method == "product" and est.exact is None
    assert est.value > c5.value * c5.value * c5.value > est.lower
    assert est.value == pytest.approx(5 ** 1.5, rel=1e-12)
    # a mixed product is a float product too
    est = theta_best(strong_product(cycle(5), petersen()))
    assert est.exact is None and est.value > 4 * c5.value > est.lower


def test_product_theta_of_an_interval_factor_takes_the_graph_path():
    # frucht is over the cap, so its theta is an interval; the product's
    # own dispatch runs, and it too is over the cap
    g = strong_product(frucht(), cycle(5))
    est = theta_best(g, exact_cap=10)
    assert theta_best(frucht(), exact_cap=10).method == "interval"
    assert est.method == "interval" and est.value is None
    # frucht and C5 are regular, so the product carries its sandwich
    assert est.bounds is not None and est.bounds.lower <= est.bounds.upper


def random_circulant(seed):
    """A circulant on 9 to 17 vertices with a seeded connection set,
    neither empty nor complete."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(9, 18))
    while True:
        jumps = [j for j in range(1, n // 2 + 1) if rng.random() < 0.5]
        if 0 < len(jumps) < n // 2:
            break
    edges = [(i, (i + j) % n) for i in range(n) for j in jumps]
    return Graph.from_edge_list(n, edges)


@pytest.mark.parametrize("seed", range(12))
def test_theta_times_complement_theta_is_n_on_circulants(seed):
    # circulants are vertex-transitive, so theta(G) theta(complement) = n
    # (Lovasz 1979, Thm 8); most are not distance-regular, so the ratio
    # pair does not pinch and the IPM runs on both sides
    g = random_circulant(seed)
    t, tc = theta_exact_result(g), theta_exact_result(g.complement())
    assert t.converged and tc.converged
    assert t.value * tc.value == pytest.approx(g.n, abs=1e-5)
    assert t.lower * tc.lower <= g.n <= t.value * tc.value


# -- the IPM over the coherent closure's edge classes -------------------


def relabelled(g, seed):
    """g under a seeded vertex permutation, with no factors or flags."""
    p = np.random.default_rng(seed).permutation(g.n)
    return Graph(g.adj[np.ix_(p, p)])


COHERENT = {
    "petersenxK2": lambda: strong_product(petersen(), complete(2)),
    "c5xc5": lambda: strong_product(cycle(5), cycle(5)),
    "shrikhande": shrikhande,
    "circulant": lambda: random_circulant(4),
    "frucht": frucht,
}


@pytest.mark.parametrize("name", sorted(COHERENT))
def test_pair_colouring_is_coherent(name):
    # the closure's colour classes R_a partition the pairs, refine I, A and
    # the non-edges, are closed under transposes, and every R_a @ R_b is
    # constant on every class; Frucht's pre-pass is discrete, so its
    # closure is run from a one-colour seed to show it is discrete too
    g = COHERENT[name]()
    n = g.n
    col = theta._coherent_closure(g.adj)
    if name == "frucht":
        assert col is None
        col = theta._refine_pairs(g.adj, np.zeros(n, dtype=np.int64))
        assert len(np.unique(col)) == n * n
    r = int(col.max()) + 1
    assert sorted(np.unique(col)) == list(range(r))
    kinds = np.where(np.eye(n, dtype=bool), 2, g.adj.astype(int))
    flat, kinds = col.ravel(), kinds.ravel()
    for c in range(r):
        assert len(np.unique(kinds[flat == c])) == 1
        assert len(np.unique(col.T.ravel()[flat == c])) == 1
    onehot = (col[None] == np.arange(r)[:, None, None]).astype(np.float64)
    for a in range(r):
        counts = np.einsum("ik,bkj->bij", onehot[a], onehot).reshape(r, n * n)
        for c in range(r):
            block = counts[:, flat == c]
            assert np.all(block == block[:, :1])


# with two vertex orbits each
REPRESENTED = dict(COHERENT, **{"c5+c7": lambda: disjoint_union(cycle(5), cycle(7)),
                                "star5": lambda: star(5)})


@pytest.mark.parametrize("name", sorted(REPRESENTED))
def test_representation_is_a_faithful_star_homomorphism(name):
    # L(XY) = L(X) L(Y) and L(X^T) = L(X)^T, and a symmetric X has the
    # eigenvalues of L(X), the extreme ones included. Frucht's discrete
    # colouring, from a one-colour seed, has n^2 classes: the IPM keeps
    # its dense arithmetic, but the representation holds all the same
    g = REPRESENTED[name]()
    n = g.n
    edges = np.nonzero(np.triu(g.adj, 1))
    if name == "frucht":
        col = theta._refine_pairs(g.adj, np.zeros(n, dtype=np.int64))
    else:
        col = theta._coherent_closure(g.adj)
    cls = theta._edge_classes(g, *edges)
    assert isinstance(cls, theta._Regular) == (name != "frucht")
    rep = theta._Regular(n, *edges, col)
    rng = np.random.default_rng(7)
    for _ in range(3):
        x, y = rng.standard_normal((2, rep.d))
        product = coefficients(rep, x[col] @ y[col])
        assert np.allclose(rep.mat(product), rep.mat(x) @ rep.mat(y), rtol=0, atol=1e-10)
        assert np.allclose(rep.mat(coefficients(rep, x[col].T)), rep.mat(x).T,
                           rtol=0, atol=1e-10)
        sym = coefficients(rep, x[col] + x[col].T)
        dense, small = np.linalg.eigvalsh(sym[col]), np.linalg.eigvalsh(rep.mat(sym))
        assert np.abs(small[:, None] - dense[None]).min(axis=1).max() <= 1e-10
        assert abs(small[0] - dense[0]) <= 1e-10 and abs(small[-1] - dense[-1]) <= 1e-10


def _order_n_calls(monkeypatch, n):
    """Counts of np.linalg.eigvalsh and np.linalg.inv calls on n x n matrices."""
    counts = {"eigvalsh": 0, "inv": 0}
    for fname in counts:
        real = getattr(np.linalg, fname)

        def spy(a, *args, real=real, fname=fname, **kwargs):
            counts[fname] += a.shape[-1] == n
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, fname, spy)
    return counts


def test_representation_leaves_only_the_certificates_dense(monkeypatch):
    # the ratio pair's certificate and the final one are the only
    # eigensolves of order n on C5 x Petersen; Frucht's discrete closure
    # runs its 8 iterations as before: 4 step lengths and 2 inverse
    # factors an iteration, and 2 eigensolves in each of 10 certificates,
    # the ratio pair's and one for each of the 9 iterates
    g = relabelled(strong_product(cycle(5), petersen()), seed=3)
    counts = _order_n_calls(monkeypatch, g.n)
    res = theta_exact_result(g)
    assert res.converged and res.iterations == 7
    assert counts["eigvalsh"] <= 4 and counts["inv"] == 0
    g = frucht()
    counts = _order_n_calls(monkeypatch, g.n)
    res = theta_exact_result(g)
    assert res.iterations == 8
    assert counts == {"eigvalsh": 8 * 4 + 10 * 2, "inv": 8 * 2}


@pytest.mark.parametrize("name", ["c5xc5", "c5xpetersen", "c5+c7", "circulant"])
def test_class_counts_survive_relabelling(name):
    g = {"c5xc5": strong_product(cycle(5), cycle(5)),
         "c5xpetersen": strong_product(cycle(5), petersen()),
         "c5+c7": disjoint_union(cycle(5), cycle(7)),
         "circulant": random_circulant(7)}[name]
    counts = []
    for h in (Graph(g.adj), relabelled(g, 11)):
        col = theta._coherent_closure(h.adj)
        cls = theta._edge_classes(h, *np.nonzero(np.triu(h.adj, 1)))
        counts.append((len(np.unique(col)), cls.r))
    assert counts[0] == counts[1]


def star(k):
    return complete_bipartite(1, k)


def theta_odd_cycle(n):
    c = math.cos(math.pi / n)
    return n * c / (1 + c)


# relabelled, so no factors and no closed form: m edges in r classes, and
# theta. The last five closures have two vertex orbits; those of K2,3 and
# P4 have more than n colour classes, so they run unreduced (r = m), the
# others at most n
SYMMETRIC = {
    "c5xpetersen": (lambda: strong_product(cycle(5), petersen()), 275, 3,
                    4 * math.sqrt(5)),
    "c5xc5": (lambda: strong_product(cycle(5), cycle(5)), 100, 2, 5.0),
    "c5+c7": (lambda: disjoint_union(cycle(5), cycle(7)), 12, 2,
              math.sqrt(5) + theta_odd_cycle(7)),
    "star5": (lambda: star(5), 5, 1, 5.0),
    "k23": (lambda: complete_bipartite(2, 3), 6, 6, 3.0),
    "wheel5": (lambda: disjoint_union(cycle(5), empty(1)).complement(), 10, 2,
               math.sqrt(5)),
    "c5+k1": (lambda: disjoint_union(cycle(5), empty(1)), 5, 1, 1 + math.sqrt(5)),
    "p4": (lambda: path(4), 3, 3, 2.0),
}


@pytest.mark.parametrize("name", sorted(SYMMETRIC))
def test_reduced_ipm_follows_the_unreduced_one(name, monkeypatch):
    make, m, r, value = SYMMETRIC[name]
    g = relabelled(make(), seed=3)
    res = theta_exact_result(g)
    assert res.converged and res.classes == r
    assert res.value == pytest.approx(value, rel=0, abs=1e-6)
    monkeypatch.setattr(theta, "_closure", lambda g: None)
    one = theta_exact_result(relabelled(make(), seed=3))
    assert one.converged and one.classes == m
    assert res.iterations == one.iterations
    assert res.value == pytest.approx(one.value, rel=0, abs=1e-9)
    assert res.lower == pytest.approx(one.lower, rel=0, abs=1e-9)


def test_classes_field():
    # m classes on an asymmetric graph, 0 when no IPM ran
    assert theta_exact_result(frucht()).classes == 18
    assert theta_exact_result(petersen()).classes == 0      # the ratio pair
    assert theta_exact_result(empty(4)).classes == 0


def test_asymmetric_graph_is_not_refined_in_pairs(monkeypatch):
    # the vertex pre-pass is discrete, so no n^3 refinement runs
    monkeypatch.setattr(theta, "_refine_pairs", None)
    assert theta._coherent_closure(frucht().adj) is None
    assert theta._coherent_closure(HARD["rr32-3"]().adj) is None


def test_closure_with_more_than_n_classes_is_not_used(monkeypatch):
    # P4 and K2,3 pass the pre-pass (2 vertex colours, 4 <= n) but their
    # closures have 8 and 6 classes, more than their 4 and 5 vertices
    for g, classes in ((path(4), 8), (complete_bipartite(2, 3), 6)):
        vcol = theta._vertex_colours(g.adj)
        assert len(np.unique(theta._refine_pairs(g.adj, vcol))) == classes > g.n
        assert theta._coherent_closure(g.adj) is None
    # two copies of Frucht: the pre-pass gives k = 12 colours on 24
    # vertices, so the closure has at least k^2 = 144 > n classes and the
    # pairs are not refined; every one of the 36 edges is its own class
    g = disjoint_union(frucht(), frucht())
    assert int(theta._vertex_colours(g.adj).max()) + 1 == 12
    monkeypatch.setattr(theta, "_refine_pairs", None)
    assert theta._coherent_closure(g.adj) is None
    res = theta_exact_result(g)
    assert res.converged and res.classes == 36
    assert res.value == pytest.approx(10.0, abs=1e-6)


def test_reduction_fits_where_the_unreduced_ipm_is_refused(monkeypatch):
    # C5^3 read back from graph6 has no factors: 1625 edges in 3 classes.
    # The refinement and the reduced IPM fit 40 MB; the unreduced IPM
    # would not, and is refused when the refinement is
    g = from_graph6(to_graph6(relabelled(strong_power(cycle(5), 3), seed=2)))
    assert g.factors == () and g.edge_count() == 1625
    budget = 40_000_000
    assert theta.wl_bytes(g.n) <= budget < theta.ipm_bytes(g.n, 1625)
    assert theta.ipm_bytes(g.n, 1625, 3, 10) <= budget
    monkeypatch.setattr(graphs, "DENSE_BYTE_BUDGET", budget)
    res = theta_exact_result(g)
    assert res.converged and res.classes == 3 and res.iterations == 8
    assert res.value == pytest.approx(5 ** 1.5, abs=1e-6)
    monkeypatch.setattr(theta, "wl_bytes", lambda n: budget + 1)
    with pytest.raises(ValueError, match="1625 classes"):
        theta_exact_result(Graph(g.adj))
