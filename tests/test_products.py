"""Strong products: adjacency identity and analytic spectra vs. dense oracles."""

import tracemalloc

import numpy as np
import pytest

from thetakit.graphs import (
    Graph,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    empty,
    frucht,
    hypercube,
    path,
    petersen,
    random_regular,
    within_budget,
)
from thetakit.products import (
    power_extremes,
    power_spectrum,
    product_spectrum,
    strong_power,
    strong_product,
)
from thetakit.io import write_graph6
from thetakit.spectra import eigenvalues, lambda_nontrivial
from thetakit.theta import theta_best


def test_small_identities():
    assert strong_product(complete(2), complete(2)) == complete(4)
    g = strong_product(cycle(5), cycle(5))
    assert g.n == 25 and g.degree() == 8


def test_adjacency_is_kron_identity():
    # (A+I) kron (B+I) - I, including irregular factors
    rng = np.random.default_rng(5)
    for _ in range(6):
        n1, n2 = rng.integers(2, 7, size=2)
        a = rng.random((n1, n1)) < 0.5
        a = np.triu(a, 1)
        a = a | a.T
        b = rng.random((n2, n2)) < 0.5
        b = np.triu(b, 1)
        b = b | b.T
        g, h = Graph(a), Graph(b)
        p = strong_product(g, h)
        want = np.kron(a + np.eye(n1, dtype=bool), b + np.eye(n2, dtype=bool))
        np.fill_diagonal(want, False)
        assert np.array_equal(p.adj, want)


def test_strong_power():
    g = cycle(5)
    assert strong_power(g, 1) == g
    assert strong_power(g, 2) == strong_product(g, g)
    for k in (0, -1):
        with pytest.raises(ValueError, match="need k >= 1"):
            strong_power(g, k)
    with pytest.raises(ValueError):
        strong_power(g, 7).adj   # a 5^7-vertex adjacency is over the byte budget
    assert not within_budget((5 ** 7) ** 2)


def test_three_factor_product_is_one_kron():
    f = [cycle(5), path(3), petersen()]
    eye = [x.adj | np.eye(x.n, dtype=bool) for x in f]
    want = np.kron(np.kron(eye[0], eye[1]), eye[2])
    np.fill_diagonal(want, False)
    p = strong_product(*f)
    assert np.array_equal(p.adj, want)
    assert p.meta.name == "C5*P3*petersen"
    assert strong_product(cycle(5), Graph(np.zeros((2, 2), dtype=bool))).meta.name == ""
    with pytest.raises(ValueError):
        strong_product()


def test_strong_power_matches_iterated_pairwise_product():
    for g in (cycle(5), path(3), random_regular(6, 3, seed=1)):
        pairwise = g
        for k in range(1, 5):
            if k > 1:
                pairwise = strong_product(pairwise, g)
            p = strong_power(g, k)
            assert np.array_equal(p.adj, pairwise.adj)
            name = g.meta.name
            assert p.meta.name == (f"{name}^{k}" if name else "")


def test_order_and_degree_helpers():
    assert strong_power(cycle(5), 3).degree() == 26


def test_product_spectrum_matches_dense():
    cases = [
        (cycle(5), cycle(5)),
        (petersen(), cycle(4)),
        (path(4), cycle(6)),              # irregular factor
        (random_regular(8, 3, seed=2), random_regular(9, 4, seed=3)),
        (empty(3), cycle(5)),
        (complete(4), complete(5)),
    ]
    for g, h in cases:
        s = product_spectrum([eigenvalues(g, rtol=1e-9),
                              eigenvalues(h, rtol=1e-9)], rtol=1e-10)
        dense = np.sort(np.linalg.eigvalsh(
            strong_product(g, h).adj.astype(np.float64)))[::-1]
        assert np.max(np.abs(s.expanded() - dense)) < 1e-7


def test_power_spectrum_matches_product_spectrum():
    s = eigenvalues(cycle(5))
    for k in (1, 2, 3, 4):
        a = power_spectrum(s, k)
        b = product_spectrum([s] * k)
        assert a.n == b.n == 5 ** k
        av = [(round(v, 8), m) for v, m in a.groups]
        bv = [(round(v, 8), m) for v, m in b.groups]
        assert av == bv


def test_power_spectrum_handles_huge_powers():
    s = eigenvalues(petersen())
    big = power_spectrum(s, 40)          # 10^40 vertices, 3 groups per factor
    assert big.n == 10 ** 40
    assert big.largest() == pytest.approx(4.0 ** 40 - 1.0, rel=1e-12)


EXTREME_CASES = {
    **{f"rr{n}_{d}_{seed}": random_regular(n, d, seed=seed)
       for n, d in ((8, 3), (10, 4), (12, 5), (14, 3)) for seed in (1, 2)},
    "petersen": petersen(),
    "frucht": frucht(),
    "C6": cycle(6),                      # bipartite: -d in the factor
    "Q3": hypercube(3),
    "K3,3": complete_bipartite(3, 3),
    "C5+C5": disjoint_union(cycle(5), cycle(5)),   # the top group repeats
    "2K4": disjoint_union(complete(4), complete(4)),  # lambda_min = -1
    "K5": complete(5),
    "empty4": empty(4),
    "P5": path(5),                       # not regular
}


@pytest.mark.parametrize("name", sorted(EXTREME_CASES))
def test_power_extremes_match_the_multiset_oracle(name):
    s = eigenvalues(EXTREME_CASES[name])
    for k in range(1, 7):
        ps = power_spectrum(s, k, rtol=1e-10)
        l2, lmin, lam = power_extremes(s, k)
        scale = 1e-12 * (1.0 + s.largest()) ** k
        assert l2 == pytest.approx(ps.second_largest(), abs=scale)
        assert lmin == pytest.approx(ps.smallest(), abs=scale)
        if name == "empty4":
            assert lam is None
            with pytest.raises(ValueError, match="no nontrivial"):
                lambda_nontrivial(ps, ps.largest())
        else:
            assert lam == pytest.approx(lambda_nontrivial(ps, ps.largest()), abs=scale)


def test_power_extremes_at_any_k():
    s = eigenvalues(random_regular(60, 7, seed=1))   # 60 distinct values
    assert power_extremes(s, 1)[:2] == (s.second_largest(), s.smallest())
    l2, lmin, lam = power_extremes(s, 100)
    assert l2 == pytest.approx(8.0 ** 99 * (1.0 + s.second_largest()), rel=1e-12)
    assert lmin == pytest.approx(8.0 ** 99 * (1.0 + s.smallest()), rel=1e-12)
    assert lam == max(abs(l2), abs(lmin))
    with pytest.raises(ValueError):
        power_extremes(s, 0)
    with pytest.raises(ValueError):
        power_extremes(eigenvalues(empty(1)), 2)   # one vertex: no lambda2


def test_spectrum_caps():
    s = eigenvalues(random_regular(20, 5, seed=4))  # ~20 distinct values
    with pytest.raises(ValueError):
        product_spectrum([s] * 6)         # 20^6 combinations
    with pytest.raises(ValueError):
        power_spectrum(s, 0)
    with pytest.raises(ValueError):
        product_spectrum([])


def test_product_cap():
    with pytest.raises(ValueError):
        strong_product(complete(200), complete(200)).adj


def _peak_bytes(fn):
    """tracemalloc peak of fn(), which must raise the budget's ValueError."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="budget"):
            fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_budget_refuses_before_allocating():
    k200, e5000 = complete(200), empty(5000)
    s = eigenvalues(random_regular(20, 5, seed=4))
    huge = power_spectrum(eigenvalues(petersen()), 40)
    for fn in (lambda: strong_product(k200, k200).adj,   # 1.6 GB adjacency
               lambda: eigenvalues(e5000),           # ~500 MB eigensolve
               lambda: power_spectrum(s, 8),         # 2.2e6 multisets
               huge.expanded):                       # 10^40 values
        assert _peak_bytes(fn) < 1 << 20


def test_petersen_fifth_power_needs_no_adjacency():
    # theta, degree and edge count of a 10^5-vertex power come from its
    # factors; only its 10 GB adjacency is over the budget, refused on read
    g = strong_power(petersen(), 5)
    tracemalloc.start()
    try:
        est, d, m = theta_best(g), g.degree(), g.edge_count()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (est.value, est.exact, est.method) == (1024.0, 1024, "product")
    assert (d, m) == (1023, 51_150_000) and peak < 4 << 20
    assert _peak_bytes(lambda: g.adj) < 1 << 20
    assert g._adj is None


def test_degree_vector_over_budget_refuses_before_allocating():
    g = strong_power(petersen(), 9)     # 10^9 degrees
    assert _peak_bytes(g.degree) < 1 << 20
    assert g._adj is None


def test_budget_admits_the_largest_old_product():
    assert within_budget(20000 ** 2)
    assert not within_budget(20001 ** 2)


# -- products carry their factors and build the adjacency on first read --


def _eager(factors):
    """The product adjacency as one np.kron chain over the factor matrices."""
    a = np.ones((1, 1), dtype=bool)
    for f in factors:
        a = np.kron(a, f.adj | np.eye(f.n, dtype=bool))
    np.fill_diagonal(a, False)
    return a


LAZY_CASES = {
    "C5xC5": lambda: ([cycle(5)] * 2, strong_product(cycle(5), cycle(5))),
    "petersenxK2": lambda: ([petersen(), complete(2)],
                            strong_product(petersen(), complete(2))),
    "C5^3": lambda: ([cycle(5)] * 3, strong_product(cycle(5), cycle(5), cycle(5))),
    "C5xempty3": lambda: ([cycle(5), empty(3)], strong_product(cycle(5), empty(3))),
    "K3xpetersen": lambda: ([complete(3), petersen()],
                            strong_product(complete(3), petersen())),
    "P3xC4^2-meta": lambda: ([path(3), cycle(4), path(3), cycle(4)],
                             strong_power(strong_product(path(3), cycle(4)), 2)
                             .with_meta(name="x")),
}


@pytest.mark.parametrize("name", sorted(LAZY_CASES))
def test_lazy_product_matches_the_eager_kron(name, tmp_path):
    factors, g = LAZY_CASES[name]()
    want = _eager(factors)
    n = want.shape[0]
    assert g.n == n
    # degrees and edge count come from the factors, with no adjacency built
    assert np.array_equal(g.degrees(), want.sum(axis=1))
    assert g.edge_count() == int(want.sum()) // 2
    assert g.is_regular() == (len(set(want.sum(axis=1).tolist())) <= 1)
    assert g._adj is None
    assert g.adj.dtype == bool and g.adj.shape == (n, n)
    assert g.adj.tobytes() == want.tobytes()
    assert not g.adj.flags.writeable
    assert g.adj is g.adj                   # built once, then kept
    eager = Graph(want, g.meta)
    assert g == eager and hash(g) == hash(eager)
    assert g.complement() == eager.complement()
    assert g.complement().meta == eager.complement().meta
    pick = [0, n - 1, n // 2, 1]
    assert g.subgraph(pick) == eager.subgraph(pick)
    perm = np.random.default_rng(n).permutation(n)
    assert g.relabel(perm) == eager.relabel(perm)
    write_graph6(g, tmp_path / "lazy.g6")
    write_graph6(eager, tmp_path / "eager.g6")
    assert (tmp_path / "lazy.g6").read_bytes() == (tmp_path / "eager.g6").read_bytes()


def test_with_meta_keeps_the_factors_and_builds_nothing():
    p = strong_power(petersen(), 3)
    assert p._adj is None and len(p.factors) == 3
    q = p.with_meta(name="q")
    assert q._adj is None and q.factors == p.factors and q.meta.name == "q"
    assert q.adj is not None and p._adj is None   # each builds its own
    r = q.with_meta(name="r")
    assert r.adj is q.adj                         # once built, shared


def test_nested_products_record_the_innermost_factors():
    c5, k2 = cycle(5), complete(2)
    g = strong_product(strong_product(c5, k2), c5)
    assert g.factors == (c5, k2, c5)
    assert g.meta.name == "C5*K2*C5"
    assert g._adj is None
    assert np.array_equal(g.adj, _eager([c5, k2, c5]))
    # a plain graph has no factors, so a one-factor product records it
    assert c5.factors == () and strong_product(c5).factors == (c5,)
    assert strong_product(c5) == c5


def test_petersen_fourth_power_needs_no_adjacency():
    pet = petersen()
    tracemalloc.start()
    try:
        g = strong_power(pet, 4)
        degrees = g.degrees()
        edges = g.edge_count()
        est = theta_best(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.n == 10 ** 4 and g._adj is None
    assert degrees.min() == degrees.max() == 255 and edges == 10 ** 4 * 255 // 2
    assert est.method == "product" and est.exact == 256 and est.value == 256.0
    assert peak < 1 << 20
