"""Generators, the Graph container and the BLAS thread policy."""

import contextlib
import io
import itertools
import tracemalloc

import numpy as np
import pytest

from thetakit import catalog, graphs, theta
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
    self_complementary_extend,
    shrikhande,
)
from thetakit.products import strong_power, strong_product
from thetakit.srg import srg_check

from conftest import isomorphic


def test_complete():
    g = complete(5)
    assert g.n == 5
    assert g.edge_count() == 10
    assert g.is_regular() and g.degree() == 4
    assert g.meta.vertex_transitive


def test_empty():
    g = empty(7)
    assert g.n == 7
    assert g.edge_count() == 0
    assert g.degree() == 0


def test_cycle_and_path():
    c = cycle(6)
    assert c.edge_count() == 6 and c.degree() == 2 and c.is_connected()
    p = path(5)
    assert p.edge_count() == 4
    assert sorted(p.degrees().tolist()) == [1, 1, 2, 2, 2]
    with pytest.raises(ValueError):
        cycle(2)


def test_complete_bipartite():
    g = complete_bipartite(3, 4)
    assert g.n == 7 and g.edge_count() == 12
    assert sorted(set(g.degrees().tolist())) == [3, 4]
    assert complete_bipartite(3, 3).is_regular()


def test_kneser_petersen():
    g = kneser(6, 2)
    assert g.n == 15 and g.degree() == 6
    assert isomorphic(petersen(), kneser(5, 2))
    with pytest.raises(ValueError):
        kneser(3, 0)


def test_paley():
    g = paley(13)
    assert g.degree() == 6
    assert srg_check(g).as_tuple() == (13, 6, 2, 3)
    assert isomorphic(g, g.complement())
    with pytest.raises(ValueError):
        paley(7)       # 3 mod 4
    with pytest.raises(ValueError):
        paley(9)       # prime power, not prime
    with pytest.raises(ValueError):
        paley(21)      # 1 mod 4 but composite


def test_paley_5_is_the_pentagon():
    assert isomorphic(paley(5), cycle(5))


def test_shrikhande():
    g = shrikhande()
    assert srg_check(g).as_tuple() == (16, 6, 2, 2)


def test_hypercube():
    q3 = hypercube(3)
    assert q3.n == 8 and q3.degree() == 3 and q3.is_connected()
    vals = np.sort(np.linalg.eigvalsh(q3.adj.astype(float)))
    assert np.allclose(vals, [-3, -1, -1, -1, 1, 1, 1, 3], atol=1e-9)
    # adjacent exactly when the labels differ in one bit
    x = np.arange(32)[:, None] ^ np.arange(32)[None, :]
    want = (x != 0) & (x & (x - 1) == 0)
    assert np.array_equal(hypercube(5).adj, want)


def test_frucht():
    g = frucht()
    assert g.n == 12 and g.degree() == 3 and g.is_connected()
    assert srg_check(g) is None


def test_disjoint_union():
    g = disjoint_union(complete(2), complete(2), complete(2))
    assert g.n == 6 and g.degree() == 1 and not g.is_connected()


def test_common_degree_is_found_once(monkeypatch):
    g = path(5)
    assert not g.is_regular()
    with pytest.raises(ValueError, match="not regular"):
        g.degree()
    for e in (empty(0), empty(5), Graph(np.zeros((0, 0), dtype=bool))):
        assert e.is_regular() and e.degree() == 0
    assert strong_power(petersen(), 3).degree() == 63
    # each graph compares its degrees once; later queries read the memo
    reads = []
    degrees = Graph.degrees
    monkeypatch.setattr(Graph, "degrees", lambda self: reads.append(1) or degrees(self))
    irregular, cubic = path(5), petersen()
    for _ in range(3):
        assert irregular.is_regular() is False and cubic.degree() == 3
        with pytest.raises(ValueError):
            irregular.degree()
    assert len(reads) == 2


def old_random_regular(n, d, seed):
    """random_regular's adjacency, built and repaired pair by pair."""
    from collections import Counter
    if 2 * d > n - 1:
        a = ~old_random_regular(n, n - 1 - d, seed)
        np.fill_diagonal(a, False)
        return a
    rng = np.random.default_rng(seed)
    while True:
        stubs = np.repeat(np.arange(n), d)
        rng.shuffle(stubs)
        pairs = [(min(u, v), max(u, v)) for u, v in stubs.reshape(-1, 2).tolist()]
        count, m, tries = Counter(pairs), len(pairs), 0
        for i in range(m):
            while pairs[i][0] == pairs[i][1] or count[pairs[i]] > 1:
                tries += 1
                if tries > 100 * m:
                    break
                j = int(rng.integers(m))
                (a, b), (c, e) = pairs[i], pairs[j]
                if rng.random() < 0.5:
                    c, e = e, c
                new1, new2 = (min(a, c), max(a, c)), (min(b, e), max(b, e))
                if a == c or b == e or new1 == new2 or count[new1] or count[new2]:
                    continue
                count[pairs[i]] -= 1
                count[pairs[j]] -= 1
                count[new1] += 1
                count[new2] += 1
                pairs[i], pairs[j] = new1, new2
        if tries <= 100 * m:
            a = np.zeros((n, n), dtype=bool)
            for u, v in pairs:
                a[u, v] = a[v, u] = True
            return a


@pytest.mark.parametrize("n,d", [(11, 4), (12, 5), (24, 4), (24, 19), (60, 6),
                                 (60, 8), (61, 44), (100, 3)])
def test_random_regular_matches_the_pairwise_build(n, d):
    for seed in range(5):
        assert np.array_equal(random_regular(n, d, seed).adj,
                              old_random_regular(n, d, seed))


def test_random_regular_deterministic():
    a = random_regular(14, 5, seed=7)
    b = random_regular(14, 5, seed=7)
    assert a == b
    assert a.is_regular() and a.degree() == 5
    with pytest.raises(ValueError):
        random_regular(7, 3, seed=0)   # odd n*d
    with pytest.raises(ValueError):
        random_regular(5, 5, seed=0)


@pytest.mark.parametrize("d", [6, 7, 8])
def test_random_regular_dense_degrees_succeed(d):
    # a bare pairing is simple for about 1 in 6000 draws at d=6 and 1 in
    # 7 million at d=8 here (exp(-(d^2-1)/4)); the repair must not give up
    for seed in range(16):
        g = random_regular(60, d, seed=seed)
        assert g.n == 60 and g.degree() == d
        assert g.edge_count() == 60 * d // 2   # no pair was merged away
    assert random_regular(60, d, seed=3) == random_regular(60, d, seed=3)


def test_random_regular_extreme_degrees():
    assert random_regular(8, 0, seed=1).edge_count() == 0
    assert random_regular(8, 7, seed=1) == complete(8)
    assert random_regular(9, 8, seed=2) == complete(9)


def test_complement_involution():
    for seed in range(4):
        g = random_regular(10, 3, seed=seed)
        assert g.complement().complement() == g
    c = cycle(5)
    assert isomorphic(c.complement(), c)   # C5 is self-complementary


def test_complement_keeps_only_the_flags_it_preserves():
    # a complement has the same automorphisms, so vertex_transitive stays
    assert cycle(6).complement().meta.vertex_transitive is True
    assert frucht().complement().meta.vertex_transitive is None


def _rotation(n):
    return [(i + 1) % n for i in range(n)]


def _on_subsets(m, r, sigma):
    """sigma, a permutation of range(m), acting on kneser(m, r)'s vertices."""
    subsets = [frozenset(c) for c in itertools.combinations(range(m), r)]
    index = {s: i for i, s in enumerate(subsets)}
    return [index[frozenset(sigma[x] for x in s)] for s in subsets]


def _kneser_generators(m, r):
    swap = [1, 0, *range(2, m)]
    return [_on_subsets(m, r, _rotation(m)), _on_subsets(m, r, swap)]


def _side_generators(a):
    """K_{a,a}: swap the sides, and rotate the first side."""
    return [[(i + a) % (2 * a) for i in range(2 * a)],
            [*_rotation(a), *range(a, 2 * a)]]


def _shrikhande_generators():
    # vertex 4x + y is (x, y) in Z4 x Z4
    return [[4 * ((v // 4 + 1) % 4) + v % 4 for v in range(16)],
            [4 * (v // 4) + (v + 1) % 4 for v in range(16)]]


def _product_generators(g, gens_g, h, gens_h):
    """Each factor's generators times the identity on the other, on the
    strong product's vertices (i, j) at i * h.n + j."""
    out = [[p[i] * h.n + j for i in range(g.n) for j in range(h.n)] for p in gens_g]
    out += [[i * h.n + q[j] for i in range(g.n) for j in range(h.n)] for q in gens_h]
    return out


_VT_CASES = [
    *[(f"cycle:{n}", cycle(n), [_rotation(n)]) for n in (3, 5, 6, 7, 12)],
    *[(f"complete:{n}", complete(n), [_rotation(n)]) for n in (1, 2, 5)],
    *[(f"empty:{n}", empty(n), [_rotation(n)]) for n in (1, 4)],
    *[(f"kneser:{m}:{r}", kneser(m, r), _kneser_generators(m, r))
      for m, r in [(5, 2), (6, 2), (7, 2), (7, 3), (4, 4)]],
    ("petersen", petersen(), _kneser_generators(5, 2)),
    *[(f"paley:{q}", paley(q), [_rotation(q)]) for q in (5, 13, 29)],
    *[(f"hypercube:{k}", hypercube(k), [[u ^ (1 << b) for u in range(1 << k)]
                                        for b in range(k)]) for k in (1, 3, 4)],
    *[(f"complete_bipartite:{a}:{a}", complete_bipartite(a, a), _side_generators(a))
      for a in (1, 3, 4)],
    ("shrikhande", shrikhande(), _shrikhande_generators()),
    ("cycle:5*petersen", strong_product(cycle(5), petersen()),
     _product_generators(cycle(5), [_rotation(5)], petersen(),
                         _kneser_generators(5, 2))),
]


@pytest.mark.parametrize("g, gens", [case[1:] for case in _VT_CASES],
                         ids=[case[0] for case in _VT_CASES])
def test_vertex_transitive_flag_is_certified(g, gens):
    # the flag is asserted, and the alpha/omega searches trust it: each
    # generator must be an automorphism, and together they must move
    # vertex 0 to every vertex
    assert g.meta.vertex_transitive is True
    for p in gens:
        assert sorted(p) == list(range(g.n))
        assert np.array_equal(g.adj[np.ix_(p, p)], g.adj)
    orbit, frontier = {0}, [0]
    while frontier:
        v = frontier.pop()
        for p in gens:
            if p[v] not in orbit:
                orbit.add(p[v])
                frontier.append(p[v])
    assert len(orbit) == g.n


# every catalog fixture flagged vertex_transitive, beside the library
# generators of _VT_CASES
_VT_FIXTURES = [(name, catalog.load_fixture(name)) for name in catalog.fixture_names()
                if catalog.load_fixture(name).meta.vertex_transitive]


@pytest.mark.parametrize("g", [case[1] for case in _VT_CASES + _VT_FIXTURES],
                         ids=[case[0] for case in _VT_CASES + _VT_FIXTURES])
def test_vertex_transitive_flag_passes_the_colour_pre_pass(g):
    # a necessary check on the flag: automorphisms preserve the colour
    # refinement, so a vertex-transitive graph has one vertex colour. It
    # is the theta solver's pre-pass, O(n^3) for one A @ A, with no
    # refinement of pairs
    assert g.meta.vertex_transitive is True
    assert not theta._vertex_colours(g.adj).any()


def test_the_colour_pre_pass_sees_an_asymmetric_graph():
    # Frucht's graph is 3-regular with no automorphism but the identity
    assert len(set(theta._vertex_colours(frucht().adj))) == 12


def test_from_edge_list_and_relabel():
    g = Graph.from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    assert g.has_edge(1, 2) and not g.has_edge(0, 3)
    h = g.relabel([3, 2, 1, 0])
    assert isomorphic(g, h)
    sub = g.subgraph([0, 1, 2])
    assert sub.n == 3 and sub.edge_count() == 2


def test_graph_is_immutable():
    g = cycle(4)
    with pytest.raises(AttributeError):
        g.n = 7
    assert not g.adj.flags.writeable


def test_derived_graphs_are_valid_and_frozen():
    g = random_regular(9, 4, seed=3)
    derived = [g.with_meta(name="x"), g.complement(), g.relabel(np.arange(9)[::-1]),
               g.subgraph([0, 2, 2, 5]), strong_product(g, path(3)),
               strong_power(cycle(4), 3)]
    for h in derived:
        assert h.adj.dtype == bool and not h.adj.flags.writeable
        assert np.array_equal(h.adj, h.adj.T)
        assert not h.adj.diagonal().any()
    assert derived[0].adj is g.adj          # with_meta shares, never copies
    # checks on outside input stay
    with pytest.raises(ValueError):
        Graph(np.array([[0, 1], [0, 0]]))
    with pytest.raises(ValueError):
        Graph(np.eye(2))


def test_with_meta():
    g = cycle(4).with_meta(name="box")
    assert g.meta.name == "box"
    assert g.meta.vertex_transitive   # preserved from the generator


def test_self_complementary_extend():
    # trust boundary: the +4 construction is verified by isomorphism search
    g = cycle(5)
    for _ in range(2):
        g = self_complementary_extend(g)
        assert isomorphic(g, g.complement())
    assert g.n == 13


# graphs of 200 to 256 vertices, built at a 10 000-byte dense budget
BUILDERS = {
    "empty": lambda: empty(200),
    "complete": lambda: complete(200),
    "cycle": lambda: cycle(200),
    "path": lambda: path(200),
    "complete_bipartite": lambda: complete_bipartite(100, 100),
    "kneser": lambda: kneser(12, 3),
    "paley": lambda: paley(101),
    "hypercube": lambda: hypercube(8),
    "random_regular": lambda: random_regular(200, 3, seed=0),
    "from_edge_list": lambda: Graph.from_edge_list(200, [(0, 1)]),
}


@pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS.keys())
def test_construction_is_refused_over_the_budget(build, monkeypatch):
    monkeypatch.setattr(graphs, "DENSE_BYTE_BUDGET", 10_000)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="budget"):
            build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # refused before the adjacency, the edges or the subsets exist
    assert peak < 10_000


def test_combinators_are_refused_over_the_budget(monkeypatch):
    parts = [cycle(5)] * 30
    sc = paley(97)
    monkeypatch.setattr(graphs, "DENSE_BYTE_BUDGET", 10_000)
    with pytest.raises(ValueError, match="budget"):
        disjoint_union(*parts)
    with pytest.raises(ValueError, match="budget"):
        self_complementary_extend(sc)


@pytest.mark.parametrize("d", [99, 150], ids=["sparse-side", "complement-side"])
def test_random_regular_pairing_is_refused_over_the_budget(d, monkeypatch):
    # the 3 * 200^2-byte adjacency fits in 500 000 bytes, but a pairing of
    # 9900 (d = 99) or 4900 (the complement's d = 49) pairs does not
    monkeypatch.setattr(graphs, "DENSE_BYTE_BUDGET", 500_000)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="pairing.*budget"):
            random_regular(200, d, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 500_000
    # a sparse pairing on the same vertices still fits
    assert random_regular(200, 3, seed=0).degree() == 3


def test_random_regular_pairing_peak_within_its_estimate():
    # the budget check trusts PAIRING_PAIR_BYTES, so it must bound the peak
    n, d = 1000, 100
    tracemalloc.start()
    try:
        random_regular(n, d, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= graphs.PAIRING_PAIR_BYTES * (n * d // 2)


# -- small dense solves on one OpenBLAS thread ---------------------------


def numpy_reports_openblas():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        np.show_config()
    return "openblas" in buf.getvalue().lower()


def test_one_blas_thread_finds_numpys_openblas():
    # a numpy built on OpenBLAS must expose a thread setter the helper
    # knows, or small solves would silently keep every thread
    calls = graphs._openblas_threads()
    if numpy_reports_openblas():
        assert calls

    def threads():
        return [get() for get, _ in calls]

    before = threads()
    with graphs._one_blas_thread(graphs.ONE_THREAD_ORDER - 1):
        assert threads() == [1] * len(calls)
        vals = np.linalg.eigvalsh(petersen().adj.astype(float))
    assert threads() == before
    assert vals[0] == pytest.approx(-2.0) and vals[-1] == pytest.approx(3.0)
    with graphs._one_blas_thread(graphs.ONE_THREAD_ORDER):
        assert threads() == before
    with pytest.raises(np.linalg.LinAlgError):
        with graphs._one_blas_thread(2):
            np.linalg.cholesky(-np.eye(2))
    assert threads() == before
