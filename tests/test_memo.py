"""Per-graph invariants are computed once: the degrees, connectivity, the
spectrum, the strong-regularity parameters, theta and an exact independence
number are stored on the graph by the functions that compute them, reused
by every later caller, and never carried over to a derived graph."""

import contextlib
import io

import numpy as np
import pytest

from thetakit import cli, exact, spectra, srg, theta
from thetakit.catalog import load_fixture
from thetakit.exact import chromatic_number, independence_number
from thetakit.graphs import Graph, cycle, frucht, paley, petersen
from thetakit.products import strong_product
from thetakit.spectra import eigenvalues
from thetakit.srg import srg_check
from thetakit.theta import theta_best


@pytest.fixture
def counts(monkeypatch):
    """Count the underlying computations behind the three memoized invariants."""
    seen = {"eigensolve": 0, "srg_identity": 0, "theta_optimizer": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            seen[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(spectra, "jacobi_eigenvalues",
                        counting("eigensolve", spectra.jacobi_eigenvalues))
    monkeypatch.setattr(srg, "_srg_identity",
                        counting("srg_identity", srg._srg_identity))
    monkeypatch.setattr(theta, "theta_exact_result",
                        counting("theta_optimizer", theta.theta_exact_result))
    return seen


def run_quiet(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


@pytest.mark.parametrize("spec", ["frucht", "petersen", "cycle:7"])
def test_analyze_computes_each_invariant_once(spec, counts):
    rc = run_quiet(["analyze", "--gen", spec, "--json",
                    "--tasks", ",".join(cli.TASKS)])
    assert rc == cli.EXIT_OK
    assert counts["eigensolve"] == 1
    assert counts["srg_identity"] == 1
    assert counts["theta_optimizer"] <= 1


@pytest.mark.parametrize("spec", ["frucht", "petersen", "cycle:7"])
def test_analyze_computes_each_graphs_degrees_once(spec, monkeypatch):
    computed = []
    degrees = Graph._degrees

    def spy(g):
        computed.append(id(g))
        return degrees(g)

    monkeypatch.setattr(Graph, "_degrees", spy)
    assert run_quiet(["analyze", "--gen", spec, "--json",
                      "--tasks", ",".join(cli.TASKS)]) == cli.EXIT_OK
    assert computed and len(computed) == len(set(computed))


@pytest.mark.parametrize("spec", ["petersen", "cycle:7", "random_regular:6:1:0"])
def test_analyze_searches_connectivity_once(spec, monkeypatch):
    # the spectrum task reports it, and the ramanujan and k0 tasks ask it
    # before any Ramanujan statement about a regular graph
    searched = []
    search = Graph._is_connected

    def spy(g):
        searched.append(id(g))
        return search(g)

    monkeypatch.setattr(Graph, "_is_connected", spy)
    assert run_quiet(["analyze", "--gen", spec, "--json",
                      "--tasks", ",".join(cli.TASKS)]) == cli.EXIT_OK
    assert len(searched) == 1
    g = petersen()
    assert g.is_connected() is g.is_connected() is True
    assert len(searched) == 2


@pytest.mark.parametrize("g", [petersen(), strong_product(cycle(5), petersen())],
                         ids=["dense", "product"])
def test_degrees_are_stored_read_only(g):
    d = g.degrees()
    assert g.degrees() is d and d.dtype == np.int64
    assert np.array_equal(d, g.adj.sum(axis=1))
    with pytest.raises(ValueError, match="read-only"):
        d[0] = 0
    assert g.degree() == d[0] and g.edge_count() == d.sum() // 2


def test_power_eigensolves_the_factor_once(counts):
    assert run_quiet(["power", "--gen", "petersen", "-k", "3", "--json"]) == 0
    assert counts["eigensolve"] == 1
    assert counts["srg_identity"] == 1


def test_repeated_calls_return_the_stored_result(counts):
    g = cycle(7)
    assert eigenvalues(g) is eigenvalues(g)
    assert srg_check(g) is srg_check(g) is None
    assert theta_best(g) is theta_best(g)
    assert counts == {"eigensolve": 1, "srg_identity": 1, "theta_optimizer": 1}
    # a different tolerance is a different result
    assert eigenvalues(g, rtol=1e-9) is not eigenvalues(g)
    assert counts["eigensolve"] == 2


def test_derived_graphs_start_without_cached_values():
    g = petersen()
    s, p, t = eigenvalues(g), srg_check(g), theta_best(g)
    c = g.complement()
    assert eigenvalues(c).groups != s.groups
    assert eigenvalues(c).largest() == pytest.approx(6.0)
    assert srg_check(c).as_tuple() == p.complement().as_tuple() == (10, 6, 3, 4)
    assert theta_best(c).value == pytest.approx(10 / t.value)
    for h in (g.with_meta(name="relabelled"), g.relabel(list(range(9, -1, -1))),
              g.subgraph(range(9))):
        assert h._memo == {}
    assert srg_check(g.subgraph(range(9))) is None
    assert eigenvalues(g.subgraph(range(9))).n == 9


def complement_searches(monkeypatch, g):
    """Count the clique searches on the complement of g: one per alpha
    search that the memo does not answer."""
    searches = []
    search = exact.clique_number
    want = g.complement().adj

    def spy(h, budget, target=None):
        if np.array_equal(h.adj, want):
            searches.append(target)
        return search(h, budget, target=target)

    monkeypatch.setattr(exact, "clique_number", spy)
    return searches


@pytest.mark.parametrize("spec,g", [("paley:29", paley(29)), ("frucht", frucht())],
                         ids=["paley29", "frucht"])
def test_analyze_searches_alpha_once(spec, g, monkeypatch):
    # the capacity task and chi's alpha step share one search
    searches = complement_searches(monkeypatch, g)
    rc = run_quiet(["analyze", "--gen", spec, "--json", "--exact-chi",
                    "--tasks", ",".join(cli.TASKS)])
    assert rc == cli.EXIT_OK
    assert len(searches) == 1


def test_alpha_timeout_is_not_stored(monkeypatch):
    # without a target, proving alpha(Cameron) = 21 is out of reach of
    # 0.05 s; with floor(theta) = 21 as the target the first 21-set ends
    # the search, so the second call searches again and stores alpha
    g = load_fixture("cameron")
    searches = complement_searches(monkeypatch, g)
    first = independence_number(g, 0.05)
    assert first.status == "timeout" and ("alpha", None) not in g._memo
    second = independence_number(g, 5.0, target=21)
    assert second.status == "exact" and second.value == 21
    assert searches == [None, 21]
    assert independence_number(g, 0.0, target=21) is second
    assert searches == [None, 21]


def test_alpha_below_its_target_serves_only_that_target(monkeypatch):
    # alpha(Petersen) = 4 < 5: the result is stored under target 5 alone,
    # so a call with another target, or none, searches again
    g = petersen()
    searches = complement_searches(monkeypatch, g)
    res = independence_number(g, target=5)
    assert res.status == "exact" and res.value == 4
    assert g._memo[("alpha", 5)] is res
    assert independence_number(g, 0.0, target=5) is res
    assert searches == [5]
    assert independence_number(g, target=10).value == 4
    assert independence_number(g).value == 4
    assert searches == [5, 10, None]


def test_alpha_at_its_target_serves_only_that_target(monkeypatch):
    # 21 ends Cameron's search only because 21 is a proven bound: a call
    # that does not assert it searches on its own budget, and its timeout
    # leaves the stored result as it was
    g = load_fixture("cameron")
    searches = complement_searches(monkeypatch, g)
    res = independence_number(g, 5.0, target=21)
    assert res.status == "exact" and res.value == 21
    assert independence_number(g, 0.0, target=21) is res
    untargeted = independence_number(g, 0.0)
    assert untargeted.status == "timeout"
    assert searches == [21, None]
    assert independence_number(g, 0.0, target=21) is res
    assert searches == [21, None]


def test_chi_does_not_reuse_an_alpha_resting_on_another_target(monkeypatch):
    # a call with target 3 (wrong: alpha(Petersen) = 4) stops at its
    # greedy 4-set, a result that rests on its target; chi's alpha step,
    # which targets 4, and an untargeted call each search again
    g = petersen()
    searches = complement_searches(monkeypatch, g)
    independence_number(g, target=3)
    assert chromatic_number(g, alpha_upper=4).value == 3
    assert independence_number(g).value == 4
    assert searches == [3, 4, None]


def test_derived_graphs_start_without_alpha():
    g = petersen()
    assert independence_number(g).value == 4
    assert ("alpha", None) in g._memo
    for h in (g.complement(), g.with_meta(name="relabelled"),
              g.relabel(list(range(9, -1, -1))), g.subgraph(range(9))):
        assert ("alpha", None) not in h._memo
    assert independence_number(g.complement()).value == 2
