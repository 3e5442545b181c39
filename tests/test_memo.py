"""Per-graph invariants are computed once: the spectrum, the strong-regularity
parameters and theta are stored on the graph by the functions that compute
them, reused by every later caller, and never carried over to a derived
graph."""

import contextlib
import io

import pytest

from thetakit import cli, spectra, srg, theta
from thetakit.graphs import cycle, petersen
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
