"""Catalog resolution, fixture integrity, and the published reference
values shipped in the manifest."""

import pytest

from thetakit import catalog
from thetakit.catalog import (
    PARAM_ENTRIES,
    entries,
    fixture_names,
    generator_names,
    load,
    load_fixture,
)
from thetakit.exact import clique_number, independence_number
from thetakit.graphs import petersen
from thetakit.spectra import eigenvalues
from thetakit.srg import SrgParams, srg_check
from thetakit.theta import theta_srg

from conftest import isomorphic


def test_generator_resolution():
    assert isomorphic(load("petersen"), petersen())
    assert load("cycle:7").n == 7
    assert load("kneser:6:2").n == 15
    assert load("complete_bipartite:2:3").edge_count() == 6
    assert load("hypercube:4").n == 16


def test_random_regular_spec():
    g = load("random_regular:20:3:7")
    assert g.n == 20
    assert g.is_regular() and g.degree() == 3
    assert "random_regular" in generator_names()


def test_generator_names_cover_core():
    names = generator_names()
    for want in ("petersen", "shrikhande", "paley", "kneser", "cycle"):
        assert want in names


def test_bad_specs():
    with pytest.raises(ValueError):
        load("nope")
    with pytest.raises(ValueError):
        load("nope:3")
    with pytest.raises(ValueError):
        load("cycle:3:4")
    with pytest.raises(ValueError, match="bad arguments for generator 'cycle'.*'x'"):
        load("cycle:x")
    with pytest.raises(ValueError, match="bad arguments for generator 'petersen'.*'x'"):
        load("petersen:x")
    # a generator's own refusal passes through as it is
    with pytest.raises(ValueError, match="^cycle needs n >= 3$"):
        load("cycle:2")
    with pytest.raises(KeyError):
        load_fixture("nope")


def test_fixture_load_reads_the_manifest_once(monkeypatch):
    reads = []
    manifest = catalog._manifest

    def spy():
        reads.append(1)
        return manifest()

    monkeypatch.setattr(catalog, "_manifest", spy)
    g = load("perkel")
    assert len(reads) == 1
    assert g.n == 57 and g.meta.name == "perkel" and g.meta.vertex_transitive
    assert load_fixture("chang1").meta.vertex_transitive is None
    assert len(reads) == 2


def test_paley13_flags_truthful():
    g = load("paley:13")
    assert isomorphic(g, g.complement())
    assert srg_check(g) is not None


def test_fixture_names_complete():
    names = fixture_names()
    for want in ("cameron", "chang1", "chang2", "chang3", "gewirtz", "gosset",
                 "hall_janko", "hoffman_singleton", "m22", "perkel",
                 "schlafli"):
        assert want in names


def test_fixture_srg_fields_match_reality():
    for e in entries():
        if e.kind != "fixture":
            continue
        g = load_fixture(e.name)
        assert g.n == e.order
        p = srg_check(g)
        if e.srg is None:
            assert p is None
        else:
            assert p is not None and p.as_tuple() == e.srg


def test_hall_janko_reference_values():
    e = next(x for x in entries() if x.name == "hall_janko")
    assert e.expected["theta"] == 10
    assert e.expected["alpha"] == 10
    g = load_fixture("hall_janko")
    t, tc = theta_srg(srg_check(g))
    assert float(t) == pytest.approx(10.0)
    assert float(tc) == pytest.approx(10.0)


def test_fixture_expected_spot_checks():
    # cheap solver cross-checks of shipped reference values
    g = load_fixture("chang1")
    e = next(x for x in entries() if x.name == "chang1")
    assert independence_number(g, budget=30.0).value == e.expected["alpha"]
    assert clique_number(g, budget=30.0).value == e.expected["omega"]

    gw = load_fixture("gewirtz")
    assert clique_number(gw, budget=30.0).value == 2
    s = eigenvalues(gw)
    assert s.second_largest() == pytest.approx(2.0, abs=1e-8)


def test_fixture_theta_expected_consistent_with_closed_form():
    for e in entries():
        if e.kind != "fixture" or "theta" not in e.expected or e.srg is None:
            continue
        t, _ = theta_srg(SrgParams(*e.srg))
        assert float(t) == pytest.approx(e.expected["theta"], abs=1e-9), e.name


def test_param_entries():
    suzuki = next(e for e in PARAM_ENTRIES if e.name == "suzuki-params")
    assert suzuki.kind == "params"
    assert suzuki.srg == (1782, 416, 100, 96)
    assert suzuki.expected["chromatic_factor"] == 27


def test_entries_have_kinds_and_descriptions():
    kinds = {e.kind for e in entries()}
    assert kinds == {"generator", "fixture", "params"}
    assert all(e.description for e in entries())


def test_transitivity_flags_present():
    g = load_fixture("hoffman_singleton")
    assert g.meta.vertex_transitive is True
    c = load_fixture("chang1")
    assert c.meta.vertex_transitive is None
