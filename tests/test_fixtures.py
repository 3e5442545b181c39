"""scripts/make_fixtures.py rebuilds every bundled fixture byte for byte,
its group toolkit numbers orbits and cosets as the constructions assume,
PSL(2,19) certifies the Perkel fixture's vertex_transitive flag, and every
function of the script is used by the script."""

import ast
import importlib.util
import itertools
from pathlib import Path

import numpy as np
import pytest

from test_api import _names
from thetakit.catalog import load_fixture

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "make_fixtures.py"


@pytest.fixture(scope="module")
def mf():
    spec = importlib.util.spec_from_file_location("make_fixtures", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_build_rewrites_every_fixture_byte_for_byte(mf, tmp_path, monkeypatch):
    bundled = mf.FIXTURE_DIR
    before = {p.name: p.stat().st_mtime_ns for p in bundled.iterdir()}
    monkeypatch.setattr(mf, "FIXTURE_DIR", tmp_path)
    mf.build()
    built = sorted(p.name for p in tmp_path.iterdir())
    assert len(built) == 12 and built == sorted(before)
    for name in built:
        assert (tmp_path / name).read_bytes() == (bundled / name).read_bytes(), name
    assert {p.name: p.stat().st_mtime_ns for p in bundled.iterdir()} == before


def test_perkel_vertex_transitive_flag_is_certified(mf):
    g = load_fixture("perkel")
    assert g.meta.vertex_transitive
    a = g.adj
    gens, _, _ = mf.perkel_action()
    for p in gens:
        assert np.array_equal(a[np.ix_(p, p)], a)
    assert mf._orbits(g.n, gens) == [set(range(g.n))]


def test_orbit_search(mf):
    # the 5-cycle's rotation and reflection: the rotation is transitive,
    # the reflection's orbits come in order of their least point, the
    # rotation carries one edge round the cycle, and D5 has order 10
    rot, ref = (1, 2, 3, 4, 0), (0, 4, 3, 2, 1)
    assert mf._orbits(5, [rot]) == [set(range(5))]
    assert mf._orbits(5, [ref]) == [{0}, {1, 4}, {2, 3}]
    # orbits of one size are taken together, once their sizes are checked
    assert mf._by_size(mf._orbits(5, [ref]), [1, 2, 2]) == {1: {0}, 2: {1, 2, 3, 4}}
    with pytest.raises(AssertionError):
        mf._by_size(mf._orbits(5, [ref]), [1, 4])
    assert mf._orbital([(1, 0)], [rot]) == {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}
    assert len(mf._group((rot, ref))) == 10
    assert mf._group((rot, ref), limit=9) is None
    assert len(mf._group((rot, ref), limit=10)) == 10


def test_cosets_are_numbered_by_their_least_element(mf):
    # S4 over the stabiliser of a point, checked against keying every
    # element by its coset's least index, min over g * h
    elems = sorted(itertools.permutations(range(4)))
    sub = sorted(mf._group(((1, 0, 2, 3), (0, 2, 1, 3))))
    assert len(sub) == 6
    reps, coset_of = mf._cosets(elems, sub)
    index = {g: i for i, g in enumerate(elems)}
    keys = [min(index[mf._mul(g, h)] for h in sub) for g in elems]
    assert [index[r] for r in reps] == sorted(set(keys))
    assert [coset_of[g] for g in elems] == [sorted(set(keys)).index(k) for k in keys]
    # S4 acts on the four cosets as on the points, one orbit
    act = mf._on_cosets([(1, 2, 3, 0), (1, 0, 2, 3)], reps, coset_of)
    assert mf._orbits(4, act) == [set(range(4))]


def _unnamed(source):
    """The module-level functions of `source`, private ones included, that
    it names nowhere outside their own definitions."""
    tree = ast.parse(source)
    everywhere = _names(tree)
    return {node.name for node in tree.body if isinstance(node, ast.FunctionDef)
            and everywhere[node.name] == _names(node)[node.name]}


def test_every_function_of_the_script_is_used_by_it():
    assert _unnamed(SCRIPT.read_text()) == set()
