"""Strong-regularity certification and parameter arithmetic."""

from fractions import Fraction

import pytest

from thetakit.graphs import (
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
    shrikhande,
)
from thetakit.srg import SrgParams, srg_check, srg_params_feasible


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
