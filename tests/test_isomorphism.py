"""Isomorphism facts about the library's graphs, decided by networkx's VF2
(cospectral strongly regular graphs with identical parameters among them)."""

import itertools

import numpy as np

from thetakit.catalog import load_fixture
from thetakit.graphs import (
    Graph,
    cycle,
    kneser,
    paley,
    path,
    petersen,
    shrikhande,
)
from thetakit.srg import srg_check

from conftest import isomorphic


def rook_4x4():
    """4x4 rook's graph: same parameters (16, 6, 2, 2) as Shrikhande but
    not isomorphic to it."""
    adj = np.zeros((16, 16), dtype=bool)
    for a, b in itertools.combinations(range(16), 2):
        if a // 4 == b // 4 or a % 4 == b % 4:
            adj[a, b] = adj[b, a] = True
    return Graph(adj)


def test_petersen_is_kneser():
    assert isomorphic(petersen(), kneser(5, 2))


def test_shrikhande_vs_rook():
    rook = rook_4x4()
    assert srg_check(rook).as_tuple() == (16, 6, 2, 2)
    assert srg_check(shrikhande()).as_tuple() == (16, 6, 2, 2)
    assert not isomorphic(shrikhande(), rook)


def test_chang_graphs_pairwise_distinct():
    t8 = kneser(8, 2).complement()
    graphs = [t8] + [load_fixture(f"chang{i}") for i in (1, 2, 3)]
    for g in graphs:
        assert srg_check(g).as_tuple() == (28, 12, 6, 4)
    for a, b in itertools.combinations(graphs, 2):
        assert not isomorphic(a, b)


def test_self_complementary():
    for g in (paley(5), paley(13), paley(17), path(4)):
        assert isomorphic(g, g.complement())
    for g in (petersen(), cycle(6)):
        assert not isomorphic(g, g.complement())
