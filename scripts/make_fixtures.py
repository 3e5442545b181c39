#!/usr/bin/env python3
"""Build the bundled graph fixtures from classical constructions, certify
each one (exact strong-regularity identity, spectra, and small exact
invariants), and write graph6 files plus manifest.json into the package.
T(8), Gosset, the Chang graphs and Schlafli come from the library's
kneser: kneser(8, 2) gives the triangular graph T(8) as its complement,
the Chang graphs as T(8) switched, and Gosset as a 2x2 block matrix of
the two; kneser(6, 2) is the block of Schlafli's meet graph on the 15
diagonal lines.

Run from the repository root:  python3 scripts/make_fixtures.py [names...]
"""

from __future__ import annotations

import itertools
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from thetakit.exact import chromatic_number, clique_number, independence_number
from thetakit.graphs import Graph, kneser
from thetakit.io import to_graph6
from thetakit.spectra import eigenvalues
from thetakit.srg import SrgParams, srg_check
from thetakit.theta import theta_srg

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "src" / "thetakit" / "fixtures"


# ---------------------------------------------------------------------
# Hoffman-Singleton: five pentagons and five pentagrams over Z5.
# ---------------------------------------------------------------------


def hoffman_singleton() -> Graph:
    # vertex layout: P[h][j] -> 5*h + j, Q[i][j] -> 25 + 5*i + j
    edges = []
    for h in range(5):
        for j in range(5):
            edges.append((5 * h + j, 5 * h + (j + 1) % 5))          # pentagon
            edges.append((25 + 5 * h + j, 25 + 5 * h + (j + 2) % 5))  # pentagram
    for h in range(5):
        for i in range(5):
            for j in range(5):
                edges.append((5 * h + j, 25 + 5 * i + (h * i + j) % 5))
    return Graph.from_edge_list(50, edges)


# ---------------------------------------------------------------------
# The 2-subsets of an m-set, in lexicographic order: kneser(m, 2) joins
# two that are disjoint, its complement, for m = 8 the triangular graph
# T(8), two that share an element.
# ---------------------------------------------------------------------


# Gosset: signed 2-subsets; equal signs join when the pairs share one
# element, opposite signs join when the pairs are disjoint.
def gosset() -> Graph:
    k = kneser(8, 2)
    t = k.complement().adj
    return Graph(np.block([[t, k.adj], [k.adj, t]]))


# Chang graphs: Seidel switching of T(8) about three kinds of edge sets
# of K8 (a perfect matching, an 8-cycle, and a triangle plus a pentagon):
# the pairs in the set and the rest swap edges and non-edges between them.
def chang(which: int) -> Graph:
    if which == 1:
        switch_edges = [(0, 1), (2, 3), (4, 5), (6, 7)]
    elif which == 2:
        switch_edges = [(i, (i + 1) % 8) for i in range(8)]
    elif which == 3:
        switch_edges = [(0, 1), (1, 2), (2, 0)] \
            + [(3 + i, 3 + (i + 1) % 5) for i in range(5)]
    else:
        raise ValueError(which)
    pairs = list(itertools.combinations(range(8), 2))
    s = np.zeros(28, dtype=bool)
    s[[pairs.index(tuple(sorted(e))) for e in switch_edges]] = True
    return Graph(kneser(8, 2).complement().adj ^ (s[:, None] != s))


# Schlafli: complement of the line-intersection graph of a double six
# a_i, b_i plus the 15 diagonal lines c_jk (the 27 lines of a cubic
# surface). a_i meets b_j when i != j, a_i and b_i meet c_jk when i is j
# or k, and c_jk meets the c whose pairs are disjoint from jk: kneser(6, 2).
def schlafli() -> Graph:
    p = _incidence(list(itertools.combinations(range(6), 2)), 6)
    o, j = np.zeros((6, 6), dtype=np.int64), 1 - np.eye(6, dtype=np.int64)
    meets = np.block([[o, j, p.T], [j, o, p.T], [p, p, kneser(6, 2).adj]])
    return Graph(meets > 0).complement()


# ---------------------------------------------------------------------
# Permutation groups, small enough to list: a permutation is the tuple
# of its images, and _mul(g, h) is g after h.
# ---------------------------------------------------------------------


def _mul(g, h):
    """g after h: x -> g[h[x]]."""
    return tuple(g[x] for x in h)


def _orbit(seeds, gens, act, limit=None):
    """The set of everything reached from seeds by act(g, x) for the
    generators g, breadth first; None once it holds more than limit."""
    seen = set(seeds)
    frontier = list(seen)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = act(g, x)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
                    if limit is not None and len(seen) > limit:
                        return None
        frontier = nxt
    return seen


def _group(gens, limit=None):
    """The elements of the group that the permutations gens generate."""
    return _orbit([tuple(range(len(gens[0])))], gens,
                  lambda h, g: _mul(g, h), limit)


def _orbits(n, gens):
    """The orbits of gens on the points 0..n-1, in order of their least
    point."""
    orbits = []
    for s in range(n):
        if not any(s in o for o in orbits):
            orbits.append(_orbit([s], gens, lambda g, x: g[x]))
    return orbits


def _by_size(orbits, sizes):
    """The orbits, whose sizes must be `sizes` in increasing order, as a
    map from a size to the union of the orbits of that size."""
    assert sorted(map(len, orbits)) == sizes, sorted(map(len, orbits))
    out = {}
    for o in orbits:
        out.setdefault(len(o), set()).update(o)
    return out


def _edge(u, v):
    return (min(u, v), max(u, v))


def _orbital(pairs, gens):
    """The orbit of the given vertex pairs under gens, as an edge set."""
    return _orbit({_edge(u, v) for u, v in pairs}, gens,
                  lambda g, e: _edge(g[e[0]], g[e[1]]))


def _perm_order(g):
    n = len(g)
    seen = [False] * n
    order = 1
    for s in range(n):
        if seen[s]:
            continue
        ln = 0
        x = s
        while not seen[x]:
            seen[x] = True
            x = g[x]
            ln += 1
        order = math.lcm(order, ln)
    return order


def _find_23_subgroup(elems, k, order):
    """A subgroup of the given order, generated by an order-2 element a
    and an order-3 element b whose product ab has order k: the first such
    pair in the sorted elements. Sorted."""
    twos = [g for g in elems if _perm_order(g) == 2]
    threes = [g for g in elems if _perm_order(g) == 3]
    for a in twos:
        for b in threes:
            if _perm_order(_mul(a, b)) != k:
                continue
            sub = _group((a, b), order)
            if sub is not None and len(sub) == order:
                return sorted(sub)
    raise RuntimeError(f"no (2,3,{k}) subgroup of order {order} found")


def _cosets(elems, sub):
    """The left cosets g*sub of a subgroup of the sorted elements, numbered
    in order of their least element: that least element of each coset,
    and the coset number of every element."""
    reps, coset_of = [], {}
    for g in elems:
        if g not in coset_of:
            for h in sub:
                coset_of[_mul(g, h)] = len(reps)
            reps.append(g)
    return reps, coset_of


def _on_cosets(perms, reps, coset_of):
    """Each permutation h as its left action g*sub -> h*g*sub on the
    cosets."""
    return [tuple(coset_of[_mul(h, g)] for g in reps) for h in perms]


# ---------------------------------------------------------------------
# Projective planes PG(2,q) over a field given by its multiplication
# table; a point is its first nonzero vector in lexicographic order.
# ---------------------------------------------------------------------


def _projective_points(mul):
    q = len(mul)
    pts = []
    seen = set()
    for v in itertools.product(range(q), repeat=3):
        if v == (0, 0, 0) or v in seen:
            continue
        pts.append(v)
        for c in range(1, q):
            seen.add(tuple(mul[c][x] for x in v))
    assert len(pts) == q * q + q + 1
    return pts


def _projective_index(pts, mul):
    """Every nonzero multiple of a point's vector, mapped to the point's
    index in pts."""
    return {tuple(mul[c][x] for x in p): i
            for i, p in enumerate(pts) for c in range(1, len(mul))}


# ---------------------------------------------------------------------
# PG(2,4), its hyperoval orbits, and the Steiner system S(3,6,22):
# the ingredients for the Mesner/M22, Sims-Gewirtz, and Cameron graphs.
# ---------------------------------------------------------------------

# F4 arithmetic: elements 0,1,2,3 with 2*2=3, 2*3=1, 3*3=2 (2 = w, 3 = w^2)
_F4_MUL = [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]]
_F4 = ([[x ^ y for y in range(4)] for x in range(4)], _F4_MUL)


def _dot(field, x, y):
    """sum_k x[k] * y[k] over a field given by its (add, mul) tables."""
    add, mul = field
    s = 0
    for a, b in zip(x, y):
        s = add[s][mul[a][b]]
    return s


def _incidence(sets, m):
    """The 0/1 matrix of which of the points 0..m-1 each set holds."""
    inc = np.zeros((len(sets), m), dtype=np.int64)
    inc[[i for i, s in enumerate(sets) for _ in s], [x for s in sets for x in s]] = 1
    return inc


def _shares(sets, m):
    """Whether each two of the sets, of points 0..m-1, share a point: the
    product of their set-point incidence matrix with its transpose."""
    inc = _incidence(sets, m)
    return inc @ inc.T > 0


def _pg24_lines(pts):
    # lines = kernels of nonzero linear forms, up to scalar
    lines = set()
    for form in pts:   # a line's form has a point's coordinates
        on = frozenset(i for i, p in enumerate(pts) if _dot(_F4, form, p) == 0)
        assert len(on) == 5
        lines.add(on)
    assert len(lines) == 21
    return sorted(lines, key=sorted)


def _hyperovals(lines):
    """The 6-sets of the 21 points that no line meets in three points."""
    sixes = list(itertools.combinations(range(21), 6))
    on_line = _incidence(sixes, 21) @ _incidence(lines, 21).T
    ovals = [frozenset(six) for six, ok in zip(sixes, (on_line < 3).all(axis=1))
             if ok]
    assert len(ovals) == 168
    return ovals


def _psl34_generators(pts):
    """Permutations of the 21 points from determinant-1 matrices."""
    idx = _projective_index(pts, _F4_MUL)
    mats = [
        [[1, 1, 0], [0, 1, 0], [0, 0, 1]],   # transvection by 1
        [[1, 2, 0], [0, 1, 0], [0, 0, 1]],   # transvection by w
        [[0, 0, 1], [1, 0, 0], [0, 1, 0]],   # coordinate 3-cycle
    ]
    return [[idx[tuple(_dot(_F4, row, p) for row in m)] for p in pts]
            for m in mats]


def _hyperoval_orbit(ovals, perms):
    """Orbit of the first hyperoval under the generated group; must have
    size 56 (the three orbits of the determinant-1 group each have 56)."""
    orbit = _orbit([ovals[0]], perms, lambda p, o: frozenset(p[x] for x in o))
    assert len(orbit) == 56 and orbit <= set(ovals), len(orbit)
    return [o for o in ovals if o in orbit]


def steiner_3_6_22():
    """Blocks of S(3,6,22) on points 0..21 (21 = the extension point)."""
    pts = _projective_points(_F4_MUL)
    lines = _pg24_lines(pts)
    ovals = _hyperovals(lines)
    perms = _psl34_generators(pts)
    orbit = _hyperoval_orbit(ovals, perms)
    blocks = [frozenset(ln) | {21} for ln in lines] + orbit
    assert len(blocks) == 77
    # defining property: every 3-subset of the 22 points in exactly one block
    cover = {}
    for b in blocks:
        for t in itertools.combinations(sorted(b), 3):
            cover[t] = cover.get(t, 0) + 1
    assert len(cover) == 1540 and set(cover.values()) == {1}
    return blocks


def _disjointness(sets) -> Graph:
    """The sets of the 22 points, joined when they are disjoint."""
    return Graph(~_shares(sets, 22))


def m22_graph(blocks=None) -> Graph:
    return _disjointness(blocks or steiner_3_6_22())


def gewirtz(blocks=None) -> Graph:
    blocks = blocks or steiner_3_6_22()
    ovals = [b for b in blocks if 21 not in b]
    assert len(ovals) == 56
    return _disjointness(ovals)


def cameron(blocks=None) -> Graph:
    """The pairs of the 22 points, joined when they are disjoint and lie
    in a common block."""
    blocks = blocks or steiner_3_6_22()
    pairs = [frozenset(p) for p in itertools.combinations(range(22), 2)]
    assert len(pairs) == 231
    in_blocks = [[bi for bi, b in enumerate(blocks) if p <= b] for p in pairs]
    return Graph(~_shares(pairs, 22) & _shares(in_blocks, len(blocks)))


# ---------------------------------------------------------------------
# Perkel: the valency-6 orbital of PSL(2,19) on the 57 cosets of an
# icosahedral (order 60) subgroup.
# ---------------------------------------------------------------------


def _psl_2_19_perms():
    """PSL(2,19) as permutations of the projective line (20 points,
    index 19 = the point at infinity), generated by x -> x+1, x -> -1/x."""
    p = 19
    inf = p

    def shift(x):
        return inf if x == inf else (x + 1) % p

    def flip(x):
        if x == inf:
            return 0
        if x == 0:
            return inf
        return (-pow(x, p - 2, p)) % p

    g1 = tuple(shift(x) for x in range(p + 1))
    g2 = tuple(flip(x) for x in range(p + 1))
    gens = (g1, g2)
    elems = sorted(_group(gens))
    assert len(elems) == 3420
    return elems, gens


def perkel_action():
    """PSL(2,19) acting on the 57 cosets of an icosahedral subgroup, which
    are the Perkel graph's vertices: its two generators and the subgroup's
    60 elements as permutations of the cosets, and the number of the
    subgroup's own coset. The generators are automorphisms of the graph
    and generate a group transitive on its vertices."""
    elems, gens = _psl_2_19_perms()
    sub = _find_23_subgroup(elems, 5, 60)
    reps, coset_of = _cosets(elems, sub)
    assert len(reps) == 57
    return (_on_cosets(gens, reps, coset_of), _on_cosets(sub, reps, coset_of),
            coset_of[tuple(range(20))])


def perkel() -> Graph:
    gen_action, sub_action, home = perkel_action()

    # suborbits of the identity-coset stabilizer = orbits of sub on cosets
    six = _by_size(_orbits(57, sub_action), [1, 6, 20, 30])[6]

    # orbital graph: edge orbit of {home, x} for x in the valency-6 suborbit
    edges = _orbital([(home, x) for x in six], gen_action)
    return Graph.from_edge_list(57, sorted(edges))


# ---------------------------------------------------------------------
# Hall-Janko: 1 + 36 + 63 points. The 63 are the nonisotropic points of
# the unitary plane over F9, the 36 are the cosets of a PSL(2,7)
# subgroup of the special unitary group; adjacency comes from three
# orbitals, each of the one orbit of its size, and the graph is
# certified strongly regular.
# ---------------------------------------------------------------------

# F9 = F3[i]/(i^2+1), element a+b*i encoded as a+3b, so 0,1,2 are the
# prime field and 2 = -1.


def _f9_tables():
    add = [[0] * 9 for _ in range(9)]
    mul = [[0] * 9 for _ in range(9)]
    for x in range(9):
        b, a = divmod(x, 3)
        for y in range(9):
            d, c = divmod(y, 3)
            add[x][y] = (a + c) % 3 + 3 * ((b + d) % 3)
            # (a+bi)(c+di) = (ac - bd) + (ad + bc) i
            mul[x][y] = (a * c - b * d) % 3 + 3 * ((a * d + b * c) % 3)
    conj = [a + 3 * ((3 - b) % 3) for x in range(9) for b, a in [divmod(x, 3)]]
    return add, mul, conj


_F9_ADD, _F9_MUL, _F9_CONJ = _f9_tables()
_F9 = (_F9_ADD, _F9_MUL)


def _f9_dot_hermitian(u, v):
    """Hermitian form conj(u)^T J v with J the antidiagonal identity."""
    return _dot(_F9, [_F9_CONJ[x] for x in u], v[::-1])


def _mat_vec(m, v):
    return tuple(_dot(_F9, row, v) for row in m)


def _is_special_unitary(m):
    # conj(M)^T J M = J: the Hermitian form of columns r and c is J[r][c]
    cols = list(zip(*m))
    return all(_f9_dot_hermitian(cols[r], cols[c]) == int(r + c == 2)
               for r in range(3) for c in range(3)) and _det(m) == 1


def _det(m):
    """m[0] dotted with the cross product m[1] x m[2]."""
    neg = _F9_MUL[2]   # -1 is 2
    cross = [_dot(_F9, (m[1][k - 2], m[1][k - 1]), (m[2][k - 1], neg[m[2][k - 2]]))
             for k in range(3)]
    return _dot(_F9, m[0], cross)


def _su33_generators():
    """Three generators of SU(3,3): two upper-unitriangular matrices and
    the scaled antidiagonal flip -J (no pair drawn from the group's 27
    unitriangular matrices and -J generates it)."""
    gens = [((1, 0, 3), (0, 1, 0), (0, 0, 1)),
            ((1, 1, 1), (0, 1, 2), (0, 0, 1)),
            ((0, 0, 2), (0, 2, 0), (2, 0, 0))]   # -J: antidiagonal of -1 = 2
    for m in gens:
        assert _is_special_unitary(m)
    return gens


def _su33_on_nonisotropic():
    """The 6048-element group as permutations of the 63 nonisotropic
    points, returned with its generators (in the same encoding)."""
    pts = _projective_points(_F9_MUL)
    noniso = [p for p in pts if _f9_dot_hermitian(p, p) != 0]
    assert len(noniso) == 63
    canon = _projective_index(noniso, _F9_MUL)

    def to_perm(m):
        return tuple(canon[_mat_vec(m, p)] for p in noniso)

    gen_perms = [to_perm(m) for m in _su33_generators()]
    elems = _group(gen_perms)
    assert len(elems) == 6048, len(elems)
    return sorted(elems), gen_perms


def hall_janko() -> Graph:
    elems, gens = _su33_on_nonisotropic()
    sub = _find_23_subgroup(elems, 7, 168)   # PSL(2,7)

    # 36 cosets g*sub
    reps, coset_of = _cosets(elems, sub)
    assert len(reps) == 36, len(reps)
    home = coset_of[tuple(range(63))]

    # PSL(2,7) fixes its home coset and splits the rest 7 + 7 + 21: the
    # A-graph on the 36 cosets is the orbital of home with the two 7-orbits
    sevens = _by_size(_orbits(36, _on_cosets(sub, reps, coset_of)), [1, 7, 7, 21])[7]
    a_edges = _orbital([(home, x) for x in sevens], _on_cosets(gens, reps, coset_of))

    # it has orbits 21 + 42 on the 63 points: the coset of g joins g's
    # images of the 21-orbit
    ab_set = _by_size(_orbits(63, sub), [21, 42])[21]

    # the stabilizer of point 0 has orbits 1 + 6 + 24 + 32: the B-graph on
    # the 63 points is the orbital of point 0 with the 24-orbit
    stab0 = [g for g in elems if g[0] == 0]
    assert len(stab0) == 96
    twenty_four = _by_size(_orbits(63, stab0), [1, 6, 24, 32])[24]
    bb_edges = _orbital([(0, x) for x in twenty_four], gens)

    # the hub 0 joins all of A = 1..36; B = 37..99
    A, B = slice(1, 37), slice(37, 100)
    a = np.zeros((100, 100), dtype=bool)
    a[0, A] = True
    u, v = np.array(sorted(a_edges)).T
    a[1 + u, 1 + v] = True
    for ci, g in enumerate(reps):
        a[1 + ci, [37 + g[p] for p in ab_set]] = True
    u, v = np.array(sorted(bb_edges)).T
    a[37 + u, 37 + v] = True
    a |= a.T
    # A is 14-regular, each coset reaches 21 points, each point 12 cosets,
    # and B is 24-regular
    for rows, cols, d in ((A, A, 14), (A, B, 21), (B, A, 12), (B, B, 24)):
        assert (a[rows, cols].sum(axis=1) == d).all(), d
    g100 = Graph(a)
    p = srg_check(g100)
    assert p is not None and p.as_tuple() == (100, 36, 14, 12), "not Hall-Janko"
    return g100


# ---------------------------------------------------------------------
# certification and output
# ---------------------------------------------------------------------


def _expected_theta(p: SrgParams):
    t, tc = theta_srg(p)
    out = {}
    if isinstance(t, Fraction) and t.denominator == 1:
        out["theta"] = int(t)
    if isinstance(tc, Fraction) and tc.denominator == 1:
        out["theta_complement"] = int(tc)
    return out


def _certify_srg(name, g, want_params):
    p = srg_check(g)
    assert p is not None, f"{name}: not strongly regular"
    assert p.as_tuple() == want_params, f"{name}: got {p.as_tuple()}"
    s = eigenvalues(g)
    p1, p2 = p.eigenvalues()
    got = sorted(v for v, _ in s.groups)
    want = sorted([float(p.d), p1, p2])
    assert all(abs(a - b) < 1e-8 for a, b in zip(got, want)), (name, got)
    return p


FIXTURES = {}


def fixture(name, srg=None, flags=None, expected=None, source="", solve=()):
    def wrap(fn):
        FIXTURES[name] = {
            "builder": fn, "srg": srg, "flags": flags or {},
            "expected": expected or {}, "source": source, "solve": solve,
        }
        return fn
    return wrap


fixture("hoffman_singleton", srg=(50, 7, 0, 1),
        flags={"vertex_transitive": True, "edge_transitive": True},
        expected={"omega": 2, "chi": 4},
        source="five pentagons joined to five pentagrams over Z5",
        solve=("alpha", "omega"))(hoffman_singleton)
fixture("schlafli", srg=(27, 16, 10, 8),
        flags={"vertex_transitive": True, "edge_transitive": True},
        expected={"chi": 9},
        source="non-intersection graph of the 27 lines on a cubic surface",
        solve=("alpha", "omega", "chi"))(schlafli)
fixture("gosset", srg=None,
        flags={"vertex_transitive": True, "edge_transitive": True},
        expected={"chi": 14},
        source="signed 2-subsets of an 8-set (the 56 rays of the E7 polytope)",
        solve=("alpha", "omega"))(gosset)
fixture("chang1", srg=(28, 12, 6, 4),
        source="Seidel switching of the triangular graph T(8) about a perfect matching",
        solve=("alpha", "omega", "chi"))(lambda: chang(1))
fixture("chang2", srg=(28, 12, 6, 4),
        source="Seidel switching of T(8) about an 8-cycle",
        solve=("alpha", "omega", "chi"))(lambda: chang(2))
fixture("chang3", srg=(28, 12, 6, 4),
        source="Seidel switching of T(8) about a triangle plus a pentagon",
        solve=("alpha", "omega", "chi"))(lambda: chang(3))
fixture("m22", srg=(77, 16, 0, 4),
        flags={"vertex_transitive": True, "edge_transitive": True},
        expected={"omega": 2},
        source="disjointness graph of the 77 blocks of the Steiner system S(3,6,22)",
        solve=("alpha",))(m22_graph)
fixture("gewirtz", srg=(56, 10, 0, 2),
        flags={"vertex_transitive": True, "edge_transitive": True},
        expected={"omega": 2},
        source="disjointness graph of one 56-orbit of hyperovals in PG(2,4)",
        solve=("alpha",))(gewirtz)
fixture("cameron", srg=(231, 30, 9, 3),
        flags={"vertex_transitive": True, "edge_transitive": True},
        source="pairs of S(3,6,22) points, joined when disjoint inside a common block",
        solve=())(cameron)
fixture("perkel", srg=None,
        flags={"vertex_transitive": True, "edge_transitive": True},
        expected={"omega": 2, "chi": 3},
        source="valency-6 orbital of PSL(2,19) on the 57 cosets of an icosahedral subgroup",
        solve=("alpha", "omega", "chi"))(perkel)
fixture("hall_janko", srg=(100, 36, 14, 12),
        flags={"vertex_transitive": True, "edge_transitive": True},
        source="1 + 36 + 63 orbital assembly over the special unitary group of degree 3 over F9",
        solve=("alpha", "omega"))(hall_janko)


SOLVERS = {"alpha": independence_number, "omega": clique_number,
           "chi": chromatic_number}


def build(names=None):
    FIXTURE_DIR.mkdir(parents=True, exist_ok=True)
    manifest_path = FIXTURE_DIR / "manifest.json"
    manifest = {"fixtures": []}
    if manifest_path.exists():
        manifest = json.loads(manifest_path.read_text())
    todo = names or list(FIXTURES)
    shared_blocks = None
    for name in todo:
        spec = FIXTURES[name]
        t0 = time.time()
        print(f"[{name}] building...", flush=True)
        if name in ("m22", "gewirtz", "cameron"):
            if shared_blocks is None:
                shared_blocks = steiner_3_6_22()
            g = spec["builder"](shared_blocks)
        else:
            g = spec["builder"]()
        entry = {
            "name": name,
            "file": f"{name}.g6",
            "order": g.n,
            "srg": list(spec["srg"]) if spec["srg"] else None,
            "flags": spec["flags"],
            "expected": dict(spec["expected"]),
            "source": spec["source"],
            "description": spec["source"],
        }
        if spec["srg"]:
            p = _certify_srg(name, g, tuple(spec["srg"]))
            entry["expected"].update(_expected_theta(p))
        else:
            assert srg_check(g) is None, f"{name}: unexpectedly strongly regular"
        for task in spec["solve"]:
            r = SOLVERS[task](g, budget=300.0)
            assert r.status == "exact", f"{name}: {task} timed out"
            entry["expected"][task] = r.value
            print(f"  {task} = {r.value} ({r.elapsed:.1f}s)")
        for k, v in spec["expected"].items():
            if k in entry["expected"] and entry["expected"][k] != v:
                raise AssertionError(f"{name}: {k} mismatch")
        (FIXTURE_DIR / entry["file"]).write_text(to_graph6(g) + "\n")
        manifest["fixtures"] = [e for e in manifest["fixtures"]
                                if e["name"] != name]
        manifest["fixtures"].append(entry)
        manifest["fixtures"].sort(key=lambda e: e["name"])
        manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
        print(f"[{name}] done in {time.time() - t0:.1f}s: n={g.n}, "
              f"m={g.edge_count()}")


if __name__ == "__main__":
    build(sys.argv[1:] or None)
