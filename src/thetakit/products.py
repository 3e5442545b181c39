"""Strong graph products and their spectra without materialization.

`power_extremes` is all that the commands read of a power's spectrum. The
group-wise `product_spectrum` and `power_spectrum`, with their byte
estimate `COMBO_BYTES`, stay as oracles: they list every eigenvalue, with no
closed form in common with `power_extremes`. `power_spectrum` checks the
`--paper-examples` row on C5's strong powers, and the tests check both
against dense eigensolves and `power_extremes` against them.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import combinations_with_replacement, product as iproduct

from .graphs import Graph, GraphMeta, check_budget
from .spectra import Spectrum, lambda_nontrivial, spectrum_from_groups

# Peak bytes per group combination of the library oracles `product_spectrum`
# and `power_spectrum`: tracemalloc read 160-260 B from 9e3 to 2.6e6
# combinations. The CLI reads powers through `power_extremes` instead.
COMBO_BYTES = 300


def strong_product(*factors: Graph) -> Graph:
    """Strong product (A_1+I) kron ... kron (A_k+I) - I of one or more graphs.

    Vertices are factor-vertex tuples in row-major order (for two factors,
    (i, j) sits at i*h.n + j). The product records its factors (those of
    a factor that is itself a product, in its place) and allocates nothing:
    `Graph.adj` and `Graph.degrees` build, and budget, what is read.
    """
    if not factors:
        raise ValueError("need at least one factor")
    names = [f.meta.name for f in factors]
    # a product of automorphisms is an automorphism of the product
    vt = True if all(f.meta.vertex_transitive for f in factors) else None
    flat = tuple(x for f in factors for x in (f.factors or (f,)))
    return Graph._derived(None, GraphMeta(name="*".join(names) if all(names) else "",
                                          vertex_transitive=vt), flat)


def strong_power(g: Graph, k: int) -> Graph:
    """k-fold strong product of g with itself (k >= 1), named "<name>^k"."""
    if k < 1:
        raise ValueError("need k >= 1")
    name = g.meta.name
    return strong_product(*[g] * k).with_meta(name=f"{name}^{k}" if name else "")


def product_spectrum(spectra, rtol: float = 1e-6) -> Spectrum:
    """Spectrum of a strong product from factor spectra, group-wise.

    Every eigenvalue of the product is prod(1+v_l) - 1 for one choice of
    eigenvalue per factor; working on (value, multiplicity) groups keeps the
    enumeration at prod(group counts) instead of prod(n_l).
    """
    spectra = list(spectra)
    if not spectra:
        raise ValueError("need at least one factor")
    group_lists = [s.groups for s in spectra]
    combos = math.prod(len(gl) for gl in group_lists)
    check_budget(combos * COMBO_BYTES, f"{combos} group combinations")
    out = []
    for choice in iproduct(*group_lists):
        v = 1.0
        m = 1
        for value, mult in choice:
            v *= 1.0 + value
            m *= mult
        out.append((v - 1.0, m))
    return spectrum_from_groups(out, rtol)


def power_spectrum(s: Spectrum, k: int, rtol: float = 1e-6) -> Spectrum:
    """Spectrum of the k-th strong power via multisets of factor groups.

    The g^k ordered group choices collapse to multisets with multinomial
    weights, so high powers stay cheap even when n^k is astronomic.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    groups = s.groups
    count = math.comb(len(groups) + k - 1, k)
    check_budget(count * COMBO_BYTES, f"{count} group multisets")
    out = []
    for combo in combinations_with_replacement(range(len(groups)), k):
        v, m = 1.0, math.factorial(k)
        for idx in combo:
            v *= 1.0 + groups[idx][0]
            m *= groups[idx][1]
        for c in Counter(combo).values():
            m //= math.factorial(c)
        out.append((v - 1.0, m))
    return spectrum_from_groups(out, rtol)


def power_extremes(s: Spectrum, k: int) -> tuple:
    """(lambda2, lambda_min, lambda_nontrivial) of the k-th strong power of a
    graph with spectrum s, in closed form from the factor's groups.

    Every eigenvalue of the power is prod(1+v_i) - 1. With top = 1+lambda_max,
    a = 1 + the largest value below it and b = 1+lambda_min, every other
    factor 1+v has |1+v| < top (Perron-Frobenius) and a >= 0, so for k >= 2
    the largest product that is not top^k is max(top^(k-1) a, top^(k-2) b^2)
    and the smallest is top^(k-1) b if b < 0, else b^k. lambda2 is top^k - 1
    when the top group repeats (a disconnected graph). lambda_nontrivial is
    the larger |.| of those two non-top values, as -(top^k - 1) cannot occur
    for k >= 2; k = 1 takes the factor's `lambda_nontrivial` with
    d = lambda_max. It is None when every eigenvalue is +-d (an edgeless
    graph; a perfect matching at k = 1). `power_spectrum` is the multiset
    oracle.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    if k == 1:
        try:
            lam = lambda_nontrivial(s, s.largest())
        except ValueError:
            lam = None
        return s.second_largest(), s.smallest(), lam
    groups = s.groups
    top, b = 1.0 + groups[0][0], 1.0 + groups[-1][0]
    lo = top ** (k - 1) * b if b < 0 else b ** k
    if len(groups) < 2:
        if groups[0][1] < 2:
            raise ValueError("need at least 2 eigenvalues")
        return top ** k - 1.0, lo - 1.0, None
    hi = max(top ** (k - 1) * (1.0 + groups[1][0]), top ** (k - 2) * b * b)
    l2 = top ** k if groups[0][1] > 1 else hi
    return l2 - 1.0, lo - 1.0, max(abs(hi - 1.0), abs(lo - 1.0))
