"""Strong regularity: certification and parameter arithmetic."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .graphs import Graph, _one_blas_thread, check_budget


@dataclass(frozen=True)
class SrgParams:
    """Parameter tuple (n, d, lam, mu) of a strongly regular graph."""

    n: int
    d: int
    lam: int
    mu: int

    def as_tuple(self):
        return (self.n, self.d, self.lam, self.mu)

    def complement(self) -> "SrgParams":
        n, d, lam, mu = self.as_tuple()
        return SrgParams(n, n - d - 1, n - 2 * d + mu - 2, n - 2 * d + lam)

    @property
    def disc(self) -> int:
        """Discriminant (lam-mu)^2 + 4(d-mu) of the non-principal eigenvalues."""
        return (self.lam - self.mu) ** 2 + 4 * (self.d - self.mu)

    def eigenvalues(self) -> tuple[float, float]:
        """The two non-principal eigenvalues (p1 >= 0 > p2)."""
        t = math.sqrt(self.disc)
        return ((self.lam - self.mu + t) / 2, (self.lam - self.mu - t) / 2)

    def multiplicities(self):
        """Multiplicities (m1, m2) of the non-principal eigenvalues, exact when defined.

        Returns Fractions; integrality is part of feasibility, not assumed here.
        """
        n, d, lam, mu = self.as_tuple()
        num = 2 * d + (n - 1) * (lam - mu)
        if num == 0:
            half = Fraction(n - 1, 2)
            return (half, half)
        s = math.isqrt(self.disc)
        if s * s != self.disc:
            return None  # irrational split with nonzero numerator: infeasible
        return (Fraction((n - 1) * s - num, 2 * s),
                Fraction((n - 1) * s + num, 2 * s))


def srg_check(g: Graph) -> Optional[SrgParams]:
    """Certify strong regularity by the exact identity A^2 = dI + lam*A + mu*(J-I-A).

    Exact arithmetic throughout: the counts are integers below 2^24, which
    float32 holds exactly. Complete and empty graphs are excluded
    (lam or mu would be vacuous); returns None for them and for any graph
    failing regularity or the identity. Computed once per graph, then
    reused; on a regular graph, refused (ValueError) when its
    `srg_check_bytes` exceed the dense budget.
    """
    return g._cached(("srg_check",), lambda: _srg_identity(g))


def srg_check_bytes(n: int) -> int:
    """Peak bytes of `srg_check` on n vertices: the float32 adjacency
    (reused for the A^2 the identity predicts), A^2 itself and the bool
    comparison of the two. Peak-RSS growth in a fresh process read 10.4
    and 9.8 bytes a cell at n = 2000 and 3000, below `eigensolve_bytes`,
    so every graph whose eigensolve is admitted gets its check."""
    return 12 * n * n


def _srg_identity(g: Graph) -> Optional[SrgParams]:
    n = g.n
    if n < 2 or not g.is_regular():
        return None
    d = g.degree()
    if d == 0 or d == n - 1:
        return None  # empty / complete: not treated as strongly regular
    check_budget(srg_check_bytes(n), f"an SRG check on {n} vertices")
    # float32 goes through BLAS; every count is at most d < n < 2^24
    a = g.adj.astype(np.float32)
    with _one_blas_thread(n):
        a2 = a @ a
    # lam at the first neighbour of vertex 0, mu at its first non-neighbour
    # after itself (0 < d < n - 1: both exist)
    row = g.adj[0]
    lam = int(a2[0, row.argmax()])
    mu = int(a2[0, row[1:].argmin() + 1])
    # a becomes the A^2 that the identity predicts: d, lam on edges, mu off them
    a *= lam - mu
    a += mu
    a.flat[::n + 1] = d
    if (a2 != a).any():
        return None
    return SrgParams(n, d, lam, mu)


@dataclass(frozen=True)
class SrgFeasibility:
    params: SrgParams
    relation_ok: bool       # (n-d-1)mu = d(d-lam-1)
    ranges_ok: bool
    conference: bool        # 2d + (n-1)(lam-mu) = 0
    p1: Optional[float]
    p2: Optional[float]
    m1: Optional[Fraction]
    m2: Optional[Fraction]
    integral_ok: bool
    feasible: bool
    reason: str = ""


def srg_params_feasible(p: SrgParams) -> SrgFeasibility:
    """Arithmetic feasibility of an SRG parameter tuple.

    Checks the counting relation, parameter ranges, and integrality of the
    eigenvalue multiplicities. Passing these is necessary, not sufficient,
    for a graph to exist.
    """
    n, d, lam, mu = p.as_tuple()
    bad = lambda why: SrgFeasibility(p, False, False, False, None, None,
                                     None, None, False, False, why)
    if not (0 < d < n - 1):
        return bad("need 0 < d < n-1")
    if not (0 <= lam <= d - 1 and 0 <= mu <= d):
        return bad("lam/mu out of range")
    relation_ok = (n - d - 1) * mu == d * (d - lam - 1)
    conference = 2 * d + (n - 1) * (lam - mu) == 0
    mults = p.multiplicities()
    p1, p2 = p.eigenvalues()
    if mults is None:
        return SrgFeasibility(p, relation_ok, True, conference, p1, p2,
                              None, None, False, False,
                              "irrational eigenvalues with unequal multiplicities")
    m1, m2 = mults
    integral_ok = (m1.denominator == 1 and m2.denominator == 1
                   and m1 >= 0 and m2 >= 0 and m1 + m2 == n - 1)
    feasible = relation_ok and integral_ok
    reason = "" if feasible else "counting relation fails" if not relation_ok \
        else "non-integral multiplicities"
    return SrgFeasibility(p, relation_ok, True, conference, p1, p2,
                          m1, m2, integral_ok, feasible, reason)
