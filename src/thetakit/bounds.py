"""Closed-form spectral bounds: clique/chromatic/eigenvalue inequalities
for regular graphs and strong products, with uniform reporting."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graphs import Graph
from .spectra import complement_spectrum, eigenvalues, group_values
from .srg import SrgParams
from .theta import theta_upper_regular

EQUALITY_TOL = 1e-6


@dataclass(frozen=True)
class BoundReport:
    """One evaluated inequality lhs <relation> rhs.

    slack is rhs-lhs for "<=" and lhs-rhs for ">=". The bound holds when
    slack >= -tol * max(1, |lhs|, |rhs|): a bound tight at 1e11 misses by
    rounding far more than an absolute tol. It is tight when |slack| <= tol.
    """

    name: str
    lhs: float
    rhs: float
    relation: str  # "<=" or ">="
    slack: float
    applicable: bool
    reason: Optional[str] = None

    def holds(self, tol: float = EQUALITY_TOL) -> bool:
        return not self.applicable or \
            self.slack >= -tol * max(1.0, abs(self.lhs), abs(self.rhs))

    def is_equality(self, tol: float = EQUALITY_TOL) -> bool:
        return self.applicable and abs(self.slack) <= tol

    def as_dict(self) -> dict:
        out = {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "relation": self.relation,
            "slack": self.slack,
            "applicable": self.applicable,
        }
        if self.reason is not None:
            out["reason"] = self.reason
        return out


def make_report(name: str, lhs: float, rhs: float, relation: str,
                applicable: bool = True, reason: Optional[str] = None) -> BoundReport:
    if relation not in ("<=", ">="):
        raise ValueError("relation must be '<=' or '>='")
    slack = (rhs - lhs) if relation == "<=" else (lhs - rhs)
    return BoundReport(name, float(lhs), float(rhs), relation, float(slack),
                       applicable, reason)


def _ceil(x: float) -> int:
    # guard against float noise pushing an exact integer up a step
    return math.ceil(x - 1e-9)


# -- eigenvalue inequality and the derived sequence -------------------


def eig_inequality_cor0(n: int, d: int, l2: float, lmin: float):
    """Both directions of the spectral inequality tying lmin and l2 for a
    regular non-complete non-empty graph; equality holds exactly for
    strongly regular graphs.

    Returns (report for lmin <= f(l2), report for l2 >= f(lmin)).
    """
    if not 0 < d < n - 1:
        raise ValueError("need a non-complete, non-empty regular graph")
    rhs1 = -d * (n - d + l2) / (d + (n - 1) * l2)
    up = make_report("eigmin-upper-from-l2", lmin, rhs1, "<=")
    rhs2 = -d * (n - d + lmin) / (d + (n - 1) * lmin)
    low = make_report("l2-lower-from-eigmin", l2, rhs2, ">=")
    return up, low


@dataclass(frozen=True)
class GSequence:
    """Per-index values eig_l(complement) - d(n-d+eig_l)/(d+(n-1)eig_l),
    grouped (by spectra.group_values) within relative 1e-5."""

    values: tuple

    @property
    def head(self) -> float:
        return self.values[0]  # always n - d - 2

    def tail_groups(self) -> tuple:
        """Distinct values over indices l >= 2 with multiplicities, descending."""
        return group_values(sorted(self.values[1:], reverse=True), 1e-5)

    def groups(self) -> tuple:
        """Distinct values over the whole sequence with multiplicities."""
        return group_values(sorted(self.values, reverse=True), 1e-5)

    def distinct_count(self) -> int:
        return len(self.groups())


def g_sequence(g: Graph) -> GSequence:
    """The sequence g_l = eig_l(complement) - d(n-d+eig_l)/(d+(n-1)eig_l),
    with both spectra sorted descending and paired by index.

    g_1 is always n-d-2, and g_n <= -1 <= g_2 with equality exactly for
    strongly regular graphs. For a strongly regular graph the whole
    sequence takes 2 or 3 distinct values; a third value appears when the
    two non-principal eigenvalue multiplicities differ, and then exactly
    |m1 - m2| times.
    """
    n = g.n
    d = g.degree()
    if not 0 < d < n - 1:
        raise ValueError("need a non-complete, non-empty regular graph")
    spec = eigenvalues(g)
    comp = complement_spectrum(spec, n, d)
    ev = spec.expanded()
    cev = comp.expanded()
    vals = []
    for l in range(n):
        lam = float(ev[l])
        denom = d + (n - 1) * lam
        vals.append(float(cev[l]) - d * (n - d + lam) / denom)
    return GSequence(tuple(vals))


def self_complementary_eig_bounds(n: int):
    """(lower bound on l2, upper bound on lmin) for a regular
    self-complementary graph; tight when it is also strongly regular."""
    return ((math.sqrt(n) - 1) / 2.0, -(math.sqrt(n) + 1) / 2.0)


# -- clique bounds ----------------------------------------------------


def haemers_clique_upper_maxdeg(n: int, avg_d: float, l1: float, l2: float,
                                dmax: int) -> float:
    """Clique upper bound n(d+l1*l2)/(dn - dmax^2 + l1*l2) for an arbitrary
    graph, with d the average degree 2|E|/n; on a regular graph it reduces
    to n(1+l2)/(n-d+l2), the upper end of theta.theta_bounds_complement."""
    denom = avg_d * n - dmax ** 2 + l1 * l2
    if denom <= 0:
        raise ValueError("degenerate parameters")
    return n * (avg_d + l1 * l2) / denom


def wei_bounds(degrees):
    """Wei's degree-sequence bounds: (lower bound on alpha, lower bound on omega)."""
    ds = np.asarray(degrees, dtype=np.float64)
    n = len(ds)
    alpha_lb = float((1.0 / (1.0 + ds)).sum())
    omega_lb = float((1.0 / (n - ds)).sum())
    return alpha_lb, omega_lb


# -- strong product eigenvalue bounds ---------------------------------


# Both bounds read the factors only through products over them: prod n_i,
# prod (1 + d_i), and prod theta_i or prod n_i/theta_i. Since
# 1 <= 1 + d_i <= n_i, every factor is complete exactly when
# prod (1 + d_i) = prod n_i, and empty exactly when prod (1 + d_i) = 1.


def _eig2_lower(order: int, closed: int, theta: float) -> float:
    """The l2 bound from prod n_i, prod (1 + d_i) and prod theta_i."""
    if closed == order:
        raise ValueError("all factors complete")
    denom = theta - 1.0
    if denom <= 0:
        raise ValueError("need prod(theta) > 1")
    return (order - closed) / denom - 1.0


def _eigmin_upper(closed: int, ratio: float) -> float:
    """The lmin bound from prod (1 + d_i) and prod n_i/theta_i."""
    if closed == 1:
        raise ValueError("all factors empty")
    denom = ratio - 1.0
    if denom <= 0:
        raise ValueError("need prod(n/theta) > 1")
    return -(closed - 1.0) / denom


def non_ramanujan_k0(n: int, d: int, theta: float) -> int:
    """Smallest certified k0: every strong power with k >= k0 of a connected
    regular graph with theta < n/sqrt(d+1) is non-Ramanujan.
    """
    if not 0 < d < n - 1:
        raise ValueError("need a non-complete, non-empty regular graph")
    theta = float(theta)
    if theta >= n / math.sqrt(d + 1.0):
        raise ValueError("condition theta < n/sqrt(d+1) fails")
    num = math.log(2.0 + (d + 1.0) ** -1.5) \
        + math.log(n ** 3 / (n ** 3 - (d + 1.0) ** 3))
    den = math.log(n / (theta * math.sqrt(d + 1.0)))
    return max(3, _ceil(num / den))


def k0_self_complementary_vt(n: int) -> int:
    """k0 for a self-complementary vertex-transitive graph of order n
    (there theta = sqrt(n) and d = (n-1)/2)."""
    if n < 5 or n % 4 != 1:
        raise ValueError("need n = 1 (mod 4), n >= 5")
    return non_ramanujan_k0(n, (n - 1) // 2, math.sqrt(n))


# -- chromatic lower bounds for strong products -----------------------


def chromatic_lb_strong_product(factors):
    """(lower bound on chi(product), lower bound on chi(complement of product))
    from per-factor (n, theta): ceil(prod n/theta) and ceil(prod theta)."""
    ratio = 1.0
    prod_theta = 1.0
    for n, t in factors:
        t = float(t)
        ratio *= n / t
        prod_theta *= t
    return _ceil(ratio), _ceil(prod_theta)


# -- affine polar graph parameters ------------------------------------


@dataclass(frozen=True)
class AffinePolarInfo:
    params: SrgParams
    sign: str
    l2: int
    lmin: int
    theta: float
    theta_complement: float


def affine_polar_params(e: int, q: int, sign: str) -> AffinePolarInfo:
    """SRG parameters and closed-form theta for the affine polar graphs
    VO+(2e, q) and VO-(2e, q); q a prime power, e >= 2."""
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    if e < 2:
        raise ValueError("need e >= 2")
    if q < 2:
        raise ValueError("need a prime power q >= 2")
    n = q ** (2 * e)
    if sign == "+":
        d = (q ** (e - 1) + 1) * (q ** e - 1)
        lam = q * (q ** (e - 2) + 1) * (q ** (e - 1) - 1) + q - 2
        mu = q ** (e - 1) * (q ** (e - 1) + 1)
        l2 = q ** e - q ** (e - 1) - 1
        lmin = -(q ** (e - 1)) - 1
        theta = float(q ** e)
        theta_c = float(q ** e)
    else:
        d = (q ** (e - 1) - 1) * (q ** e + 1)
        lam = q * (q ** (e - 2) - 1) * (q ** (e - 1) + 1) + q - 2
        mu = q ** (e - 1) * (q ** (e - 1) - 1)
        l2 = q ** (e - 1) - 1
        lmin = -(q ** e) + q ** (e - 1) - 1
        theta = float(q * (q ** e - q ** (e - 1) + 1))
        theta_c = q ** (2 * e - 1) / (q ** e - q ** (e - 1) + 1)
    return AffinePolarInfo(SrgParams(n, d, lam, mu), sign, l2, lmin, theta, theta_c)


# -- report bundles ---------------------------------------------------


@dataclass(frozen=True)
class FactorProducts:
    """What the strong-product eigenvalue bounds read of the factors
    (n_i, d_i, theta_i, lmin_i): prod n_i, prod (1 + d_i), prod theta_i and
    prod n_i/theta_i, the last two also with the spectral value
    theta_upper_regular(n_i, d_i, lmin_i) in place of theta_i, and whether
    every factor is tight (that value within EQUALITY_TOL of theta_i). The
    defaults are the products over no factor."""

    order: int = 1
    closed: int = 1
    theta: float = 1
    ratio: float = 1
    theta_lmin: float = 1
    ratio_lmin: float = 1
    tight: bool = True

    @classmethod
    def of(cls, factors) -> "FactorProducts":
        """The products over a list of factors: each factor's own, multiplied
        in by `*` in order, as `power` carries them from row to row."""
        out = cls()
        for n, d, theta, lmin in factors:
            theta, spectral = float(theta), theta_upper_regular(n, d, lmin)
            out = out * cls(n, 1 + d, theta, n / theta, spectral, n / spectral,
                            bool(spectral - theta <= EQUALITY_TOL))
        return out

    def __mul__(self, other: "FactorProducts") -> "FactorProducts":
        """The products over self's factors followed by other's. With other
        over one factor this is math.prod's next step, so a strong power's
        products carried row to row are bit for bit those of its list."""
        return FactorProducts(self.order * other.order, self.closed * other.closed,
                              self.theta * other.theta, self.ratio * other.ratio,
                              self.theta_lmin * other.theta_lmin,
                              self.ratio_lmin * other.ratio_lmin,
                              self.tight and other.tight)

    def reports(self, product_l2: float, product_lmin: float) -> list[BoundReport]:
        """The strong-product eigenvalue bounds against the product's l2 and
        lmin. The "-lmin" pair reads the spectral value in place of theta:
        the l2 bound stays valid, only weaker, and the lmin bound applies only
        when every factor is tight, as edge-transitive and strongly regular
        factors are (Lovász 1979, Thm 9)."""
        reason = None if self.tight else "factors not all edge-transitive or SRG"
        return [
            make_report("eig2-product-lower",
                        _eig2_lower(self.order, self.closed, self.theta),
                        product_l2, "<="),
            make_report("eigmin-product-upper", product_lmin,
                        _eigmin_upper(self.closed, self.ratio), "<="),
            make_report("eig2-product-lower-lmin",
                        _eig2_lower(self.order, self.closed, self.theta_lmin),
                        product_l2, "<="),
            make_report("eigmin-product-upper-lmin", product_lmin,
                        _eigmin_upper(self.closed, self.ratio_lmin), "<=",
                        applicable=self.tight, reason=reason),
        ]
