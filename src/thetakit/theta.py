"""Lovasz theta: spectral bounds, closed forms, and an exact small-graph solver."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .graphs import Graph
from .spectra import eigenvalues
from .srg import SrgParams, srg_check

THETA_EXACT_DEFAULT_CAP = 64


@dataclass(frozen=True)
class ThetaBounds:
    lower: float
    upper: float
    exact: Optional[float] = None
    provenance: dict = field(default_factory=dict)

    def contains(self, value: float, tol: float = 1e-9) -> bool:
        return self.lower - tol <= value <= self.upper + tol


def theta_upper_regular(n: int, d: int, lmin: float) -> float:
    """Spectral upper bound -n*lmin/(d-lmin); exact for edge-transitive
    or strongly regular graphs."""
    if d <= 0 or lmin >= 0:
        raise ValueError("need d >= 1 and lmin < 0")
    return -n * lmin / (d - lmin)


def theta_lower_regular(n: int, d: int, l2: float) -> float:
    """Spectral lower bound (n-d+l2)/(1+l2); exact when the complement is
    vertex- and edge-transitive, or the graph is strongly regular."""
    if l2 <= -1:
        raise ValueError("need l2 > -1")
    return (n - d + l2) / (1.0 + l2)


def theta_bounds_regular(n: int, d: int, l2: float, lmin: float) -> ThetaBounds:
    return ThetaBounds(
        lower=theta_lower_regular(n, d, l2),
        upper=theta_upper_regular(n, d, lmin),
        provenance={"lower": "(n-d+l2)/(1+l2)", "upper": "-n*lmin/(d-lmin)"},
    )


def theta_bounds_complement(n: int, d: int, l2: float, lmin: float) -> ThetaBounds:
    """Sandwich for the complement of a d-regular graph from the graph's spectrum."""
    if lmin >= 0:
        raise ValueError("need lmin < 0")
    return ThetaBounds(
        lower=1.0 - d / lmin,
        upper=n * (1.0 + l2) / (n - d + l2),
        provenance={"lower": "1-d/lmin", "upper": "n(1+l2)/(n-d+l2)"},
    )


def theta_srg(p: SrgParams):
    """theta of a strongly regular graph and of its complement, in closed form.

    Returns exact Fractions whenever the eigenvalue discriminant is a perfect
    square (always the case when 2d+(n-1)(lam-mu) != 0); floats otherwise
    (conference parameters, e.g. C5 -> sqrt 5). The two values multiply to n.
    """
    n, d, lam, mu = p.as_tuple()
    disc = p.disc
    if disc < 0:
        raise ValueError("negative discriminant")
    s = math.isqrt(disc)
    if s * s == disc:
        t = Fraction(s)
        theta = Fraction(n) * (t + mu - lam) / (2 * d + t + mu - lam)
        return theta, Fraction(n) / theta
    t = math.sqrt(disc)
    theta = n * (t + mu - lam) / (2 * d + t + mu - lam)
    return theta, n / theta


def theta_kneser(m: int, r: int) -> int:
    """theta of the Kneser graph on r-subsets of an m-set (m >= 2r): C(m-1, r-1)."""
    if m < 2 * r:
        raise ValueError("need m >= 2r")
    if r < 1:
        raise ValueError("need r >= 1")
    return math.comb(m - 1, r - 1)


# -- exact solver -----------------------------------------------------
#
# theta(G) = min lambda_max(B) over symmetric B with B_ij = 1 on the
# diagonal and on non-edges, free on edges. Any feasible B upper-bounds
# theta; a PSD matrix X with trace 1 and zeros on edges lower-bounds it
# by sum(X). The solver minimises a log-sum-exp smoothing of lambda_max
# with decreasing temperature and recovers the dual witness X from the
# smoothed gradient, stopping when the two bounds pinch to tol.


@dataclass(frozen=True)
class ThetaResult:
    value: float            # best certified upper bound lambda_max(B)
    lower: float            # best dual witness value
    matrix: np.ndarray      # the feasible B achieving `value`
    converged: bool
    iterations: int
    gap: float

    def __float__(self):
        return self.value


def _smoothed(x, mu, base, edges_u, edges_v, n):
    b = base.copy()
    b[edges_u, edges_v] = x
    b[edges_v, edges_u] = x
    w, u = np.linalg.eigh(b)
    shifted = (w - w[-1]) / mu
    e = np.exp(shifted)
    z = e.sum()
    f = w[-1] + mu * math.log(z)
    weights = e / z
    wmat = (u * weights) @ u.T
    grad = 2.0 * wmat[edges_u, edges_v]
    return f, grad, b, wmat


def _certificate(b, wmat, edges_u, edges_v):
    """Primal value from B and a repaired dual witness value from W."""
    ub = float(np.linalg.eigvalsh(b)[-1])
    x = wmat.copy()
    x[edges_u, edges_v] = 0.0
    x[edges_v, edges_u] = 0.0
    x = (x + x.T) / 2.0
    lmin = float(np.linalg.eigvalsh(x)[0])
    n = b.shape[0]
    eta = max(0.0, -lmin)
    lb = (float(x.sum()) + eta * n) / (1.0 + eta * n)
    return ub, lb


_COOL_OPTIONS = {"maxiter": 400, "ftol": 1e-14, "gtol": 1e-12}
_POLISH_OPTIONS = {"maxiter": 2000, "ftol": 1e-16, "gtol": 1e-14}


def theta_exact_result(g: Graph, tol: float = 1e-6,
                       cap: int = THETA_EXACT_DEFAULT_CAP) -> ThetaResult:
    from scipy.optimize import minimize

    n = g.n
    if n == 0:
        raise ValueError("empty vertex set")
    if n > cap:
        raise ValueError(f"n={n} exceeds exact-solver cap {cap}")
    edges_u, edges_v = np.nonzero(np.triu(g.adj, 1))
    m = len(edges_u)
    base = np.ones((n, n))
    base[edges_u, edges_v] = 0.0
    base[edges_v, edges_u] = 0.0
    if m == 0:
        b = np.ones((n, n))
        return ThetaResult(float(n), float(n), b, True, 0, 0.0)

    # cool the temperature by 5x per round down to the floor, then polish
    # at the floor with tighter L-BFGS-B settings
    mu_floor = min(1e-8, tol / (4.0 * math.log(max(n, 2))))
    mus = [1.0]
    while mus[-1] > mu_floor:
        mus.append(max(mus[-1] * 0.2, mu_floor))
    schedule = [(mu, _COOL_OPTIONS) for mu in mus] \
        + [(mus[-1], _POLISH_OPTIONS)] * 6
    x = -np.ones(m)
    best_ub = math.inf
    best_lb = 1.0
    best_b = None
    total_iters = 0
    for mu, options in schedule:
        res = minimize(
            lambda xx: _smoothed(xx, mu, base, edges_u, edges_v, n)[:2],
            x, jac=True, method="L-BFGS-B", options=options,
        )
        x = res.x
        total_iters += res.nit
        _, _, b, wmat = _smoothed(x, mu, base, edges_u, edges_v, n)
        ub, lb = _certificate(b, wmat, edges_u, edges_v)
        if ub < best_ub:
            best_ub, best_b = ub, b
        best_lb = max(best_lb, lb)
        if best_ub - best_lb <= tol:
            return ThetaResult(best_ub, best_lb, best_b, True, total_iters,
                               best_ub - best_lb)
    return ThetaResult(best_ub, best_lb, best_b, False, total_iters,
                       best_ub - best_lb)


def theta_exact(g: Graph, tol: float = 1e-6,
                cap: int = THETA_EXACT_DEFAULT_CAP) -> float:
    """Lovasz theta of a small graph (n <= cap) to within tol, certified.

    The returned value is lambda_max of an explicit feasible matrix, so it
    is a true upper bound; the solver stops once a dual witness pinches it
    from below to within tol.
    """
    return theta_exact_result(g, tol, cap).value

@dataclass(frozen=True)
class ThetaEstimate:
    """Best available theta value for a graph, with how it was obtained."""

    value: Optional[float]          # None when only an interval is known
    exact: Optional[Fraction]       # set when a closed form gave a rational
    method: str                     # "closed-form" | "optimizer" | "spectral-pinch" | "interval"
    bounds: Optional[ThetaBounds] = None

    def __float__(self):
        if self.value is None:
            raise ValueError("theta not determined, only bounded")
        return float(self.value)


def theta_best(g: Graph, tol: float = 1e-6,
               exact_cap: int = THETA_EXACT_DEFAULT_CAP) -> ThetaEstimate:
    """Dispatch to the sharpest applicable theta computation.

    Order: strong-regularity closed form, then matching spectral bounds
    for regular graphs, then the optimizer for small n, else an interval.
    Computed once per graph, tolerance and cap, then reused.
    """
    return g._cached(("theta_best", tol, exact_cap),
                     lambda: _theta_dispatch(g, tol, exact_cap))


def _theta_dispatch(g: Graph, tol: float, exact_cap: int) -> ThetaEstimate:
    n = g.n
    if n == 0:
        return ThetaEstimate(0.0, Fraction(0), "closed-form")
    m = g.edge_count()
    if m == 0:
        return ThetaEstimate(float(n), Fraction(n), "closed-form")
    if m == n * (n - 1) // 2:
        return ThetaEstimate(1.0, Fraction(1), "closed-form")
    params = srg_check(g)
    if params is not None:
        t, _ = theta_srg(params)
        if isinstance(t, Fraction):
            return ThetaEstimate(float(t), t, "closed-form")
        return ThetaEstimate(float(t), None, "closed-form")
    bounds = None
    if g.is_regular():
        s = eigenvalues(g)
        bounds = theta_bounds_regular(n, g.degree(), s.second_largest(),
                                      s.smallest())
        if bounds.upper - bounds.lower <= tol:
            return ThetaEstimate((bounds.upper + bounds.lower) / 2.0, None,
                                 "spectral-pinch", bounds)
    if n <= exact_cap:
        res = theta_exact_result(g, tol, exact_cap)
        if res.converged:
            return ThetaEstimate(res.value, None, "optimizer", bounds)
    return ThetaEstimate(None, None, "interval", bounds)
