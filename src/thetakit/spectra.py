"""Deterministic adjacency spectra and Ramanujan classification."""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .graphs import _one_blas_thread, check_budget

# perfbench's environment report reads this; there is no jit path.
_HAVE_NUMBA = False


def jacobi_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, descending, by LAPACK ``eigvalsh``.

    Input that is not square or not exactly symmetric raises ValueError.
    The name is historical; perfbench's tracer wraps this function by name.
    """
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if not np.array_equal(a, a.T):
        raise ValueError("matrix must be symmetric")
    with _one_blas_thread(len(a)):
        return np.linalg.eigvalsh(a)[::-1].copy()


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalue groups (value, multiplicity) in descending value order.

    Every spectrum, eigensolved or built from groups (products, powers,
    complements), is kept this way; `expanded()` builds the descending
    value array on request, within the dense byte budget.
    """

    groups: tuple  # ((value, multiplicity), ...)

    @property
    def n(self) -> int:
        return sum(m for _, m in self.groups)

    def expanded(self) -> np.ndarray:
        check_budget(8 * self.n, "the expanded spectrum")
        return np.repeat([v for v, _ in self.groups], [m for _, m in self.groups])

    def largest(self) -> float:
        return self.groups[0][0]

    def second_largest(self) -> float:
        """Second entry of the sorted value list, counting multiplicity."""
        if self.groups[0][1] > 1:
            return self.groups[0][0]
        if len(self.groups) < 2:
            raise ValueError("need at least 2 eigenvalues")
        return self.groups[1][0]

    def smallest(self) -> float:
        return self.groups[-1][0]


def group_values(values, rtol: float = 1e-6) -> tuple:
    """Collapse a descending value list into (value, multiplicity) pairs.

    Adjacent values within rtol * max(1, |values|_max) of each other land in
    one group; the group value is the mean of its members, or 0.0 when that
    mean is within n * eps * |values|_max of zero, LAPACK's backward-error
    scale, so that a zero eigenvalue does not print as rounding noise.
    """
    vals = np.asarray(values, dtype=np.float64)
    if vals.size == 0:
        return ()
    vmax = float(np.abs(vals).max())
    atol = rtol * max(1.0, vmax)
    zero = vals.size * np.finfo(np.float64).eps * vmax
    cuts = (np.flatnonzero(vals[:-1] - vals[1:] > atol) + 1).tolist()
    bounds = [0, *cuts, vals.size]
    groups = []
    for start, stop in zip(bounds, bounds[1:]):
        mean = float(vals[start:stop].mean())
        groups.append((0.0 if abs(mean) <= zero else mean, stop - start))
    return tuple(groups)


def spectrum_from_values(values, rtol: float = 1e-6) -> Spectrum:
    """Sort values descending and group them with `group_values`."""
    vals = np.sort(np.asarray(values, dtype=np.float64))[::-1]
    return Spectrum(group_values(vals, rtol))


def spectrum_from_groups(groups, rtol: float = 1e-6) -> Spectrum:
    """Build a spectrum from unsorted (value, multiplicity) pairs, merging
    values that agree to tolerance."""
    pairs = sorted(((float(v), int(m)) for v, m in groups), reverse=True)
    if not pairs:
        raise ValueError("no groups")
    atol = rtol * max(1.0, max(abs(v) for v, _ in pairs))
    merged: list[list[float]] = []
    for v, m in pairs:
        if merged and merged[-1][0] - v <= atol:
            tot = merged[-1][1] + m
            merged[-1][0] = (merged[-1][0] * merged[-1][1] + v * m) / tot
            merged[-1][1] = tot
        else:
            merged.append([v, m])
    return Spectrum(tuple((v, m) for v, m in merged))


def eigensolve_bytes(n: int) -> int:
    """Peak bytes of `eigenvalues` on n vertices: the float64 copy of the
    adjacency, LAPACK's own copy of it (an untracked malloc, so tracemalloc
    reads only about 9 bytes a cell) and its workspace. Peak-RSS growth in
    a fresh process read 16.2-16.5 bytes a cell at n = 2000 and 3000."""
    return 20 * n * n


def eigenvalues(g, rtol: float = 1e-6) -> Spectrum:
    """Adjacency spectrum of a graph, descending, with multiplicity groups.

    Computed once per graph and grouping tolerance, then reused; refused
    (ValueError) when its `eigensolve_bytes` exceed the dense budget.
    """
    check_budget(eigensolve_bytes(g.n), f"an eigensolve on {g.n} vertices")
    return g._cached(("eigenvalues", rtol), lambda: spectrum_from_values(
        jacobi_eigenvalues(g.adj.astype(np.float64)), rtol))


def complement_spectrum(s: Spectrum, n: int, d: int) -> Spectrum:
    """Spectrum of the complement of a d-regular graph from the graph's own.

    The top value must match d; one copy of it maps to n - d - 1 and every
    other eigenvalue v maps to -1 - v.
    """
    if s.n != n:
        raise ValueError("spectrum length does not match n")
    if abs(s.largest() - d) > 1e-6 * max(1.0, d):
        raise ValueError("spectrum inconsistent with d-regularity")
    out = [(float(n - d - 1), 1)]
    first = True
    for v, m in s.groups:
        m2 = m - 1 if first else m
        first = False
        if m2:
            out.append((-1.0 - v, m2))
    return spectrum_from_groups(out)


def lambda_nontrivial(s: Spectrum, d: float):
    """max |eigenvalue| over eigenvalues different from d and -d.

    All copies of d are dropped (disconnected regular graphs repeat d) and
    all copies of -d (bipartite components). Raises if nothing remains.
    """
    vals = np.asarray([v for v, _ in s.groups])
    atol = 1e-6 * max(1.0, abs(d))
    keep = (np.abs(vals - d) > atol) & (np.abs(vals + d) > atol)
    if not keep.any():
        raise ValueError("no nontrivial eigenvalues")
    return float(np.abs(vals[keep]).max())


@dataclass(frozen=True)
class RamanujanVerdict:
    is_ramanujan: bool
    lam: float            # max nontrivial |eigenvalue|
    threshold: float      # 2 sqrt(d-1)
    margin: float         # threshold - lam


def ramanujan_verdict(lam: float, d: int) -> RamanujanVerdict:
    """Verdict for a d-regular graph whose largest nontrivial |eigenvalue| is
    lam: Ramanujan when lam <= 2 sqrt(d-1), up to 1e-9."""
    if d < 2:
        raise ValueError("need degree >= 2")
    thr = 2.0 * math.sqrt(d - 1.0)
    return RamanujanVerdict(lam <= thr + 1e-9, lam, thr, thr - lam)
