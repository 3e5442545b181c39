"""Lovasz theta: spectral bounds, closed forms, and a certified solver."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .graphs import Graph, _one_blas_thread, check_budget, within_budget
from .spectra import eigenvalues, group_values
from .srg import SrgParams, srg_check

THETA_EXACT_DEFAULT_CAP = 64
# slack on a theta value: the solvers' default gap, alpha_ceiling's rounding
THETA_TOL = 1e-6


@dataclass(frozen=True)
class ThetaBounds:
    lower: float
    upper: float


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
    return ThetaBounds(theta_lower_regular(n, d, l2), theta_upper_regular(n, d, lmin))


def theta_bounds_complement(n: int, d: int, l2: float, lmin: float) -> ThetaBounds:
    """Sandwich for the complement of a d-regular graph from the graph's
    spectrum: the complement is (n-d-1)-regular with l2 = -1-lmin and
    lmin = -1-l2, so the bounds are 1 - d/lmin (Hoffman's chi(G) bound) and
    n(1+l2)/(n-d+l2) (the clique bound)."""
    return theta_bounds_regular(n, n - d - 1, -1.0 - lmin, -1.0 - l2)


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
        k = s + mu - lam
        return Fraction(n * k, 2 * d + k), Fraction(2 * d + k, k)
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


def alpha_ceiling(theta, k: int = 1) -> Optional[int]:
    """floor(theta^k) >= alpha(G^k) (Lovasz 1979, Thms 1 and 7), or None
    when theta is; THETA_TOL absorbs float rounding below a whole number.
    The one place a theta value becomes an alpha bound, so every search
    that targets it, and the alpha memo they share, sees the same number."""
    if theta is None:
        return None
    return math.floor(float(theta) ** k + THETA_TOL)


# -- exact solver -----------------------------------------------------
#
# theta(G) is the common value of the semidefinite pair (Lovasz 1979)
#   max sum(X)  s.t. tr X = 1, X_ij = 0 on edges, X PSD;
#   min t       s.t. Z = tI + sum_e y_e E_e - J PSD,
# with E_e = e_i e_j^T + e_j e_i^T for the edge e = ij. Every (t, y, Z)
# gives the feasible B = tI - Z = J - sum_e y_e E_e (1 on the diagonal and
# on non-edges), and lambda_max(B) bounds theta from above; every X, the
# dual witness, bounds it from below by sum(X), once _certificate has
# repaired rounding in its zeros and in its PSD-ness. On a regular graph
# the solver first scores Lovasz's ratio-bound pair (_ratio_pair), which
# pinches, with no iteration, when the lambda_min eigenprojector is
# constant on the edges: on distance-regular graphs (Schrijver, "A
# comparison of the Delsarte and Lovasz bounds", IEEE Trans. IT 1979) and
# on edge-transitive ones. The pinch is checked by the same _certificate
# gap test, not assumed. Otherwise it runs a feasible-start primal-dual
# interior-point method with the HKM direction and Mehrotra's
# predictor-corrector, sigma = (mu_aff/mu)^3 (Helmberg, Rendl, Vanderbei &
# Wolkowicz, SIAM J. Optim. 1996). It stops when the best bounds pinch to
# tol, or when a Cholesky factorisation breaks down near the optimum.
#
# The IPM runs over the edge classes of G's coherent closure, the stable
# colouring of vertex pairs under Weisfeiler & Leman's 2-dimensional
# refinement (1968); an edge's class is the unordered pair of the colours
# of (i, j) and (j, i). The span W of the colour classes' 0/1 matrices
# holds I, J and every class matrix A_P, and is closed under transposes
# and products, so under inverses too. Hence from X = I/n every HKM
# iterate stays in W: when X, Z and the right-hand side R lie in W, M maps
# the class-constant vectors into themselves (M S u is tr(E_e X dZ W) with
# dZ = sum_P u_P A_P), and since M is invertible the Newton system's
# unique solution dy is constant on each class. It is S u, with u the
# solution of the order-(r+1) system S^T M S u = S^T rhs, where S maps the
# r classes (and the trace constraint) to the m edges (de Klerk, Pasechnik
# & Schrijver, "Reduction of symmetric semidefinite programs using the
# regular *-representation", Math. Program. 2007). So the reduced IPM
# follows the same iterates with one y per class, B = J - sum_P y_P A_P.
#
# When the closure has d <= n colour classes (every vertex-transitive
# graph), the iterates are length-d coefficient vectors and every
# factorisation and eigensolve runs on their d x d regular
# *-representation (_Regular), so they stay in the algebra by
# construction; only the final certificate is dense. A closure with more
# classes is not used: dense iterates reduced over it would need
# projecting back onto the algebra every step, since rounding pushes
# W = Z^-1 out of it by about cond(Z) eps near the optimum. Such a graph
# runs the unreduced IPM on dense n x n iterates, each edge its own class
# (_Classes), as an asymmetric graph does. The vertex pre-pass
# (_vertex_colours) answers most of them without the n^3 pair refinement:
# k vertex colours give at least k^2 pair classes, so the pairs are
# refined only when k^2 <= n, and never when the pre-pass is discrete.


@dataclass(frozen=True)
class ThetaResult:
    value: float            # best certified upper bound lambda_max(B)
    lower: float            # best dual witness value
    matrix: np.ndarray      # the feasible B achieving `value`
    converged: bool
    iterations: int
    gap: float
    classes: int = 0        # edge classes the IPM ran over; 0 when none ran


def _values(b, x, total, n):
    """lambda_max(B), and the value of the witness X on n vertices (trace
    1, zero on the edges, entry sum total) repaired to PSD: X + eta I with
    eta = max(0, -lambda_min(X)), rescaled to trace 1. B and X may be
    their regular *-representations, which have the same eigenvalues."""
    ub = float(np.linalg.eigvalsh(b)[-1])
    eta = max(0.0, -float(np.linalg.eigvalsh(x)[0]))
    return ub, (total + eta * n) / (1.0 + eta * n)


def _certificate(b, wmat, edges_u, edges_v):
    """Primal value from B and a repaired dual witness value from W."""
    x = wmat.copy()
    x[edges_u, edges_v] = 0.0
    x[edges_v, edges_u] = 0.0
    x = (x + x.T) / 2.0
    return _values(b, x, float(x.sum()), b.shape[0])


_MAX_ITERATIONS = 100
_STEP = 0.95            # share of the step to the boundary of the PSD cone
_BLOCK = 64             # block order of the triangular substitutions


def _schur(x, w, edges_u, edges_v):
    """The HKM Schur complement M, M_kl = tr(A_k X A_l W) with A_0 = I and
    A_e = E_e.

    With e = ij and f = kl: M_00 = tr(XW), M_0e = (XW)_ij + (XW)_ji and
    M_ef = W_ik X_jl + W_il X_jk + W_jk X_il + W_jl X_ik. The four terms
    are summed into the result in place through two m x m scratch arrays.
    """
    m = len(edges_u)
    xw = x @ w
    out = np.empty((m + 1, m + 1))
    out[0, 0] = np.trace(xw)
    out[0, 1:] = out[1:, 0] = xw[edges_u, edges_v] + xw[edges_v, edges_u]
    mef = out[1:, 1:]
    mef.fill(0.0)
    t1, t2 = np.empty((m, m)), np.empty((m, m))
    ends = ((edges_u, edges_v), (edges_v, edges_u))
    # mode="clip" lets take write straight into out (the default mode
    # buffers it); every index is in range. take's column gathers are
    # C-contiguous, where w[:, wc] is not, so the row takes stay fast
    for wc, xc in ends:
        wcols, xcols = np.take(w, wc, axis=1), np.take(x, xc, axis=1)
        for wr, xr in ends:
            np.take(wcols, wr, axis=0, out=t1, mode="clip")
            np.take(xcols, xr, axis=0, out=t2, mode="clip")
            t1 *= t2
            mef += t1
    return out


def _cho_solve(chol, r):
    """The solution of (L L^T) s = r for the lower-triangular factor L,
    by blocked substitution (numpy has no triangular solver)."""
    s = np.array(r, dtype=np.float64)
    starts = range(0, len(s), _BLOCK)
    for a in starts:
        e = a + _BLOCK
        s[a:e] = np.linalg.solve(chol[a:e, a:e], s[a:e])
        s[e:] -= chol[e:, a:e] @ s[a:e]
    for a in reversed(starts):
        e = a + _BLOCK
        s[a:e] = np.linalg.solve(chol[a:e, a:e].T, s[a:e])
        s[:a] -= chol[a:e, :a].T @ s[a:e]
    return s


def _step(inv_chol, d):
    """The step along d kept inside the PSD cone, at most 1; inv_chol is
    the inverse Cholesky factor of the current point."""
    lmin = float(np.linalg.eigvalsh(inv_chol @ d @ inv_chol.T)[0])
    return 1.0 if lmin >= 0.0 else min(1.0, -_STEP / lmin)


def _on_edges(v, edges_u, edges_v, n):
    """sum_e v_e E_e as a dense n x n matrix."""
    e = np.zeros((n, n))
    e[edges_u, edges_v] = v
    e[edges_v, edges_u] = v
    return e


def _hkm_step(x, t, y, cls):
    """One Mehrotra predictor-corrector step in the HKM direction from the
    feasible point (X, t, y), y one value per edge class of cls, in cls's
    arithmetic (dense, or in the regular *-representation); LinAlgError
    when a factorisation fails."""
    n = cls.n
    z = cls.adjoint(np.concatenate(([t], y))) - 1.0
    inv_lx = np.linalg.inv(np.linalg.cholesky(cls.mat(x)))
    inv_lz = np.linalg.inv(np.linalg.cholesky(cls.mat(z)))
    w = cls.inverse(inv_lz)
    chol = np.linalg.cholesky(cls.schur(x, w))
    mu = cls.inner(x, z) / n

    def direction(r):
        # dX = R - X - X dZ W; the rhs S^T (A(R) - b) keeps A(X + dX) = b
        dy = _cho_solve(chol, cls.constraints(r))
        dz = cls.adjoint(dy)
        return dy, dz, cls.sym(r - x - cls.mul(cls.mul(x, dz), w))

    _, dz, dx = direction(np.zeros_like(x))
    ap, ad = _step(inv_lx, cls.mat(dx)), _step(inv_lz, cls.mat(dz))
    mu_aff = cls.inner(x + ap * dx, z + ad * dz) / n
    sigma = min(1.0, (mu_aff / mu) ** 3)
    dy, dz, dx = direction(sigma * mu * w - cls.mul(cls.mul(dx, dz), w))
    ap, ad = _step(inv_lx, cls.mat(dx)), _step(inv_lz, cls.mat(dz))
    return x + ap * dx, t + ad * dy[0], y + ad * dy[1:]


def _ratio_pair(g, edges_u, edges_v):
    """Lovasz's ratio-bound pair (B, X) of a d-regular graph.

    B = J - yA with y = n/(d - lambda_min) is feasible, and its lambda_max
    is the ratio bound -n lambda_min/(d - lambda_min). The witness
    X = z J/n + w U U^T, with U the lambda_min eigenvectors,
    z = -lambda_min/(d - lambda_min) and w = d/((d - lambda_min) m_min),
    is PSD with trace 1 and the same sum. It vanishes on the edges, and
    the pair pinches, when U U^T is constant on them: on distance-regular
    graphs, whose idempotents lie in the Bose-Mesner algebra, and on
    edge-transitive ones.
    """
    n, d = g.n, g.degree()
    vals, vecs = np.linalg.eigh(g.adj.astype(np.float64))
    lmin, mult = group_values(vals[::-1])[-1]
    u = vecs[:, :mult]
    b = 1.0 - _on_edges(n / (d - lmin), edges_u, edges_v, n)
    x = -lmin / (d - lmin) / n + d / ((d - lmin) * mult) * (u @ u.T)
    return b, x


def _unique_rows(a):
    """Ids 0..k-1 of the rows of a 2-d integer array, equal rows alike,
    and k: the rows are sorted as blocks of bytes, and a row starts a new
    id where it differs from the one before."""
    a = np.ascontiguousarray(a)
    perm = np.argsort(a.view(np.dtype((np.void, a.dtype.itemsize * a.shape[1]))).ravel())
    srt = a[perm]
    new = np.empty(len(a), dtype=bool)
    new[0] = True
    np.any(srt[1:] != srt[:-1], axis=1, out=new[1:])
    ranks = np.cumsum(new) - 1
    ids = np.empty(len(a), dtype=np.int64)
    ids[perm] = ranks
    return ids, int(ranks[-1]) + 1


def _vertex_colours(adj):
    """Colour refinement of the vertices, seeded with each vertex's sorted
    row of common-neighbour counts (one A @ A): ids 0..k-1.

    The diagonal of the coherent closure refines it, so when it gives
    every vertex its own colour, the closure puts every pair in its own
    class. A vertex-transitive graph has one colour.
    """
    n = len(adj)
    a = adj.astype(np.float64)
    col, k = _unique_rows(np.sort((a @ a).astype(np.int64), axis=1))
    while k < n:
        counts = (a @ np.eye(k)[col]).astype(np.int64)
        new, k_new = _unique_rows(np.column_stack((col, counts)))
        if k_new == k:
            break
        col, k = new, k_new
    return col


def wl_bytes(n: int) -> int:
    """Peak bytes of the 2-dimensional refinement on n vertices: the
    n x n x (n+1) codes, their sorted copy and a one-byte mask over them,
    and n^2 index arrays. The codes of r colours take the smallest of
    uint16, uint32 and uint64 that holds r^2; this counts the one that
    holds n^4, as r <= n^2. tracemalloc read 9.1-9.5 bytes per code cell
    for uint32 codes at n = 60 to 200, 0.91-0.95 of this."""
    item = 2 if n <= 16 else 4 if n <= 256 else 8
    return (2 * item + 1) * n * n * (n + 1) + 64 * n * n


def _coherent_closure(adj):
    """The stable 2-dimensional Weisfeiler-Leman colouring of the vertex
    pairs (_refine_pairs), as an n x n array of ids, when it has at most n
    colours; None otherwise.

    Pairs across two vertex colours never share a class, so k colours from
    the vertex pre-pass give at least k^2 classes: when k^2 > n, a discrete
    pre-pass included, the pairs are not refined.
    """
    n = len(adj)
    vcol = _vertex_colours(adj)
    k = int(vcol.max()) + 1
    if k * k > n:
        return None
    col = _refine_pairs(adj, vcol)
    return col if col.max() < n else None


def _refine_pairs(adj, vcol):
    """2-dimensional refinement from I, A and the non-edges, with the
    diagonal split by the vertex colours vcol.

    Each round recolours (i, j) by its colour and the sorted multiset of
    the codes colour(i, k) * r + colour(k, j) over all k, for r colours,
    and stops when no class splits. The stable colouring of the diagonal
    refines the pre-pass, so seeding the diagonal with it ends at the same
    colouring.
    """
    n = len(adj)
    seed = adj.astype(np.int64)
    seed[np.diag_indices(n)] = 2 + vcol
    ids, r = _unique_rows(seed.reshape(n * n, 1))
    while True:
        col = ids.reshape(n, n)
        # short codes make the rows' sort and compares short
        dtype = next(t for t in (np.uint16, np.uint32, np.uint64)
                     if r * r <= np.iinfo(t).max + 1)
        short = col.astype(dtype)
        codes = np.empty((n, n, n + 1), dtype)
        codes[:, :, 0] = short
        np.add((short * dtype(r))[:, None, :], np.ascontiguousarray(short.T)[None],
               out=codes[:, :, 1:])
        codes[:, :, 1:].sort(axis=2)
        ids, r_new = _unique_rows(codes.reshape(n * n, n + 1))
        if r_new == r:
            return col
        r = r_new


def _closure(g):
    """g's coherent closure, memoised on g; None when it has more than n
    colours or its refinement would exceed the dense budget."""
    if not within_budget(wl_bytes(g.n)):
        return None
    return g._cached(("coherent_closure",), lambda: _coherent_closure(g.adj))


class _Classes:
    """The IPM's arithmetic on dense n x n iterates, with every edge (endpoints
    u, v) its own class."""

    d = None            # colour classes of the representation; none here

    def __init__(self, n, u, v):
        self.n, self.u, self.v, self.r = n, u, v, len(u)
        self.eye = np.eye(n)

    def feasible(self, y):
        """B = J - sum_e y_e E_e, dense."""
        return 1.0 - _on_edges(y, self.u, self.v, self.n)

    def adjoint(self, dy):
        """dy_0 I + sum_e dy_e E_e."""
        return dy[0] * self.eye + _on_edges(dy[1:], self.u, self.v, self.n)

    def constraints(self, r):
        """tr R - 1 and <E_e, R> for each edge e."""
        return np.concatenate(([np.trace(r) - 1.0], r[self.u, self.v] + r[self.v, self.u]))

    def mat(self, x):
        """The matrix that is factored and eigensolved for x."""
        return x

    def mul(self, a, b):
        return a @ b

    def sym(self, a):
        return (a + a.T) / 2.0

    def inner(self, a, b):
        return float(np.sum(a * b))

    def inverse(self, inv_chol):
        """Z^-1 from the inverse Cholesky factor of Z."""
        return inv_chol.T @ inv_chol

    def schur(self, x, w):
        return _schur(x, w, self.u, self.v)

    def score(self, x, y):
        """The certificate's values for the iterate, _certificate's here."""
        return _certificate(self.feasible(y), x / np.trace(x), self.u, self.v)

    def certify(self, ub, lb, y, x):
        """The dense certificate's value, lower end and B for the best B
        (from y, scored ub) and the best witness x (scored lb)."""
        return ub, lb, self.feasible(y)


class _Regular:
    """The edges (endpoints u, v) in the r edge classes of a coherent
    closure col with d <= n colour classes, and the IPM's arithmetic on the
    coefficient vectors x of X = x[col], with factorisations and
    eigensolves on L(X), X's regular *-representation.

    An edge's class is the unordered pair of the colours of (i, j) and
    (j, i), and classes are numbered in order of their first edge.
    L(X) is the matrix of Y -> XY in the orthonormal basis A_k / sqrt(s_k)
    of the colour classes' 0/1 matrices A_k, s_k pairs each:
    L(X)[k, j] = sqrt(s_k / s_j) sum_c x[col(a_k, c)] [col(c, b_k) = j]
    for a pair (a_k, b_k) of class k, one bincount over d x n indices.
    L is a faithful *-homomorphism: L(XY) = L(X) L(Y), L(X^T) = L(X)^T,
    and L(X) has X's eigenvalues, so X is PSD exactly when L(X) is, and
    step lengths and certificate values are read from L. The iterates stay
    in the algebra by construction, and only `certify` builds n x n
    matrices.
    """

    def __init__(self, n, u, v, col):
        self.n, self.u, self.v, self.col = n, u, v, col
        cu, cv = col[u, v], col[v, u]
        key = np.minimum(cu, cv) * col.size + np.maximum(cu, cv)
        _, first, ids = np.unique(key, return_index=True, return_inverse=True)
        self.of_edge = np.argsort(np.argsort(first))[ids.reshape(-1)]
        self.r = len(first)
        self.size = np.bincount(col.ravel())
        self.d = d = len(self.size)
        a, b = np.divmod(np.unique(col.ravel(), return_index=True)[1], n)
        self.idx = col[a]                                   # col(a_k, c)
        self.pos = (np.arange(d)[:, None] * d + col[:, b].T).ravel()
        self.tr = col[b, a]                                 # the transposes' classes
        self.root = root = np.sqrt(self.size)
        self.scale = np.outer(root, 1.0 / root)
        edge_class = np.full(d, -1)
        edge_class[cu] = edge_class[cv] = self.of_edge
        self.edge = edge_class >= 0
        # the coefficients of I and of each edge class's A_P
        self.basis = np.zeros((d, self.r + 1))
        self.basis[col.diagonal(), 0] = 1.0
        self.basis[self.edge, 1 + edge_class[self.edge]] = 1.0
        self.eye, self.hat = self.basis[:, 0], self.basis * root[:, None]

    def feasible(self, y):
        """B = J - sum_P y_P A_P, dense."""
        return 1.0 - _on_edges(y[self.of_edge], self.u, self.v, self.n)

    def left(self, x):
        """The matrix of Y -> XY on the coefficients of Y."""
        d = self.d
        return np.bincount(self.pos, x[self.idx].ravel(), d * d).reshape(d, d)

    def mat(self, x):
        """L(X)."""
        return self.left(x) * self.scale

    def adjoint(self, dy):
        return self.basis @ dy

    def constraints(self, r):
        rhs = (r * self.size) @ self.basis
        rhs[0] -= 1.0
        return rhs

    def mul(self, a, b):
        return self.left(a) @ b

    def sym(self, a):
        return (a + a[self.tr]) / 2.0

    def inner(self, a, b):
        return float((a * b) @ self.size)

    def inverse(self, inv_chol):
        # L(Z)^-1 = L(W) maps I's orthonormal coordinates to W's
        return self.sym(inv_chol.T @ (inv_chol @ (self.eye * self.root)) / self.root)

    def schur(self, x, w):
        """M_PQ = tr(A_P X A_Q W) = <X A_P, (W A_Q)^T>, in orthonormal
        coordinates, where the transpose permutes the classes."""
        return (self.mat(x) @ self.hat).T @ (self.mat(w) @ self.hat)[self.tr]

    def score(self, x, y):
        x = x / self.inner(x, self.eye)         # trace 1
        x[self.edge] = 0.0
        x = self.sym(x)
        b = 1.0 - self.basis[:, 1:] @ y
        return _values(self.mat(b), self.mat(x), float(x @ self.size), self.n)

    def certify(self, ub, lb, y, x):
        b, x = self.feasible(y), x[self.col]
        return (*_certificate(b, x / np.trace(x), self.u, self.v), b)


def _edge_classes(g, edges_u, edges_v):
    """The edges of g in the classes of its coherent closure, in the
    closure's regular *-representation; every edge its own class, on dense
    iterates, when _closure gives no closure."""
    col = _closure(g)
    if col is None:
        return _Classes(g.n, edges_u, edges_v)
    return _Regular(g.n, edges_u, edges_v, col)


# Peak bytes per n^2 cell of the ratio pair and its certificate (or of an
# edgeless graph's B = J): tracemalloc read 4.0-4.2 doubles at n = 200 to
# 1000.
RATIO_PAIR_CELL_BYTES = 34


def ipm_bytes(n: int, m: int, r: Optional[int] = None,
              d: Optional[int] = None) -> int:
    """Peak bytes of the IPM on n vertices and m edges: unreduced, or, given
    d, in the regular *-representation of a closure with d colour classes
    and r edge classes.

    Unreduced: the (m+1)^2 Schur complement and its factor, two m x m
    scratch arrays and two n x m column gathers while it is built, and the
    n x n iterates. tracemalloc read 3.15-3.3 doubles per cell of the
    complement at m >= 1000, and 12-18 doubles per n^2 cell on sparse
    graphs of 120 to 300 vertices, up to 37 on the 5- to 64-vertex test
    graphs.

    In the regular *-representation: the (r+1)^2 complement, the d x n
    index arrays of the representation, and the final dense certificate,
    which leads. tracemalloc read 7.7-8.7 doubles per n^2 cell, 0.69-0.90
    of this, on symmetric graphs of 48 to 200 vertices with d = 7 to 101
    (C5^3 0.83, a 200-vertex circulant with d = 101 0.69).
    """
    if d is None:
        return 11 * (m + 1) ** 2 + 16 * (m + n) * m + 320 * n * n
    return 11 * (r + 1) ** 2 + 32 * d * n + 72 * n * n


def theta_exact_result(g: Graph, tol: float = THETA_TOL) -> ThetaResult:
    n = g.n
    if n == 0:
        raise ValueError("empty vertex set")
    check_budget(RATIO_PAIR_CELL_BYTES * n * n,
                 f"theta's ratio pair on {n} vertices")
    m = g.edge_count()
    if m == 0:
        b = np.ones((n, n))
        return ThetaResult(float(n), float(n), b, True, 0, 0.0)
    edges_u, edges_v = np.nonzero(np.triu(g.adj, 1))

    if g.is_regular():
        with _one_blas_thread(n):
            b, x = _ratio_pair(g, edges_u, edges_v)
            ub, lb = _certificate(b, x, edges_u, edges_v)
        if ub - lb <= tol:
            # a lower end above a certified upper end claims nothing more
            lb = min(lb, ub)
            return ThetaResult(ub, lb, b, True, 0, ub - lb)

    with _one_blas_thread(n):
        cls = _edge_classes(g, edges_u, edges_v)
    r = cls.r
    check_budget(ipm_bytes(n, m, r, cls.d),
                 f"theta's IPM on {n} vertices and {m} edges in {r} classes")
    # the feasible start X = I/n, Z = (n+1)I - J has mu = tr(XZ)/n = 1
    x, t, y = cls.eye / n, n + 1.0, np.zeros(r)
    best_ub, best_lb, best_y, best_x = math.inf, -math.inf, None, None
    iterations = 0
    # the Schur complement is the largest matrix, of order r + 1
    with _one_blas_thread(max(n, r + 1)):
        while True:
            # the witness is read at trace 1; the division drops rounding drift
            ub, lb = cls.score(x, y)
            if ub < best_ub:
                best_ub, best_y = ub, y
            if lb > best_lb:
                best_lb, best_x = lb, x
            last = iterations == _MAX_ITERATIONS
            if last or best_ub - best_lb <= tol:
                value, lower, b = cls.certify(best_ub, best_lb, best_y, best_x)
                if last or value - lower <= tol:
                    break
            try:
                x, t, y = _hkm_step(x, t, y, cls)
            except np.linalg.LinAlgError:
                value, lower, b = cls.certify(best_ub, best_lb, best_y, best_x)
                break
            iterations += 1
    lower = min(lower, value)
    gap = value - lower
    return ThetaResult(value, lower, b, gap <= tol, iterations, gap, r)


def theta_exact(g: Graph, tol: float = THETA_TOL) -> float:
    """Lovasz theta of a graph to within tol, certified.

    The returned value is lambda_max of an explicit feasible matrix, so it
    is a true upper bound; the solver stops once a dual witness pinches it
    from below to within tol. Refused (ValueError) before allocating when
    the ratio pair's or the IPM's peak bytes exceed the dense budget.
    """
    return theta_exact_result(g, tol).value

@dataclass(frozen=True)
class ThetaEstimate:
    """Best available theta value for a graph, with how it was obtained."""

    value: Optional[float]          # None when only an interval is known
    exact: Optional[Fraction]       # set when a closed form gave a rational
    method: str                     # "closed-form" | "product" | "optimizer" | "interval"
    bounds: Optional[ThetaBounds] = None
    lower: Optional[float] = None   # certified lower end of theta, set with value


def theta_best(g: Graph, tol: float = THETA_TOL,
               exact_cap: int = THETA_EXACT_DEFAULT_CAP) -> ThetaEstimate:
    """Dispatch to the sharpest applicable theta computation.

    Order: closed form (edgeless, complete), then the product of the
    factors' theta on a strong product, then the strongly regular closed
    form, then the certified optimizer for n <= exact_cap, else an
    interval; a regular graph's estimate from the last two carries its
    spectral sandwich in `bounds`. The sandwich meets only on strongly
    regular graphs, which the closed form has answered. Computed once per
    graph, tolerance and cap, then reused.
    """
    return g._cached(("theta_best", tol, exact_cap),
                     lambda: _theta_dispatch(g, tol, exact_cap))


def _theta_product(factors, tol: float, exact_cap: int) -> Optional[ThetaEstimate]:
    """theta of a strong product as the product of its factors' (Lovasz
    1979, Thm 7), built from no adjacency; None when a factor's theta is
    only an interval.

    Exact when every factor's value is a Fraction. Otherwise each float
    step rounds outward, the value up and the lower end down, so both stay
    certified when the factors' are: the factors' feasible matrices
    B_1 kron B_2 and witnesses X_1 kron X_2 certify the products.
    """
    ests = [theta_best(f, tol, exact_cap) for f in factors]
    if any(e.value is None for e in ests):
        return None
    if all(e.exact is not None for e in ests):
        t = math.prod(e.exact for e in ests)
        return ThetaEstimate(float(t), t, "product", lower=float(t))
    value = lower = 1.0
    for e in ests:
        value = math.nextafter(value * e.value, math.inf)
        lower = math.nextafter(lower * e.lower, -math.inf)
    return ThetaEstimate(value, None, "product", lower=lower)


def _theta_dispatch(g: Graph, tol: float, exact_cap: int) -> ThetaEstimate:
    n = g.n
    if n == 0:
        return ThetaEstimate(0.0, Fraction(0), "closed-form", lower=0.0)
    m = g.edge_count()
    if m == 0:
        return ThetaEstimate(float(n), Fraction(n), "closed-form", lower=float(n))
    if m == n * (n - 1) // 2:
        return ThetaEstimate(1.0, Fraction(1), "closed-form", lower=1.0)
    if g.factors:
        est = _theta_product(g.factors, tol, exact_cap)
        if est is not None:
            return est
    params = srg_check(g)
    if params is not None:
        t, _ = theta_srg(params)
        exact = t if isinstance(t, Fraction) else None
        return ThetaEstimate(float(t), exact, "closed-form", lower=float(t))
    bounds = None
    if g.is_regular():
        s = eigenvalues(g)
        bounds = theta_bounds_regular(n, g.degree(), s.second_largest(),
                                      s.smallest())
    if n <= exact_cap:
        res = theta_exact_result(g, tol)
        if res.converged:
            return ThetaEstimate(res.value, None, "optimizer", bounds, res.lower)
    return ThetaEstimate(None, None, "interval", bounds)
