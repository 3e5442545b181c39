"""Exact combinatorial solvers: independence, clique, chromatic number,
and capacity certificates. Branch-and-bound with time budgets; a timeout
yields a certified interval, never a guess."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .graphs import Graph, within_budget
from .products import strong_power
from .theta import THETA_TOL, alpha_ceiling, theta_best

DEFAULT_BUDGET = 60.0


@dataclass(frozen=True)
class SolveResult:
    value: Optional[int]        # exact value, or None on timeout
    lower: int
    upper: int
    witness: Optional[tuple]    # vertex tuple (or coloring tuple) when found
    status: str                 # "exact" | "timeout"
    elapsed: float

    def __post_init__(self):
        if self.status == "exact" and self.lower != self.upper:
            raise ValueError("exact result with open interval")


class _Budget:
    def __init__(self, seconds: float):
        if not seconds >= 0:    # NaN as well: it would never expire
            raise ValueError(f"budget must be a number of seconds >= 0, got {seconds}")
        self.deadline = time.monotonic() + seconds
        self.start = time.monotonic()
        self.expired = False
        self._tick = 0

    def check(self) -> bool:
        """True once the deadline has passed (polled every few hundred calls)."""
        self._tick += 1
        return self.expired if self._tick & 0xFF else self.check_now()

    def check_now(self) -> bool:
        """True once the deadline has passed, read from the clock now."""
        if time.monotonic() > self.deadline:
            self.expired = True
        return self.expired

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def left(self) -> float:
        """Seconds left before the deadline, 0 once it has passed."""
        return max(0.0, self.deadline - time.monotonic())


def _words(sets, width):
    """Bitsets as the rows of a uint64 array, `width` little-endian words each."""
    buf = b"".join(x.to_bytes(8 * width, "little") for x in sets)
    return np.frombuffer(buf, dtype="<u8").reshape(len(sets), width)


def _pack_words(rows):
    """The rows of a bool matrix as bitsets in the layout of `_words`: bit j
    of row i is rows[i, j]."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    out = np.zeros((len(rows), -(-rows.shape[1] // 64) * 8), dtype=np.uint8)
    out[:, :packed.shape[1]] = packed
    return out.view("<u8")


def _pack(adj):
    """Row bitsets of a bool matrix as ints, read off `_pack_words`' rows."""
    return [int.from_bytes(r.tobytes(), "little") for r in _pack_words(adj)]


def _degeneracy_order(adj):
    """Vertex elimination order of a bool adjacency: repeatedly remove a
    vertex of minimum degree among those left, the lowest index on ties."""
    n = len(adj)
    deg = adj.sum(axis=1)
    order = []
    for _ in range(n):
        v = int(np.argmin(deg))
        order.append(v)
        deg -= adj[v]
        # a removed vertex loses at most 1 per later removal, so it stays
        # above the degrees of the vertices still left
        deg[v] = n
    return order


def _greedy_descent(adj_masks, seed):
    """Greedy clique from `seed`: add the candidate with the most
    candidate neighbours (the lowest index on ties) until none is left."""
    clique = [seed]
    cand = adj_masks[seed]
    while cand:
        v = max(_bits(cand), key=lambda u: ((adj_masks[u] & cand).bit_count(), -u))
        clique.append(v)
        cand &= adj_masks[v]
    return tuple(clique)


def _greedy_clique(adj_masks, n, budget: _Budget, ceiling=math.inf):
    """Deterministic greedy clique, used as the initial bound: the largest
    of the greedy descents from the 8 vertices of highest degree. The first
    descent always runs, the others only while the budget lasts and no
    descent has reached `ceiling`, the search's own: a descent costs
    O(clique size * n) big-int operations, seconds on a large dense
    graph."""
    best: tuple = ()
    for seed in sorted(range(n), key=lambda v: -adj_masks[v].bit_count())[:8]:
        if best and len(best) >= ceiling:
            break
        if best and budget.check_now():
            break
        best = max(best, _greedy_descent(adj_masks, seed), key=len)
    return best


def _bits(mask):
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask &= mask - 1


def _color_bound(masks, cand):
    """Greedy coloring of the vertex bitset `cand` under the adjacency
    bitsets `masks`, smallest index first into each color class. Returns
    the vertices in coloring order and each one's color number: no clique
    among a vertex and those before it has more vertices than its number.
    """
    order_out = []
    bounds = []
    color = 0
    uncolored = cand
    while uncolored:
        color += 1
        avail = uncolored
        while avail:
            v = (avail & -avail).bit_length() - 1
            avail &= ~masks[v]
            avail &= ~(1 << v)
            uncolored &= ~(1 << v)
            order_out.append(v)
            bounds.append(color)
    return order_out, bounds


def _clique_search(adj, budget: _Budget, floor, ceiling):
    """Branch and bound over the cliques of a bool adjacency matrix.

    The bitsets are relabelled in degeneracy order (better coloring order).
    Candidates are greedily colored at every node; branches whose clique
    size plus color bound falls short of `floor` are cut, and no clique
    grows past `ceiling` vertices. Each clique found below the ceiling
    raises the floor past it, so with floor = ceiling the search yields
    every clique of that size. Returns (root color bound, an iterator over
    the cliques that reach the floor, as bitsets in adj's labels). The
    iterator ends early once the budget expires; `budget.expired` tells.
    """
    order = _degeneracy_order(adj)
    masks = _pack(adj[np.ix_(order, order)])

    def expand(size, mask, cand):
        nonlocal floor
        if budget.check():
            return
        order_out, bounds = _color_bound(masks, cand)
        for i in range(len(order_out) - 1, -1, -1):
            if size + bounds[i] < floor:
                return
            v = order_out[i]
            new_mask = mask | (1 << v)
            new_cand = cand & masks[v]
            if size + 1 >= floor:
                yield sum(1 << order[w] for w in _bits(new_mask))
                floor = min(size + 2, ceiling)
            if new_cand and size + 1 < ceiling:
                yield from expand(size + 1, new_mask, new_cand)
                if budget.expired:
                    return
            cand &= ~(1 << v)

    full = (1 << len(adj)) - 1
    _, root_bounds = _color_bound(masks, full)
    cliques = expand(0, 0, full) if floor <= ceiling else iter(())
    return max(root_bounds, default=0), cliques


def clique_number(g: Graph, budget: float = DEFAULT_BUDGET,
                  target: Optional[int] = None) -> SolveResult:
    """Exact maximum clique size within the time budget.

    `target`, when given, must be a proven upper bound on the clique
    number: the search stops as soon as it finds a clique that large and
    reports it as exact, and a timed-out interval ends at most at it. A
    target below the true clique number therefore yields a wrong answer.

    When g.meta.vertex_transitive is True, some maximum clique holds
    vertex 0, so the search runs on the neighbourhood of vertex 0 only and
    adds 0 back: the value and both ends of the interval are one more than
    the neighbourhood's. The flag is asserted, not checked, exactly like
    `target`: on a graph that is not vertex-transitive it yields a wrong
    "exact" answer.
    """
    n = g.n
    if n == 0:
        return SolveResult(0, 0, 0, (), "exact", 0.0)
    if g.meta.vertex_transitive:
        nbrs = g.neighbors(0)
        res = clique_number(g.subgraph(nbrs), budget,
                            None if target is None else target - 1)
        value = None if res.value is None else res.value + 1
        witness = (0,) + tuple(int(nbrs[v]) for v in res.witness)
        return SolveResult(value, res.lower + 1, res.upper + 1, witness,
                           res.status, res.elapsed)
    b = _Budget(budget)
    ceiling = n if target is None else target
    clique = tuple(sorted(_greedy_clique(_pack(g.adj), n, b, ceiling=ceiling)))
    if len(clique) >= ceiling:
        return SolveResult(len(clique), len(clique), len(clique), clique,
                           "exact", b.elapsed())
    root_bound, cliques = _clique_search(g.adj, b, len(clique) + 1, ceiling)
    for found in cliques:
        clique = tuple(_bits(found))
        if len(clique) >= ceiling:
            break
    size = len(clique)
    if size >= ceiling or not b.expired:
        return SolveResult(size, size, size, clique, "exact", b.elapsed())
    upper = min(max(root_bound, size), ceiling)
    return SolveResult(None, size, upper, clique, "timeout", b.elapsed())


def independence_number(g: Graph, budget: float = DEFAULT_BUDGET,
                        target: Optional[int] = None) -> SolveResult:
    """Exact independence number: maximum clique of the complement.

    `target` must be a proven upper bound on the independence number
    (for instance floor(theta)); see `clique_number`. The complement keeps
    g.meta.vertex_transitive, so a vertex-transitive g is searched only
    on the non-neighbours of vertex 0; a false flag yields a wrong
    "exact" answer, as in `clique_number`.

    An exact result is stored on g under its target and returned to later
    calls with the same target, so the capacity certificate and the
    chromatic search, which both target `alpha_ceiling(theta)`, share one
    alpha search. A timeout is not stored: a later call searches again on
    its own budget.
    """
    key = ("alpha", target)
    if key in g._memo:
        return g._memo[key]
    res = clique_number(g.complement(), budget, target=target)
    if res.status == "exact":
        g._memo[key] = res
    return res


# -- chromatic number -------------------------------------------------


def _by_rank(g):
    """g's row bitsets relabelled by rank (-degree, then index); the ranks."""
    order = np.argsort(-g.degrees(), kind="stable")
    adj = g.adj if (order == np.arange(g.n)).all() else g.adj[np.ix_(order, order)]
    # Python-int ranks: `_k_colorable` shifts 1 << rank past bit 63
    return _pack(adj), np.argsort(order).tolist()


def _k_colorable(rows, rank, k, budget: _Budget, clique_seed):
    """Backtracking k-coloring in DSATUR order with symmetry breaking, on
    the rows and ranks of `_by_rank`; seed and coloring are in g's labels.

    free[c] holds the uncolored vertices with no neighbour of color c, and
    sat their saturations (distinct colors among their neighbours),
    bit-sliced and offset so that reaching k, a dead end, carries out of
    the top slice. The next vertex is the uncolored one of greatest
    saturation, the lowest rank on ties. The stack has one frame (vertex,
    color, max_used before it, vertices it touched) per colored vertex, so
    the depth has no limit; with k = n it never backtracks (greedy DSATUR).

    Returns (verdict, coloring or None); verdict None means budget expired.
    """
    if len(clique_seed) > k:
        return False, None
    full = (1 << len(rows)) - 1
    free = [full] * k
    levels = range(max(k - 1, 0).bit_length())
    sat = [full * ((1 << len(levels)) - k >> j & 1) for j in levels]
    # the seed clique's frames come first: its vertices must all differ
    # anyway, and a vertex it saturates would be picked first and fail
    stack = [(rank[v], c, 0, 0) for c, v in enumerate(clique_seed)]
    uncolored = full - sum(1 << f[0] for f in stack)
    for v, c, _, _ in stack:
        t = free[c] & rows[v] & uncolored
        free[c] ^= t
        for j in levels:
            sat[j], t = sat[j] ^ t, sat[j] & t
        if t:
            return None if budget.check() else False, None
    seeded = max_used = len(stack)
    v = None    # None: pick the next vertex; else try v's colors from c on
    while True:
        if v is None:
            if budget.check():
                return None, None
            if not uncolored:
                colors = dict(f[:2] for f in stack)
                return True, [colors[r] for r in rank]
            pick = uncolored
            for s in reversed(sat):
                if pick & s:
                    pick &= s
            v, c = (pick & -pick).bit_length() - 1, 0
        bit = 1 << v
        limit = min(k, max_used + 1)
        while c < limit and not free[c] & bit:
            c += 1
        if c < limit:
            uncolored ^= bit
            t = free[c] & rows[v] & uncolored
            free[c] ^= t
            stack.append((v, c, max_used, t))
            for j in levels:    # one color more around each vertex of t
                if not t:
                    break
                sat[j], t = sat[j] ^ t, sat[j] & t
            if not t:
                max_used = max(max_used, c + 1)
                v = None
                continue
        elif len(stack) == seeded:
            return False, None
        # undo the newest color and try the next one for its vertex
        v, c, max_used, t = stack.pop()
        uncolored |= 1 << v
        free[c] |= t
        for j in levels:    # one color less around each vertex of t
            sat[j], t = sat[j] ^ t, ~sat[j] & t
        c += 1


def _set_bytes(n):
    """Bytes held by one n-bit int bitset plus its list slot."""
    return 40 + n // 7


def _clique_cover(adj, size, budget: _Budget):
    """Partition of the vertices of a bool adjacency into cliques of
    exactly `size` >= 2 vertices.

    Each step branches on the uncovered vertex with the fewest uncovered
    neighbours (the lowest index on ties), over the cliques through it
    among its uncovered neighbours. A step holds one suspended
    `_clique_search` with floor and ceiling at `size` - 1 and draws its
    next clique only when a deeper step fails. The steps run over an
    explicit stack, so the Python recursion is only a search's, about
    `size` frames deep. The packed candidates of all open steps are
    checked against the dense byte budget, like a timeout.

    Returns (verdict, the chosen cliques as bitsets or None); verdict None
    means the budget expired, False that no such partition exists.
    """
    masks = _pack(adj)
    uncovered = (1 << len(adj)) - 1
    chosen = []     # the clique taken at each open step
    steps = []      # each open step: vertex, candidates, cliques, bytes
    held = 0
    while True:
        if budget.check():
            return None, None
        if not uncovered:
            return True, chosen
        v = min(_bits(uncovered),
                key=lambda u: (masks[u] & uncovered).bit_count())
        cand = list(_bits(masks[v] & uncovered))
        cost = len(cand) * _set_bytes(len(cand))
        held += cost
        if not within_budget(held):
            return None, None
        _, cliques = _clique_search(adj[np.ix_(cand, cand)], budget,
                                    size - 1, size - 1)
        steps.append((v, cand, cliques, cost))
        while (found := next(steps[-1][2], None)) is None:
            if budget.expired:
                return None, None
            held -= steps.pop()[3]
            if not steps:
                return False, None
            uncovered |= chosen.pop()
        v, cand = steps[-1][:2]
        clique = sum((1 << cand[w] for w in _bits(found)), 1 << v)
        chosen.append(clique)
        uncovered &= ~clique


def chromatic_number(g: Graph, budget: float = DEFAULT_BUDGET,
                     lower: int = 0,
                     alpha_upper: Optional[int] = None) -> SolveResult:
    """Exact chromatic number: test k-colorability upward from the larger
    of a clique and `lower`, each test a DSATUR-ordered backtracking
    search; the DSATUR coloring is exact once the start reaches its size.

    `lower` must be a proven lower bound on the chromatic number (for
    instance ceil(n / theta)). A value above the true chromatic number
    skips the colorings that would refute it and yields a wrong "exact"
    answer.

    `alpha_upper` must be a proven upper bound on the independence number
    (for instance floor(theta)); a value below it yields a wrong "exact"
    answer as well.

    When `alpha_upper` is given and the DSATUR coloring is not already
    known to be optimal, the independence number is searched first (target
    alpha_upper, at most min(5 s, budget / 4, the budget left), and shared
    with other callers through `independence_number`'s memo). Every color
    class is independent, so an exact alpha raises `lower` to
    ceil(n / alpha) and replaces `alpha_upper`; a timeout leaves both as
    given. Without `alpha_upper` there is no such step: on a graph too
    large for a theta value, an untargeted alpha search costs seconds
    where the coloring search may take milliseconds.

    When n = lower * alpha_upper, every color class of a `lower`-coloring
    is an independent set of exactly alpha_upper vertices, so k = lower is
    decided first as an exact cover of the vertices by such sets, built by
    `_clique_cover` on the complement: a cover is the coloring, and no
    cover refutes k.
    """
    n = g.n
    if n == 0:
        return SolveResult(0, 0, 0, (), "exact", 0.0)
    b = _Budget(budget)
    rows, rank = _by_rank(g)
    # the k = n descent never backtracks, so it completes on any budget
    best_cols = tuple(_k_colorable(rows, rank, n, _Budget(math.inf), ())[1])
    ub = max(best_cols) + 1

    def side_budget():
        # a side search gets at most what is left of the budget
        return min(5.0, budget / 4.0, max(0.0, budget - b.elapsed()))

    if alpha_upper is not None and lower < ub:
        alpha = independence_number(g, side_budget(), target=alpha_upper)
        if alpha.status == "exact":
            lower = max(lower, -(-n // alpha.value))
            alpha_upper = alpha.value
    if lower < ub and alpha_upper and n == lower * alpha_upper:
        verdict, classes = _clique_cover(g.complement().adj, alpha_upper, b)
        if verdict is None:
            return SolveResult(None, lower, ub, best_cols, "timeout",
                               b.elapsed())
        if verdict:
            cols = [0] * n
            for c, s in enumerate(classes):
                for v in _bits(s):
                    cols[v] = c
            return SolveResult(lower, lower, lower, tuple(cols), "exact",
                               b.elapsed())
        lower += 1
    if lower >= ub:
        return SolveResult(ub, ub, ub, best_cols, "exact", b.elapsed())
    # exact clique seed when cheap, the best clique found otherwise
    clique = clique_number(g, side_budget()).witness
    k = max(len(clique), lower)
    while k < ub:
        verdict, cols = _k_colorable(rows, rank, k, b, clique)
        if verdict is None:
            return SolveResult(None, k, ub, best_cols, "timeout", b.elapsed())
        if verdict:
            return SolveResult(k, k, k, tuple(cols), "exact", b.elapsed())
        k += 1
    return SolveResult(ub, ub, ub, best_cols, "exact", b.elapsed())


# -- capacity ---------------------------------------------------------


@dataclass(frozen=True)
class CapacityCertificate:
    theta: float
    alpha: Optional[int]
    capacity: Optional[float]   # set only when determined
    status: str                 # "determined" | "gap" | "timeout"
    alpha_result: SolveResult

    def __post_init__(self):
        if self.status == "determined" and self.capacity is None:
            raise ValueError("determined certificate without a value")


def capacity_certificate(g: Graph, theta: float,
                         budget: float = DEFAULT_BUDGET) -> CapacityCertificate:
    """Sandwich alpha <= capacity <= theta; determined when the two ends
    agree to THETA_TOL (then the capacity equals the common value).

    theta must be a genuine upper bound on the independence number (any
    certified theta value is): the alpha search stops, exact, as soon as
    it finds an independent set of size `alpha_ceiling(theta)`, so a tight
    bound ends the search at its first such witness. The budget bounds
    only the search below that ceiling.
    """
    res = independence_number(g, budget, target=alpha_ceiling(theta))
    if res.status != "exact":
        return CapacityCertificate(float(theta), None, None, "timeout", res)
    alpha = res.value
    if abs(float(theta) - alpha) < THETA_TOL:
        return CapacityCertificate(float(theta), alpha, float(alpha),
                                   "determined", res)
    return CapacityCertificate(float(theta), alpha, None, "gap", res)


def _cycle_order(g: Graph) -> Optional[list]:
    """g's vertices along its cycle from vertex 0 when g is an odd cycle of
    length at least 5 (connected and 2-regular), else None."""
    cycle = g.n >= 5 and g.is_regular() and g.degree() == 2 and g.is_connected()
    if not cycle or g.n % 2 == 0:
        return None
    order = [0, int(g.neighbors(0)[0])]
    while len(order) < g.n:
        a, c = g.neighbors(order[-1]).tolist()
        order.append(c if a == order[-2] else a)
    return order


def capacity_power_lb(g: Graph, k: int, budget: float = DEFAULT_BUDGET):
    """Capacity lower bound w^(1/k) from an independent set of w vertices
    in the power, whose adjacency is refused (ValueError) before any search
    when over the dense byte budget; returns (bound, its SolveResult).

    w is the independence number of the power when the result is exact.
    On a timeout it is the size of the best set known, res.lower: still
    a valid, if weaker, lower bound on the capacity, and res.upper is the
    least ceiling proven.

    The powers G^1, ..., G^k are decided in turn, one rung each, all on
    one deadline. Rung 1 is `independence_number(g,
    target=alpha_ceiling(theta))`, which shares g's alpha memo. Rung j >= 2,
    with H = G^(j-1), runs three steps:
    1. Its first set is the product of H's set and G's: G^j is the
       row-major kron of H and G, so vertex i of H and v of G make vertex
       i*n + v, and the product of independent sets is independent.
    2. When G is an odd cycle C_L (L >= 5) and alpha(H) is exact, the rung
       goes to `slices.search_rung`, which reads L from the cycle and the
       power from the orders of H and G^j, not from the power's factors.
       When the slice bound floor(L alpha(H) / 2) is below the ceiling, its
       slice search lowers the ceiling by refuting targets whose pairs of
       consecutive slices fall short of alpha(H) by at most
       `slices.SLICE_DEFICIT` in total, and its shift floor finds a set
       invariant under the cyclic shift of coordinates. On C7^3 they give
       33 <= alpha <= 33.
    3. The power's own alpha search runs when a gap is left, with the
       least ceiling proven as its target: the slice search's, else
       `alpha_ceiling(theta(G), j)`, else n^j.
    Once the deadline has passed, a rung is its best set and ceiling.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    b = _Budget(budget)
    theta = theta_best(g).value
    powers = [g] + [strong_power(g, j) for j in range(2, k + 1)]
    powers[-1].adj  # no search may run on a power that is refused
    cyc = _cycle_order(g)
    first = res = independence_number(g, b.left(), target=alpha_ceiling(theta))
    for j, (h, pj) in enumerate(zip(powers, powers[1:]), 2):
        ceiling = alpha_ceiling(theta, j) or pj.n
        best = tuple(i * g.n + v for i in res.witness for v in first.witness)
        if cyc and res.status == "exact" and not b.check_now():
            # imported on first use: compiled along with this module, it
            # raised the import-time peak RSS of every command
            from .slices import search_rung
            ceiling, best = search_rung(pj, h, res.value, first.witness, cyc, best, ceiling, b)
        w = len(best)
        if w >= ceiling:
            res = SolveResult(w, w, w, best, "exact", b.elapsed())
        elif b.check_now():
            res = SolveResult(None, w, ceiling, best, "timeout", b.elapsed())
        else:
            res = independence_number(pj, b.left(), target=ceiling)
            if res.status == "timeout" and w > len(res.witness):
                res = replace(res, lower=w, witness=best)
    return len(res.witness) ** (1.0 / k), res
