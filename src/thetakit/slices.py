"""Independent sets of a strong power of an odd cycle, cut into slices
along its last factor: the slice search that lowers the ceiling on alpha,
and the floor that the cyclic shift of coordinates maps to itself.
`exact.capacity_power_lb` imports this module only for such a power."""

from __future__ import annotations

import itertools
import math
from typing import Optional

import numpy as np

from .exact import _Budget, _bits, _clique_search, _pack, _set_bytes, independence_number
from .graphs import Graph, within_budget

# G^k is the row-major kron of H = G^(k-1) and G, so for G = C_L a set of
# vertices of G^k cuts into L slices S_0..S_{L-1} of H, one per position
# along the cycle. The set is independent exactly when each S_j is
# independent in H and each cyclic pair S_j, S_{j+1} is disjoint and
# jointly independent, so |S_j| + |S_{j+1}| <= alpha(H) and
# alpha(G^k) <= floor(L alpha(H) / 2) (Rosenfeld 1967; Hales 1973). A set
# of t vertices leaves its L pairs short of alpha(H) by D = L alpha(H) - 2t
# in total.

# The largest total deficit D the slice search refutes. Up to 2 the short
# pairs are one pair short by D, closed by one walk of maximum pairs, or two
# pairs short by 1, joined by one meet in the middle; a third short pair
# would split the maximum pairs into three runs, which neither join covers.
SLICE_DEFICIT = 2

# Cells, 8 bytes each, of one chunk of the meet-in-the-middle bit test.
MEET_CHUNK_CELLS = 1 << 15


def _cycle_power_maps(cyc, m):
    """Automorphisms of C_L^m (m >= 1) in the labels of its row-major kron,
    one per row: a rotation or reflection of each coordinate's cycle, then a
    permutation of the coordinates. These (2L)^m m! maps form the group
    D_L wr S_m. None when their table exceeds the dense budget."""
    L = len(cyc)
    count = (2 * L) ** m * math.factorial(m)
    if not within_budget(8 * count * L ** m):
        return None
    pos = np.empty(L, dtype=np.int64)
    pos[cyc] = np.arange(L)
    turns = [np.asarray(cyc)[(sign * pos + c) % L] for c in range(L) for sign in (1, -1)]
    digits = np.indices((L,) * m).reshape(m, -1)    # each vertex's coordinates
    return np.array([sum(turn[i][digits[i]] * L ** (m - 1 - order[i]) for i in range(m))
                     for order in itertools.permutations(range(m))
                     for turn in itertools.product(turns, repeat=m)])


def _canonical(maps, vs):
    """The lexicographically least of the sorted images of the vertex list
    `vs` under the rows of `maps`: one representative per orbit when the
    rows form a group."""
    rows = np.sort(maps[:, vs], axis=1)
    for c in range(len(vs)):
        rows = rows[rows[:, c] == rows[:, c].min()]
    return tuple(rows[0].tolist())


def _words(sets, width):
    """Bitsets as the rows of a uint64 array, `width` little-endian words each."""
    buf = b"".join(x.to_bytes(8 * width, "little") for x in sets)
    return np.frombuffer(buf, dtype="<u8").reshape(len(sets), width)


def _maximum_sets(h: Graph, alpha: int, budget: _Budget) -> Optional[list]:
    """H's independent sets of `alpha` vertices, its independence number, as
    bitsets, or None when listing them runs out of budget or of bytes."""
    _, found = _clique_search(h.complement().adj, budget, alpha, alpha)
    maxsets = []
    for m in found:
        maxsets.append(m)
        if not within_budget(len(maxsets) * _set_bytes(h.n)):
            return None
    return None if budget.expired else maxsets


class _Slices:
    """The slice search on H ⊠ C_L, over H's maximum independent sets.

    A maximum pair S_j, S_{j+1} is a maximum independent set M of H cut in
    two, so the slices that follow S in a run of maximum pairs are M \\ S
    for each M ⊇ S; the step is symmetric. `maps` holds automorphisms of H,
    one per row, closed under composition; `cyc` lists C_L's vertices
    along the cycle. Slices are bitsets of H's vertices.
    """

    def __init__(self, h: Graph, alpha: int, maps, cyc, maxsets):
        self.alpha, self.maps, self.cyc = alpha, maps, cyc
        self.closed = [row | 1 << v for v, row in enumerate(_pack(h.adj))]
        # bitsets of maximum-set indices, keyed by bits so that a step reads
        # no bit index: all of them, and per vertex those that hold it
        self.every = (1 << len(maxsets)) - 1
        self.maxset = {1 << i: m for i, m in enumerate(maxsets)}
        self.holding = dict.fromkeys((1 << v for v in range(h.n)), 0)
        for i, m in enumerate(maxsets):
            for v in _bits(m):
                self.holding[1 << v] |= 1 << i
        self.reps, seen = [], set()     # one maximum set per orbit of the maps
        for m in maxsets:
            if m not in seen:
                self.reps.append(list(_bits(m)))
                images = maps[:, self.reps[-1]].tolist()
                seen.update(sum(1 << v for v in row) for row in images)
        self.firsts = {}

    def _held(self, s):
        """The maximum sets that hold the slice s, as a bitset of indices."""
        out = self.every
        while s:
            low = s & -s
            out &= self.holding[low]
            s ^= low
        return out

    def _steps(self, s):
        """The slices that make a maximum pair with the slice s."""
        held, out = self._held(s), []
        while held:
            low = held & -held
            out.append(self.maxset[low] ^ s)
            held ^= low
        return out

    def _near(self, s):
        """The slice s and its neighbours in H."""
        out = 0
        for v in _bits(s):
            out |= self.closed[v]
        return out

    def search(self, t, budget: _Budget) -> Optional[tuple]:
        """An independent set of at least t vertices of H ⊠ C_L, in its
        row-major labels (vertex i of H at position p makes i*L + cyc[p]),
        or None when there is none or the budget expired (`budget.expired`
        tells). Needs 0 <= D = L alpha(H) - 2t <= SLICE_DEFICIT.

        The cycle is rotated so that (S_{L-1}, S_0) is a short pair (any
        pair when none is) and (S_0, S_1) a maximum one, and S_0 is taken up
        to the maps. So S_0 is an s-subset of a maximum set with
        alpha - 2s <= D, and the slices from S_0 on follow by runs of
        maximum pairs: one run to S_{L-1} (`_close`), or with two pairs
        short by 1, a run from S_0 and a shorter one to S_{L-1} (`_join`).
        """
        L, alpha = len(self.cyc), self.alpha
        deficit = L * alpha - 2 * t
        for s in range((alpha - deficit + 1) // 2, alpha // 2 + 1):
            for s0 in self._firsts(s, budget):
                near0 = self._near(s0)
                layers = [{s0}]
                found = None
                if self._walk(layers, L - 1, budget):
                    found = self._close(layers, near0)
                    if not found and deficit >= 2:
                        found = self._join(layers, s, near0, budget)
                if budget.expired:
                    return None
                if found:
                    return tuple(sorted(i * L + self.cyc[p]
                                        for p, x in enumerate(found) for i in _bits(x)))
        return None

    def _firsts(self, s, budget: _Budget):
        """The s-subsets of maximum sets, one per orbit of the maps: each
        orbit meets the subsets of one maximum set from each orbit."""
        if s not in self.firsts:
            found = set()
            for vs in self.reps:
                for sub in itertools.combinations(vs, s):
                    if budget.check():
                        return []
                    found.add(_canonical(self.maps, list(sub)))
            self.firsts[s] = [sum(1 << v for v in vs) for vs in sorted(found)]
        return self.firsts[s]

    def _walk(self, layers, depth, budget: _Budget) -> bool:
        """Extend the reach sets `layers` by maximum steps to `depth` + 1
        layers; False when the budget expired."""
        while len(layers) <= depth:
            nxt = set()
            for x in layers[-1]:
                if budget.check():
                    return False
                nxt.update(self._steps(x))
            layers.append(nxt)
        return True

    def _trace(self, end, layers):
        """A run of maximum pairs [x_0, .., x_j = end], x_i in layers[i]."""
        run = [end]
        for layer in reversed(layers[:-1]):
            run.append(next(x for x in self._steps(run[-1]) if x in layer))
        return run[::-1]

    def _close(self, layers, near0):
        """The slices when the run of L - 1 maximum pairs from S_0 ends at a
        slice S_{L-1} disjoint from S_0 and jointly independent with it, or
        None."""
        for x in layers[-1]:
            if not x & near0:
                return self._trace(x, layers)
        return None

    def _join(self, layers, s, near0, budget: _Budget):
        """The slices of two pairs short by 1, (S_m, S_{m+1}) and
        (S_{L-1}, S_0), with runs of m >= r = L - 2 - m maximum pairs
        between them, or None. S_{L-1} is an independent set of
        a = alpha - 1 - s vertices clear of S_0's neighbourhood, in a
        maximum set when r >= 1, and the walk back from it meets the walk
        forward from S_0 in the middle."""
        L, alpha = len(self.cyc), self.alpha
        a = alpha - 1 - s
        if a < 0:
            return None
        ends = self._independent_sets(((1 << len(self.closed)) - 1) & ~near0, a, budget)
        back = [{x for x in ends if self._held(x)}]
        for m in range(L - 2 - (L - 2) // 2, L - 1):
            r = L - 2 - m
            size_m = s if m % 2 == 0 else alpha - s
            size_r = a if r % 2 == 0 else alpha - a
            if size_m + size_r != alpha - 1:
                continue
            if budget.expired or not self._walk(back, r, budget):
                return None
            hit = self._meet(layers[m], ends if r == 0 else back[r], budget)
            if hit:
                f, b = hit
                tail = [b] if r == 0 else self._trace(b, back[:r + 1])[::-1]
                return self._trace(f, layers[:m + 1]) + tail
        return None

    def _independent_sets(self, cand, a, budget: _Budget):
        """Every independent a-set of H within the vertex bitset cand, each
        grown by vertices above its own; incomplete once the budget expired."""
        if a == 0:
            return [0]
        out = []
        while cand.bit_count() >= a and not budget.check():
            low = cand & -cand
            cand ^= low
            rest = cand & ~self.closed[low.bit_length() - 1]
            out += [x | low for x in self._independent_sets(rest, a - 1, budget)]
        return out

    def _meet(self, front, back, budget: _Budget):
        """A pair (f, b), f in front and b in back, that is disjoint and
        jointly independent, or None. The bit test runs in chunks of at
        most MEET_CHUNK_CELLS words."""
        if not front or not back:
            return None
        front, back = list(front), list(back)
        width = (len(self.closed) + 63) // 64
        bw = _words(back, width)
        rows = max(1, MEET_CHUNK_CELLS // (len(back) * width))
        for i in range(0, len(front), rows):
            if budget.check():
                return None
            chunk = front[i:i + rows]
            nw = _words([self._near(f) for f in chunk], width)
            hits = np.argwhere(((nw[:, None, :] & bw[None, :, :]) == 0).all(axis=2))
            if len(hits):
                return chunk[hits[0][0]], back[hits[0][1]]
        return None


def search_rung(pk: Graph, h: Graph, alpha_h: int, base, cyc, best, ceiling: int,
                budget: _Budget):
    """The rung pk = C_L^k of `exact.capacity_power_lb`, cyc listing C_L's
    vertices along the cycle: H = C_L^(k-1) with alpha(H) = alpha_h exact,
    `base` a maximum independent set of C_L, and `best`, `ceiling` the
    rung's set and ceiling so far. Returns them tightened, (ceiling, best).

    L and k are read from cyc and the orders of H and pk, never from a
    power's factors. When the slice bound floor(L alpha_h / 2) is below the
    ceiling, it becomes the ceiling, lowered by each target the slice
    search refutes. Targets run up from the least with deficit at most
    SLICE_DEFICIT, each above the last set found, so a found set that meets
    the ceiling is maximum. The shift floor runs when a gap is left."""
    L = len(cyc)
    if L * alpha_h // 2 >= ceiling:
        return ceiling, best
    k = round(math.log(pk.n, L))
    ceiling = L * alpha_h // 2
    # the maps only once the maximum sets are listed: 16464 of them on
    # C7^3 take 0.3 s and 45 MB, and listing its 33-sets outlasts a 5 s budget
    maxsets = _maximum_sets(h, alpha_h, budget)
    maps = None if maxsets is None else _cycle_power_maps(cyc, k - 1)
    search = None if maps is None else _Slices(h, alpha_h, maps, cyc, maxsets)
    found, t = (), (L * alpha_h - SLICE_DEFICIT + 1) // 2
    while search and t <= ceiling:
        hit = search.search(t, budget)
        if budget.expired:
            break
        if not hit:
            ceiling = t - 1
            break
        found, t = hit, len(hit) + 1
    best = max(best, found, key=len)
    if len(best) < ceiling and not budget.expired:
        diag = [w * (pk.n - 1) // (L - 1) for w in base]    # the constant tuples
        best = max(best, _shift_floor(pk, diag, L, k, ceiling, budget), key=len)
    if pk.adj[np.ix_(best, best)].any():
        raise RuntimeError("the rung's set is not independent")
    return ceiling, best


def _shift_floor(pk: Graph, diag, n: int, k: int, ceiling: int, budget: _Budget) -> tuple:
    """An independent set of pk = G^k, G of n vertices, that the cyclic
    shift of coordinates maps to itself (Mathew & Östergård 2017): the
    independent set `diag` of constant tuples, and the most shift orbits of
    k vertices that are independent, clear of diag's neighbourhood and
    pairwise non-adjacent, found by the alpha search on their orbit graph
    with target floor((ceiling - |diag|) / k)."""
    size = pk.n
    v = np.arange(size)
    shift = v % (size // n) * n + v // (size // n)
    orbits = [v]
    for _ in range(k - 1):
        orbits.append(shift[orbits[-1]])
    orbits = np.stack(orbits, axis=1)
    ordered = np.sort(orbits, axis=1)
    orbits = orbits[(ordered[:, 0] == v) & (np.diff(ordered, axis=1) > 0).all(axis=1)]
    adj, flat = pk.adj, orbits.ravel()
    clash = adj[np.ix_(flat, diag)].any(axis=1) | np.isin(flat, diag)
    inner = adj[orbits[:, :, None], orbits[:, None, :]].any(axis=(1, 2))
    orbits = orbits[~inner & ~clash.reshape(-1, k).any(axis=1)]
    target = (ceiling - len(diag)) // k
    if target < 1 or not len(orbits):
        return tuple(diag)
    flat, m = orbits.ravel(), len(orbits)
    quotient = adj[np.ix_(flat, flat)].reshape(m, k, m, k).any(axis=(1, 3))
    res = independence_number(Graph._derived(quotient), budget.left(), target=target)
    return tuple(sorted(list(diag) + orbits[list(res.witness)].ravel().tolist()))
