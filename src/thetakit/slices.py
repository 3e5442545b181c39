"""Independent sets of a strong power of an odd cycle, cut into slices
along its last factor: the slice search that lowers the ceiling on alpha,
and the floor that the cyclic shift of coordinates maps to itself.
`exact.capacity_power_lb` imports this module only for such a power."""

from __future__ import annotations

import itertools
import math
from typing import Optional

import numpy as np

from .exact import (_Budget, _bits, _clique_search, _pack_words, _set_bytes, _words,
                    independence_number)
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

# Bytes of the slice search's working arrays: the batch of first slices
# walked at once, and each chunk of a bit test or of the canonical forms.
SLICE_BYTES = 1 << 16

# 2 has order 66 modulo the prime 67, so 2^0..2^63 leave distinct remainders:
# the lowest set bit b of a word is bit _LOW_BIT[b % 67], found in integer
# arithmetic, with no float conversion
_LOW_BIT = np.zeros(67, dtype=np.intp)
_LOW_BIT[[pow(2, k, 67) for k in range(64)]] = np.arange(64)


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


def _canonical(maps, subs, unit):
    """For each row of the vertex array `subs`, the least of its images
    under the rows of `maps`, as bitsets (`unit` holds one bit per vertex)
    compared as numbers: one representative per orbit when the rows form a
    group."""
    images = np.zeros((len(maps), len(subs), unit.shape[1]), dtype=unit.dtype)
    for col in subs.T:
        images |= unit[maps[:, col]]
    keep = np.ones(images.shape[:2], dtype=bool)
    for w in range(unit.shape[1] - 1, -1, -1):     # the top word first
        col = images[:, :, w]
        keep &= col == np.where(keep, col, np.iinfo(np.uint64).max).min(axis=0)
    return images[np.argmax(keep, axis=0), np.arange(len(subs))]


def _members(words):
    """The set bits of each bitset row of `words`, as (row, bit) arrays in
    row-major order. Only the nonzero bytes of the nonzero words are
    unpacked."""
    width = words.shape[1]
    at = np.flatnonzero(words)
    octets = words.ravel()[at].view(np.uint8)
    byte = np.flatnonzero(octets)
    bit = np.flatnonzero(np.unpackbits(octets[byte], bitorder="little"))
    byte = byte[bit // 8]
    at = at[byte // 8]
    return at // width, at % width * 64 + byte % 8 * 8 + bit % 8


def _sizes(words):
    """The number of set bits in each bitset row of `words`."""
    return np.count_nonzero(np.unpackbits(words.view(np.uint8), axis=1), axis=1)


def _fold(ufunc, table, sets, empty):
    """For each bitset row of `sets`, the ufunc (a bitwise and or or) of the
    rows of `table` at its members, `empty` for the empty set. Each pass
    peels the lowest bit off every word left, in place while every row has
    one."""
    out = np.repeat(empty[None], len(sets), axis=0)
    for w in range(sets.shape[1]):
        rows = np.flatnonzero(sets[:, w])
        x = sets[rows, w]
        while len(rows):
            rest = x & (x - 1)
            part = table[64 * w + _LOW_BIT[(x ^ rest) % 67]]
            if len(rows) < len(out):
                out[rows] = ufunc(out[rows], part)
            else:
                ufunc(out, part, out=out)
            rows, x = rows[rest != 0], rest[rest != 0]
    return out


def _unique_rows(rows):
    """The distinct bitset rows of a uint64 array in numeric order, and each
    row's index among them."""
    order = np.argsort(rows[:, 0]) if rows.shape[1] == 1 else np.lexsort(rows.T)
    rows = rows[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    inv = np.empty(len(rows), dtype=np.intp)
    inv[order] = np.cumsum(new) - 1
    return rows[new], inv


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
    along the cycle. Slices are bitsets of H's vertices, rows of uint64
    words (`_words`). A batch of first slices is walked at once: the i-th
    first is key i, and a layer of the walk is a triple (sets, key, index)
    of its distinct slices and, sorted by key, each key's slices as rows of
    sets. Batches and chunks hold about SLICE_BYTES.
    """

    def __init__(self, h: Graph, alpha: int, maps, cyc, maxsets):
        self.alpha, self.maps, self.cyc = alpha, maps, cyc
        eye = np.eye(h.n, dtype=bool)
        self.unit, self.closed = _pack_words(eye), _pack_words(h.adj | eye)
        self.later = _pack_words(np.triu(~h.adj, 1))    # non-neighbours above each vertex
        self.every_vertex = _pack_words(np.ones((1, h.n), dtype=bool))[0]
        self.maxsets = _words(maxsets, self.unit.shape[1])
        # per vertex, the maximum sets that hold it, transposed 64 sets a word
        self.holding = np.zeros((h.n, -(-len(maxsets) // 64)), dtype="<u8")
        step = 64 * max(1, SLICE_BYTES // (64 * 64 * self.unit.shape[1]))
        for i in range(0, len(maxsets), step):
            held = np.unpackbits(self.maxsets[i:i + step].view(np.uint8), axis=1,
                                 bitorder="little")
            self.holding[:, i // 64:(i + step) // 64] = _pack_words(held[:, :h.n].T)
        self.every_maxset = _pack_words(np.ones((1, len(maxsets)), dtype=bool))[0]
        # a first can step to every maximum set; a fold holds two rows a slice
        self.batch = max(1, SLICE_BYTES // self.maxsets.nbytes)
        self.chunk = max(1, SLICE_BYTES // (2 * self.holding[0].nbytes))
        self.reps, seen = [], set()     # one maximum set per orbit of the maps
        for m in maxsets:
            if m not in seen:
                self.reps.append(list(_bits(m)))
                images = maps[:, self.reps[-1]].tolist()
                seen.update(sum(1 << v for v in row) for row in images)
        self.firsts = {}

    def _near(self, sets):
        """Each slice of `sets` and its neighbours in H."""
        return _fold(np.bitwise_or, self.closed, sets, np.zeros_like(self.every_vertex))

    def _moves(self, sets):
        """The maximum steps from the slices `sets`: how many leave each
        slice S, and end to end, slice by slice, the slices M \\ S they
        reach, one per maximum set M that holds S."""
        count, held = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
        for i in range(0, len(sets), self.chunk):
            part = sets[i:i + self.chunk]
            r, m = _members(_fold(np.bitwise_and, self.holding, part, self.every_maxset))
            count.append(np.bincount(r, minlength=len(part)))
            held.append(m)
        count = np.concatenate(count)
        nxt = self.maxsets[np.concatenate(held)]
        nxt ^= np.repeat(sets, count, axis=0)
        return count, nxt

    def _step(self, layer):
        """The keyed layer one maximum step on from `layer`."""
        sets, key, idx = layer
        count, nxt = self._moves(sets)
        nxt, inv = _unique_rows(nxt)
        width, runs = max(len(nxt), 1), count[idx]      # each entry's moves, end to end
        reached = np.zeros((key.max(initial=-1) + 1) * width, dtype=bool)
        reached[inv[np.repeat(np.cumsum(count)[idx] - np.cumsum(runs), runs)
                    + np.arange(runs.sum())] + np.repeat(key * width, runs)] = True
        code = np.flatnonzero(reached)
        return nxt, code // width, code % width

    def search(self, t, budget: _Budget) -> Optional[tuple]:
        """An independent set of at least t vertices of H ⊠ C_L, in its
        row-major labels (vertex i of H at position p makes i*L + cyc[p]),
        or None when there is none or the budget expired (`budget.expired`
        tells). Needs 0 <= D = L alpha(H) - 2t <= SLICE_DEFICIT. A set
        found as the deadline passes is returned.

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
            firsts = self._firsts(s, budget)
            if firsts is None:
                return None
            for i in range(0, len(firsts), self.batch):
                first = firsts[i:i + self.batch]
                keys = np.arange(len(first))
                near0 = self._near(first)
                layers = self._walk([(first, keys, keys)], L - 1, budget)
                if layers is None:
                    return None
                found = self._close(layers, near0)
                if not found and deficit >= 2:
                    found = self._join(layers, s, near0, budget)
                if found:
                    return tuple(sorted(v * L + self.cyc[p] for p, x in enumerate(found)
                                        for v in _members(x[None])[1].tolist()))
                if budget.expired:
                    return None
        return None

    def _firsts(self, s, budget: _Budget):
        """The s-subsets of maximum sets, one per orbit of the maps, as
        bitset rows in numeric order; None once the budget expired. Each
        orbit meets the subsets of one maximum set from each orbit."""
        if s not in self.firsts:
            rows = max(1, SLICE_BYTES // (self.unit[0].nbytes + 8) // len(self.maps))
            least = [self.unit[:0]]
            for vs in self.reps:
                subs = itertools.combinations(vs, s)
                while chunk := list(itertools.islice(subs, rows)):
                    if budget.check_now():
                        return None
                    chunk = _canonical(self.maps, np.array(chunk, dtype=np.intp), self.unit)
                    least.append(_unique_rows(chunk)[0])
            self.firsts[s] = _unique_rows(np.concatenate(least))[0]
        return self.firsts[s]

    def _walk(self, layers, depth, budget: _Budget):
        """Extend the keyed layers by maximum steps to `depth` + 1 layers;
        None once the budget expired."""
        while len(layers) <= depth:
            if budget.check_now():
                return None
            layers.append(self._step(layers[-1]))
        return layers

    def _trace(self, key, end, layers):
        """A run of maximum pairs [x_0, .., x_j = end] of one key's slices,
        x_i in layers[i]."""
        run = [end]
        for sets, keys, idx in reversed(layers[:-1]):
            _, nxt = self._moves(run[-1][None])
            hit = (nxt[:, None] == sets[idx[keys == key]][None]).all(axis=2).any(axis=1)
            run.append(nxt[np.argmax(hit)])
        return run[::-1]

    def _close(self, layers, near0):
        """The slices when a run of L - 1 maximum pairs from a first S_0
        ends at a slice S_{L-1} disjoint from S_0 and jointly independent
        with it, or None; `near0` holds each first's closed neighbourhood."""
        sets, key, idx = layers[-1]
        hit = np.flatnonzero(~(sets[idx] & near0[key]).any(axis=1))
        return self._trace(key[hit[0]], sets[idx[hit[0]]], layers) if len(hit) else None

    def _join(self, layers, s, near0, budget: _Budget):
        """The slices of two pairs short by 1, (S_m, S_{m+1}) and
        (S_{L-1}, S_0), with runs of m >= r = L - 2 - m maximum pairs
        between them, or None. S_{L-1} is an independent set of
        a = alpha - 1 - s vertices clear of S_0's neighbourhood (a maximum
        step leaves it only when a maximum set holds it), and the walk back
        from it meets the walk forward from S_0 in the middle."""
        L, alpha = len(self.cyc), self.alpha
        a = alpha - 1 - s
        if a < 0:
            return None
        back = [self._independent_sets(self.every_vertex ^ near0, a, budget)]
        for m in range(L - 2 - (L - 2) // 2, L - 1):
            r = L - 2 - m
            size_m = s if m % 2 == 0 else alpha - s
            size_r = a if r % 2 == 0 else alpha - a
            if size_m + size_r != alpha - 1:
                continue
            if back[0] is None or self._walk(back, r, budget) is None:
                return None
            hit = self._meet(layers[m], back[r], budget)
            if hit:
                key, f, b = hit
                tail = self._trace(key, b, back[:r + 1])[::-1]
                return self._trace(key, f, layers[:m + 1]) + tail
        return None

    def _independent_sets(self, cand, a, budget: _Budget):
        """For each key, every independent a-set of H within its row of the
        vertex bitsets `cand`, each grown by vertices above its own, as a
        keyed layer; None once the budget expired. The partial sets are
        grown depth first, a chunk of about SLICE_BYTES of children at a time."""
        limit = SLICE_BYTES // (3 * cand[0].nbytes)         # children a chunk
        ends, stack = [], [(a, np.arange(len(cand)), np.zeros_like(cand), cand)]
        while stack:
            if budget.check_now():
                return None
            left, key, sets, cand = stack.pop()
            if left == 0:
                ends.append((key, sets))
                continue
            rows = max(1, int((np.cumsum(_sizes(cand)) <= limit).sum()))
            if len(key) > rows:     # the rest wait on the stack
                stack.append((left, key[rows:], sets[rows:], cand[rows:]))
                key, sets, cand = key[:rows], sets[:rows], cand[:rows]
            r, v = _members(cand)
            cand = cand[r] & self.later[v]
            keep = _sizes(cand) >= left - 1
            stack.append((left - 1, key[r][keep], (sets[r] | self.unit[v])[keep], cand[keep]))
        # depth first, a piece's earlier rows finish before its later ones:
        # the ends come in key order
        key, sets = (np.concatenate(x) for x in zip(*ends))
        sets, idx = _unique_rows(sets)
        return sets, key, idx

    def _meet(self, front, back, budget: _Budget):
        """A triple (key, f, b), f a slice of the key in the keyed layer
        `front` and b one in `back`, disjoint and jointly independent, or
        None. The bit test runs per key, in chunks of SLICE_BYTES."""
        fsets, fkey, fidx = front
        bsets, bkey, bidx = back
        near = self._near(fsets)
        keys = fkey.max(initial=-1) + 1
        fcut = np.concatenate(([0], np.cumsum(np.bincount(fkey, minlength=keys))))
        bcut = np.concatenate(([0], np.cumsum(np.bincount(bkey, minlength=keys)[:keys])))
        for k in range(keys):
            f, b = fidx[fcut[k]:fcut[k + 1]], bsets[bidx[bcut[k]:bcut[k + 1]]]
            rows = max(1, SLICE_BYTES // max(b.nbytes, 1))
            for i in range(0, len(f) if len(b) else 0, rows):
                if budget.check_now():
                    return None
                hit = np.argwhere(~(near[f[i:i + rows], None] & b[None]).any(axis=2))
                if len(hit):
                    return k, fsets[f[i + hit[0][0]]], b[hit[0][1]]
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
    while search and t <= ceiling and not budget.expired:
        hit = search.search(t, budget)
        if hit:     # kept when found as the deadline passes
            found, t = hit, len(hit) + 1
        elif not budget.expired:
            ceiling = t - 1
            break
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
