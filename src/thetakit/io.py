"""graph6 and plain edge-list serialization."""

from __future__ import annotations

import numpy as np

from .graphs import Graph, _adjacency

_HEADER = ">>graph6<<"


def _encode_n(n: int) -> bytes:
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    if n <= 68719476735:
        return bytes([126, 126] + [((n >> s) & 63) + 63 for s in range(30, -6, -6)])
    raise ValueError("n too large for graph6")


def _decode_n(data: bytes) -> tuple[int, int]:
    """Return (n, bytes consumed)."""
    if not data:
        raise ValueError("empty graph6 string")
    if data[0] != 126:
        start, used = 0, 1
    elif len(data) >= 2 and data[1] != 126:
        start, used = 1, 4
    else:
        start, used = 2, 8
    if len(data) < used:
        raise ValueError("truncated graph6 size")
    n = 0
    for b in data[start:used]:
        if not 63 <= b <= 126:
            raise ValueError("invalid graph6 byte")
        n = (n << 6) | (b - 63)
    return n, used


def to_graph6(g: Graph) -> str:
    """Encode in graph6: size prefix then the upper triangle, column by
    column (the lower triangle row by row), packed 6 bits per byte."""
    bits = g.adj[np.tri(g.n, k=-1, dtype=bool)]
    bits = np.concatenate([bits, np.zeros(-bits.size % 6, dtype=bool)])
    body = (np.packbits(bits.reshape(-1, 6), axis=1).ravel() >> 2) + 63
    return (_encode_n(g.n) + body.tobytes()).decode("ascii")


def from_graph6(text: str) -> Graph:
    """Decode one graph6 string (optional ">>graph6<<" header); bytes past
    the body are ignored. Raises ValueError on a short body or a byte
    outside 63..126, and when the graph exceeds the dense budget, before
    allocating the adjacency."""
    s = text.strip()
    if s.startswith(_HEADER):
        s = s[len(_HEADER):]
    data = s.encode("ascii")
    n, used = _decode_n(data)
    m = n * (n - 1) // 2
    need = (m + 5) // 6
    if len(data) - used < need:
        raise ValueError("graph6 body too short")
    body = np.frombuffer(data, dtype=np.uint8, count=need, offset=used)
    if ((body < 63) | (body > 126)).any():
        raise ValueError("invalid graph6 byte")
    a = _adjacency(n)
    # six bits a byte: shifted to the top of the byte, its first six
    bits = np.unpackbits(((body - 63) << 2)[:, None], axis=1, count=6).ravel()
    # column j of the upper triangle is row j of the lower one
    start = 0
    for j in range(1, n):
        a[j, :j] = a[:j, j] = bits[start:start + j]
        start += j
    return Graph._derived(a)


def write_graph6(g: Graph, path) -> None:
    with open(path, "w") as fh:
        fh.write(to_graph6(g) + "\n")


def read_graph6(path) -> Graph:
    """Read the first graph from a graph6 file. The ValueError of a bad
    graph names the path and the line."""
    with open(path) as fh:
        for at, line in enumerate(fh, 1):
            if line.strip():
                break
        else:
            raise ValueError(f"no graph in {path}")
    try:
        return from_graph6(line)
    except ValueError as exc:
        raise ValueError(f"{path}, line {at}: {exc}") from None


def write_edge_list(g: Graph, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"{g.n}\n")
        for u, v in g.edges():
            fh.write(f"{u} {v}\n")


def _ints(fields, form):
    """The integers of a line's fields, which must match `form`, "n" or
    "u v"; ValueError otherwise."""
    try:
        if len(fields) == len(form.split()):
            return [int(x) for x in fields]
    except ValueError:
        pass
    raise ValueError(f"expected {form!r}, got {' '.join(fields)!r}")


def read_edge_list(path) -> Graph:
    """Read "n" on the first line then one "u v" pair per line, 0-indexed.
    The ValueError of a bad line names the path and the line."""
    with open(path) as fh:
        lines = [(at, ln.split()) for at, ln in enumerate(fh, 1) if ln.strip()]
    if not lines:
        raise ValueError(f"empty edge list file {path}")
    line, fields = lines[0]

    def edges():
        nonlocal line
        for line, pair in lines[1:]:
            yield _ints(pair, "u v")

    try:
        [n] = _ints(fields, "n")
        if n < 0:
            raise ValueError(f"negative order {n}")
        return Graph.from_edge_list(n, edges())
    except ValueError as exc:
        raise ValueError(f"{path}, line {line}: {exc}") from None
