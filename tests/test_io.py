"""graph6 and edge-list serialization, cross-checked against networkx."""

import tracemalloc
from importlib import resources

import networkx as nx
import numpy as np
import pytest

from thetakit.catalog import fixture_names, load_fixture
from thetakit.graphs import BUILD_CELL_BYTES, Graph, complete, cycle, empty, petersen
from thetakit.io import (
    _encode_n,
    from_graph6,
    read_edge_list,
    read_graph6,
    to_graph6,
    write_edge_list,
    write_graph6,
)


def _random_graph(n, p, seed):
    rng = np.random.default_rng(seed)
    a = rng.random((n, n)) < p
    a = np.triu(a, 1)
    a = a | a.T
    return Graph(a)


def test_round_trip_battery():
    graphs = [empty(0), empty(1), complete(2), cycle(5), petersen(),
              complete(62), complete(63), _random_graph(63, 0.4, 1)]
    for seed in range(10):
        graphs.append(_random_graph(5 + 7 * seed, 0.3, seed))
    for g in graphs:
        h = from_graph6(to_graph6(g))
        assert h.n == g.n
        assert np.array_equal(h.adj, g.adj)


def test_matches_networkx_encoding():
    # byte-for-byte agreement with the reference encoder on both header forms
    for g in [cycle(5), petersen(), _random_graph(30, 0.3, 3),
              _random_graph(70, 0.2, 4)]:
        ng = nx.from_numpy_array(g.adj.astype(int))
        want = nx.to_graph6_bytes(ng, header=False).decode().strip()
        assert to_graph6(g) == want
        back = from_graph6(want)
        assert np.array_equal(back.adj, g.adj)


def test_optional_header_accepted():
    s = ">>graph6<<" + to_graph6(cycle(4))
    assert from_graph6(s).n == 4


def test_bad_input_rejected():
    with pytest.raises(ValueError):
        from_graph6("")
    with pytest.raises(ValueError, match="too short"):
        from_graph6("D")          # n=5 needs body bytes
    # bytes below and above 63..126 that str.strip() does not remove
    for bad in ("D!!", "D\x7f\x7f"):
        with pytest.raises(ValueError, match="invalid graph6 byte"):
            from_graph6(bad)
    for truncated in ("~??", "~~???"):    # 4- and 8-byte size headers
        with pytest.raises(ValueError, match="truncated"):
            from_graph6(truncated)
    # size bytes outside 63..126, in the 1-, 4- and 8-byte forms
    for bad in ("!", "~!!!", "~~!!!!!!"):
        with pytest.raises(ValueError, match="invalid graph6 byte"):
            from_graph6(bad)


def test_huge_size_header_raises_before_allocating():
    header = _encode_n(10 ** 6).decode()   # the 8-byte form
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="too short"):
            from_graph6(header)   # n = 10^6 and no body
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _peak(fn):
    tracemalloc.start()
    try:
        out = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def test_encode_peak_has_no_index_arrays():
    # a bool mask and the bits: 1.5 n^2 bytes (np.tril_indices read 9 n^2)
    n = 1000
    g = _random_graph(n, 0.5, 5)
    _, peak = _peak(lambda: to_graph6(g))
    assert peak < 2 * n * n


def test_decode_peak_within_the_construction_estimate():
    # the adjacency and the body's bits, 1.7 n^2 bytes here: no triangle
    # mask, no mirror copy and no checking copy in Graph()
    n = 1000
    g = _random_graph(n, 0.5, 6)
    text = to_graph6(g)
    h, peak = _peak(lambda: from_graph6(text))
    assert h == g
    assert peak < 2 * n * n < BUILD_CELL_BYTES * n * n


def test_fixtures_decode_as_networkx_does():
    for name in fixture_names():
        text = (resources.files("thetakit") / "fixtures" / f"{name}.g6").read_text()
        g = from_graph6(text)
        want = nx.to_numpy_array(nx.from_graph6_bytes(text.strip().encode()),
                                 nodelist=range(g.n), dtype=bool)
        assert np.array_equal(g.adj, want), name
        assert not g.adj.flags.writeable


def test_fixtures_reencode_byte_for_byte():
    names = fixture_names()
    assert names
    for name in names:
        text = (resources.files("thetakit") / "fixtures" / f"{name}.g6").read_text()
        assert to_graph6(load_fixture(name)) == text.strip()


def test_file_round_trip(tmp_path):
    g = petersen()
    p6 = tmp_path / "g.g6"
    write_graph6(g, p6)
    h = read_graph6(p6)
    assert np.array_equal(h.adj, g.adj)

    pe = tmp_path / "g.edges"
    write_edge_list(g, pe)
    h2 = read_edge_list(pe)
    assert np.array_equal(h2.adj, g.adj)


def test_read_graph6_skips_blank_lines(tmp_path):
    p = tmp_path / "x.g6"
    p.write_text("\n\n" + to_graph6(cycle(6)) + "\n")
    assert read_graph6(p).n == 6


def test_edge_list_preserves_isolated_vertices(tmp_path):
    g = Graph.from_edge_list(5, [(0, 1)])
    p = tmp_path / "g.edges"
    write_edge_list(g, p)
    assert read_edge_list(p).n == 5


@pytest.mark.parametrize("text, line, reason", [
    ("3\n0 1\n1 2 3\n", 3, "expected 'u v', got '1 2 3'"),
    ("3\n\n0 x\n", 3, "expected 'u v', got '0 x'"),
    ("-1\n", 1, "negative order -1"),
    ("3 4\n", 1, "expected 'n', got '3 4'"),
    ("3\n0 3\n", 2, "edge (0,3) out of range for n=3"),
    ("3\n2 2\n", 2, "self-loop at 2"),
], ids=["three-values", "not-an-int", "negative-order", "two-orders",
        "out-of-range", "self-loop"])
def test_edge_list_errors_name_the_file_and_the_line(tmp_path, text, line, reason):
    p = tmp_path / "bad.edges"
    p.write_text(text)
    with pytest.raises(ValueError) as err:
        read_edge_list(p)
    assert str(err.value) == f"{p}, line {line}: {reason}"


@pytest.mark.parametrize("text, line, reason", [
    ("I?h]Y\n", 1, "graph6 body too short"),
    ("D!!\n", 1, "invalid graph6 byte"),
    ("~??\n", 1, "truncated graph6 size"),
    ("\n  \nI?h]Y\n", 3, "graph6 body too short"),
], ids=["short-body", "bad-byte", "truncated-size", "after-blank-lines"])
def test_graph6_errors_name_the_file_and_the_line(tmp_path, text, line, reason):
    p = tmp_path / "bad.g6"
    p.write_text(text)
    with pytest.raises(ValueError) as err:
        read_graph6(p)
    assert str(err.value) == f"{p}, line {line}: {reason}"


def test_empty_files_hold_no_graph(tmp_path):
    p = tmp_path / "blank"
    p.write_text("\n  \n")
    for read, message in [(read_edge_list, f"empty edge list file {p}"),
                          (read_graph6, f"no graph in {p}")]:
        with pytest.raises(ValueError) as err:
            read(p)
        assert str(err.value) == message


def test_from_edge_list_refuses_bad_edges():
    with pytest.raises(ValueError, match=r"^edge \(1,-1\) out of range for n=3$"):
        Graph.from_edge_list(3, [(0, 1), (1, -1)])
    with pytest.raises(ValueError, match=r"^edge \(3,0\) out of range for n=3$"):
        Graph.from_edge_list(3, [(3, 0)])
    with pytest.raises(ValueError, match="^self-loop at 0$"):
        Graph.from_edge_list(3, [(0, 0)])
