"""The library's public functions and methods are used by the library.

A public function or method of `src/thetakit` that no code there names
outside its own definition is a second implementation kept alive by tests
alone, unless ALLOWED names it with its reason. Retire such a twin and test
the code path the library runs instead.
"""

import ast
import collections
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "thetakit"

# Public functions and methods that nothing in src/ calls, with their reasons
ALLOWED = {
    # paper statements that tests check
    "bounds.eig_inequality_cor0": "the spectral inequality tying lmin and l2",
    "bounds.self_complementary_eig_bounds": "l2 and lmin of a self-complementary graph",
    "bounds.haemers_clique_upper_maxdeg": "the clique bound for an arbitrary graph",
    "bounds.BoundReport.is_equality": "equality in a bound, as the paper states it",
    "bounds.GSequence.distinct_count": "the g-sequence's 2 or 3 values on an SRG",
    "bounds.GSequence.tail_groups": "the g-sequence past its first value",
    "graphs.self_complementary_extend": "the self-complementary construction",
    "theta.theta_kneser": "the closed form for Kneser graphs",
    # library API
    "catalog.load_fixture": "loads a bundled fixture by name",
    "exact.capacity_power_lb": "capacity lower bounds from strong powers",
    "graphs.Graph.has_edge": "graph query",
    "graphs.Graph.relabel": "graph construction",
    "io.write_edge_list": "writes the format that io reads",
    "io.write_graph6": "writes the format that io reads",
    "products.product_spectrum": "spectrum of a product of distinct factors",
}


def _public_defs(mod, tree):
    """(qualified name, node) of the module-level functions and the methods
    of the module-level classes whose names do not start with '_'."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield f"{mod}.{node.name}", node
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for m in node.body:
                if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"):
                    yield f"{mod}.{node.name}.{m.name}", m


def _names(node):
    """How often each identifier is read as a name or an attribute in node."""
    return collections.Counter(
        n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)))


def _unused(sources):
    """The public functions and methods of `sources` (module name -> source
    text) that no code there names outside their own definitions."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    everywhere = sum((_names(t) for t in trees.values()), collections.Counter())
    return {name for mod, tree in trees.items()
            for name, node in _public_defs(mod, tree)
            if everywhere[node.name] == _names(node)[node.name]}


def _library():
    return {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}


def test_every_public_function_is_used_or_allowed():
    twins = _unused(_library()) - ALLOWED.keys()
    assert not twins, f"used by no code in src/ and not in ALLOWED: {sorted(twins)}"


def test_every_allowed_name_is_an_unused_public_function():
    stale = ALLOWED.keys() - _unused(_library())
    assert not stale, f"used in src/ or gone, drop from ALLOWED: {sorted(stale)}"


def test_the_guard_finds_a_twin():
    # a call from within its own body does not count; methods count as functions do
    sources = {
        "a": "def used():\n    return 1\n\n"
             "def twin(x):\n    return twin(x - 1) if x else used()\n\n"
             "class C:\n    def method(self):\n        return self.method()\n"
             "    def read(self):\n        return 2\n",
        "b": "from .a import C, used\n\n"
             "def caller():\n    return used() + C().read()\n\n"
             "def _private():\n    return 3\n",
    }
    assert _unused(sources) == {"a.twin", "a.C.method", "b.caller"}
