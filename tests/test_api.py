"""The library's public functions, methods and options are used by the
library.

A public function or method of `src/thetakit` that no code there names
outside its own definition is a second implementation kept alive by tests
alone, unless ALLOWED names it with its reason. Retire such a twin and test
the code path the library runs instead.

Likewise a defaulted parameter of a public function or method that no call
in `src/thetakit` passes, by keyword or by position, is a knob only tests
turn, unless ALLOWED_KNOBS names it with its reason. Make it a constant.
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

# Defaulted parameters that no call in src/ passes, with their reasons
ALLOWED_KNOBS = {
    "spectra.eigenvalues(rtol)": "tests group at 1e-9 and 1e-10; at the default "
                                 "the oracle sweep reads a 3.0e-6 deviation and fails",
    "products.product_spectrum(rtol)": "tests group at 1e-9 and 1e-10, as eigenvalues does",
    "products.power_spectrum(rtol)": "tests group at 1e-9 and 1e-10, as eigenvalues does",
    "theta.theta_exact(tol)": "tests use it to check precision",
    "bounds.BoundReport.holds(tol)": "tests use it to check precision",
    "bounds.BoundReport.is_equality(tol)": "tests use it to check precision",
    "exact.capacity_power_lb(budget)": "callers outside src/ pass it",
    "cli.main(argv)": "callers outside src/ pass it",
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


def _knobs(node, method):
    """(position, name) of the defaulted parameters of a def; the position
    a call passes it at, None for a keyword-only one. A method's calls
    pass no self."""
    a = node.args
    params = a.posonlyargs + a.args
    shift = int(method and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                   for d in node.decorator_list))
    yield from ((i - shift, p.arg) for i, p in enumerate(params)
                if i >= len(params) - len(a.defaults))
    yield from ((None, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d)


def _passes(call, position, name):
    """Whether the call passes the parameter at `position` or by `name`;
    a *args or **kwargs splat passes every one it could."""
    args = call.args
    if any(isinstance(x, ast.Starred) for x in args) and position is not None:
        return True
    if position is not None and position < len(args):
        return True
    return any(k.arg in (name, None) for k in call.keywords)


def _unused_knobs(sources):
    """The defaulted parameters of the public functions and methods of
    `sources` that no call there passes, as "module.function(parameter)"."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    calls = collections.defaultdict(list)
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Call):
                f = n.func
                calls[f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)].append(n)
    return {f"{name}({param})" for mod, tree in trees.items()
            for name, node in _public_defs(mod, tree)
            for position, param in _knobs(node, name.count(".") == 2)
            if not any(_passes(c, position, param) for c in calls[node.name])}


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


def test_every_defaulted_parameter_is_passed_or_allowed():
    knobs = _unused_knobs(_library()) - ALLOWED_KNOBS.keys()
    assert not knobs, f"passed by no call in src/ and not in ALLOWED_KNOBS: {sorted(knobs)}"


def test_every_allowed_knob_is_an_unpassed_parameter():
    stale = ALLOWED_KNOBS.keys() - _unused_knobs(_library())
    assert not stale, f"passed in src/ or gone, drop from ALLOWED_KNOBS: {sorted(stale)}"


def test_the_guard_finds_a_knob():
    # a call passes a parameter by keyword, by position or through a
    # splat; a method's calls pass no self, a static method's first
    # parameter is its first argument, and a keyword-only parameter
    # passes by keyword alone
    sources = {
        "a": "def f(x, y=1, z=2, *, w=3, v=4):\n    return f(x, 2, w=1)\n\n"
             "class C:\n    def m(self, x=1, y=2):\n        return self.m(5)\n"
             "    @staticmethod\n    def s(x=1, y=2):\n        return C.s(7)\n\n"
             "def g(x=1, *, k=2):\n    return 0\n",
        "b": "from .a import g\n\n"
             "def h(x=0, *, k=1):\n    return g(*[x]) + h(**{})\n",
    }
    assert _unused_knobs(sources) == {"a.f(z)", "a.f(v)", "a.C.m(y)", "a.C.s(y)",
                                      "a.g(k)"}
