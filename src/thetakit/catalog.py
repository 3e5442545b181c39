"""Named-graph catalog: generator registry, bundled fixture loading, and
published reference values used by the test suite and CLI.

Generator specs use the mini-grammar ``name[:arg[:arg]]``; fixtures are
graph6 files bundled with the package, described by ``fixtures/manifest.json``
(written by scripts/make_fixtures.py, which rebuilds and re-certifies them
from classical constructions).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from typing import Callable, Optional

from . import graphs as G
from .graphs import Graph
from .io import from_graph6


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    kind: str                       # "generator" | "fixture" | "params"
    description: str
    example: str = ""
    order: Optional[int] = None
    srg: Optional[tuple] = None     # (n, d, lam, mu) when strongly regular
    flags: dict = field(default_factory=dict)
    expected: dict = field(default_factory=dict)
    source: str = ""


# name -> (generator, example spec, description); `load` passes ints
_GENERATORS: dict = {
    "complete": (G.complete, "complete:5", "complete graph"),
    "empty": (G.empty, "empty:4", "edgeless graph"),
    "cycle": (G.cycle, "cycle:7", "cycle graph"),
    "path": (G.path, "path:6", "path graph"),
    "complete_bipartite": (G.complete_bipartite, "complete_bipartite:3:4",
                           "complete bipartite graph"),
    "kneser": (G.kneser, "kneser:7:3",
               "disjointness graph on r-subsets of an m-set"),
    "petersen": (G.petersen, "petersen", "Kneser graph on 2-subsets of a 5-set"),
    "paley": (G.paley, "paley:13",
              "quadratic-residue graph on Z_q (prime q = 1 mod 4)"),
    "shrikhande": (G.shrikhande, "shrikhande",
                   "16-vertex Cayley graph on Z4 x Z4"),
    "hypercube": (G.hypercube, "hypercube:4", "k-dimensional hypercube skeleton"),
    "frucht": (G.frucht, "frucht",
               "cubic 12-vertex graph with trivial symmetry group"),
    "random_regular": (G.random_regular, "random_regular:12:3:0",
                       "random d-regular graph from the pairing model, fixed by seed"),
}

_GENERATOR_EXPECTED: dict = {
    "petersen": {"srg": (10, 3, 0, 1),
                 "expected": {"theta": 4, "alpha": 4, "omega": 2, "chi": 3}},
    "shrikhande": {"srg": (16, 6, 2, 2),
                   "expected": {"theta": 4, "alpha": 4, "omega": 3, "chi": 4}},
    "frucht": {"expected": {"omega": 3, "chi": 3}},
}


def generator_names() -> tuple:
    return tuple(sorted(_GENERATORS))


def _manifest() -> dict:
    ref = resources.files("thetakit") / "fixtures" / "manifest.json"
    try:
        text = ref.read_text()
    except (FileNotFoundError, ModuleNotFoundError):
        return {"fixtures": []}
    return json.loads(text)


def fixture_names() -> tuple:
    return tuple(sorted(e["name"] for e in _manifest()["fixtures"]))


def _fixture_entry(name: str) -> Optional[dict]:
    for e in _manifest()["fixtures"]:
        if e["name"] == name:
            return e
    return None


def load_fixture(name: str) -> Graph:
    entry = _fixture_entry(name)
    if entry is None:
        raise KeyError(f"unknown fixture {name!r}; available: {fixture_names()}")
    return _fixture_graph(entry)


def _fixture_graph(entry: dict) -> Graph:
    ref = resources.files("thetakit") / "fixtures" / entry["file"]
    g = from_graph6(ref.read_text().strip())
    flags = entry.get("flags", {})
    return g.with_meta(name=entry["name"],
                       vertex_transitive=flags.get("vertex_transitive"))


def load(spec: str) -> Graph:
    """Resolve ``name[:arg[:arg]]`` against generators, then fixtures."""
    parts = spec.split(":")
    name, args = parts[0], parts[1:]
    if name in _GENERATORS:
        fn = _GENERATORS[name][0]
        bad = f"bad arguments for generator {name!r}"
        try:
            ints = [int(a) for a in args]
        except ValueError as exc:
            raise ValueError(f"{bad}: {exc}") from exc
        try:
            return fn(*ints)
        except TypeError as exc:
            raise ValueError(f"{bad}: {exc}") from exc
    if args:
        raise ValueError(f"unknown generator {name!r}")
    entry = _fixture_entry(name)
    if entry is not None:
        return _fixture_graph(entry)
    raise ValueError(
        f"unknown graph {name!r}; generators: {generator_names()}, "
        f"fixtures: {fixture_names()}")


def entries() -> list:
    out = []
    for name in sorted(_GENERATORS):
        _, example, desc = _GENERATORS[name]
        extra = _GENERATOR_EXPECTED.get(name, {})
        out.append(CatalogEntry(
            name=name, kind="generator", description=desc, example=example,
            srg=tuple(extra["srg"]) if "srg" in extra else None,
            expected=dict(extra.get("expected", {}))))
    for e in _manifest()["fixtures"]:
        out.append(CatalogEntry(
            name=e["name"], kind="fixture", description=e.get("description", ""),
            example=e["name"], order=e.get("order"),
            srg=tuple(e["srg"]) if e.get("srg") else None,
            flags=dict(e.get("flags", {})),
            expected=dict(e.get("expected", {})),
            source=e.get("source", "")))
    out.extend(PARAM_ENTRIES)
    return out


# Parameter-only entries: no adjacency shipped, but the closed-form theta
# and chromatic-factor machinery accepts bare SRG parameters.
PARAM_ENTRIES = (
    CatalogEntry(name="suzuki-params", kind="params",
                 description="strongly regular parameter set (1782, 416, 100, 96)",
                 srg=(1782, 416, 100, 96),
                 expected={"chromatic_factor": 27},
                 source="rank-3 graph of the Suzuki sporadic group"),
)
