"""Golden CLI outputs: the deterministic JSON of `analyze` on every bundled
fixture, of `analyze` with every task on two graphs that are regular but
not strongly regular, and of three `power` tables (one with a dense
`--materialize` cross-check, one of 60 rows) must stay byte-identical to
the files under tests/golden/.

The fixture runs exclude `capacity` and `--exact-chi`: their output
depends on search budgets and timing on graphs that large. One run adds
`--exact-chi` on Hall-Janko: n = 100 = 10 * floor(theta), so chi = 10
is decided by an exact cover of the vertices by independent 10-sets, in
a fraction of a second at the default budget. Another adds it on Gosset:
theta = 5.6 gives only chi >= 10, but alpha = 4 is exact in milliseconds
and n = 56 = 14 * alpha, so the same cover decides chi = 14 at the
bound ceil(n / alpha), whatever the machine. The
all-task runs on frucht and cycle:7 include `capacity`, whose exact
searches finish on 12 and 7 vertices far inside the default budget. So
does the `theta,capacity` run on the 231-vertex Cameron fixture: its first
independent set already has floor(theta) = 21 vertices, which ends the
search with alpha proven, whatever the budget or the machine.

The JSON writer is checked against ``json.dumps(ref(obj), indent=2)``,
with `ref` the conversions the CLI applies before writing, on every golden
command's payload and on the values a payload can hold.

To regenerate the goldens after a deliberate output change, run
``python tests/test_golden.py`` with the package on the path.
"""

import contextlib
import io
import json
import math
import pathlib
from fractions import Fraction

import numpy as np
import pytest

from thetakit import cli
from thetakit.catalog import fixture_names

GOLDEN_DIR = pathlib.Path(__file__).with_name("golden")
ANALYZE_TASKS = "spectrum,theta,srg,ramanujan,product-bounds,chromatic-bounds,k0"
ALL_TASKS = ",".join(cli.TASKS)

CASES = {f"analyze-{name}": ["analyze", "--gen", name, "--json",
                             "--tasks", ANALYZE_TASKS]
         for name in fixture_names()}
CASES["analyze-frucht-alltasks"] = [
    "analyze", "--gen", "frucht", "--json", "--tasks", ALL_TASKS]
CASES["analyze-cycle7-alltasks"] = [
    "analyze", "--gen", "cycle:7", "--json", "--tasks", ALL_TASKS]
CASES["analyze-cameron-capacity"] = [
    "analyze", "--gen", "cameron", "--json", "--tasks", "theta,capacity"]
CASES["analyze-hall_janko-chi"] = [
    "analyze", "--gen", "hall_janko", "--tasks", "chromatic-bounds",
    "--exact-chi", "--json"]
CASES["analyze-gosset-chi"] = [
    "analyze", "--gen", "gosset", "--tasks", "chromatic-bounds",
    "--exact-chi", "--json"]
CASES["power-petersen-k2-materialize"] = [
    "power", "--gen", "petersen", "-k", "2", "--materialize", "--json"]
CASES["power-cycle5-k5"] = ["power", "--gen", "cycle:5", "-k", "5", "--json"]
CASES["power-cycle7-k60"] = ["power", "--gen", "cycle:7", "-k", "60", "--json"]


def run_case(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    assert rc == cli.EXIT_OK
    return buf.getvalue()


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_matches_golden(case):
    want = (GOLDEN_DIR / f"{case}.json").read_text()
    assert run_case(CASES[case]) == want


def ref(obj):
    """What the CLI writes, as plain JSON values: floats at 12 significant
    digits, a whole Fraction as an int, tuples as lists, numpy scalars as
    their Python values."""
    if isinstance(obj, dict):
        return {k: ref(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [ref(v) for v in obj]
    if isinstance(obj, Fraction):
        return int(obj) if obj.denominator == 1 else cli._f(obj)
    if isinstance(obj, float):
        return cli._f(obj)
    if hasattr(obj, "item") and not isinstance(obj, (str, bytes)):
        return ref(obj.item())
    return obj


@pytest.mark.parametrize("case", sorted(CASES))
def test_writer_matches_json_dumps_on_the_golden_payloads(case, monkeypatch):
    payloads = []
    dumps = cli._dumps
    monkeypatch.setattr(cli, "_dumps", lambda obj: payloads.append(obj) or dumps(obj))
    run_case(CASES[case])
    [obj] = payloads
    assert dumps(obj) == json.dumps(ref(obj), indent=2)


VALUES = [
    math.nan, math.inf, -math.inf, -0.0, 0.0, 1e16, 1e-7, 0.1 + 0.2, 2.0 ** 70,
    1 / 3, np.float64(2 / 3), np.float32(0.1), np.int64(-7), np.bool_(True),
    np.bool_(False), Fraction(3, 1), Fraction(1, 3), Fraction(-7, 2),
    True, False, None, 0, -12, 10 ** 40, "", "Schläfli \"q\" \\ \n", "\x00\u2028",
    (), [], {}, (1, 2.5), [[], {}, ()], {"a": {}, "b": []},
    {"nested": {"list": [1, (2, [3.25, {"x": None}])], "t": (np.int64(4),)}},
    {"Schläfli \"q\"": 1, "": [math.nan]},
]


@pytest.mark.parametrize("obj", VALUES,
                         ids=[f"{type(v).__name__}-{i}" for i, v in enumerate(VALUES)])
def test_writer_matches_json_dumps_on_each_kind_of_value(obj):
    assert cli._dumps(obj) == json.dumps(ref(obj), indent=2)


def test_writer_refuses_what_json_dumps_refuses():
    for obj in (b"bytes", object(), {(1, 2): 3}, [{1j: None}]):
        with pytest.raises(TypeError):
            json.dumps(ref(obj), indent=2)
        with pytest.raises(TypeError):
            cli._dumps(obj)


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for case, argv in sorted(CASES.items()):
        (GOLDEN_DIR / f"{case}.json").write_text(run_case(argv))
        print(f"wrote {case}")
