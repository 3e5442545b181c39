"""Golden CLI outputs: the deterministic JSON of `analyze` on every bundled
fixture, of `analyze` with every task on two graphs that are regular but
not strongly regular, and of two `power` tables (one with a dense
`--materialize` cross-check) must stay byte-identical to the files under
tests/golden/.

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

To regenerate the goldens after a deliberate output change, run
``python tests/test_golden.py`` with the package on the path.
"""

import contextlib
import io
import pathlib

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


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for case, argv in sorted(CASES.items()):
        (GOLDEN_DIR / f"{case}.json").write_text(run_case(argv))
        print(f"wrote {case}")
