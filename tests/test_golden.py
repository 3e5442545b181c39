"""Golden CLI outputs: the deterministic JSON of `analyze` on every bundled
fixture and of a dense `power --materialize` cross-check must stay
byte-identical to the files under tests/golden/.

The tasks exclude `capacity` and `--exact-chi`, whose output depends on
search budgets and timing. To regenerate the goldens after a deliberate
output change, run ``python tests/test_golden.py`` with the package on the
path.
"""

import contextlib
import io
import pathlib

import pytest

from thetakit import cli
from thetakit.catalog import fixture_names

GOLDEN_DIR = pathlib.Path(__file__).with_name("golden")
ANALYZE_TASKS = "spectrum,theta,srg,ramanujan,product-bounds,chromatic-bounds,k0"

CASES = {f"analyze-{name}": ["analyze", "--gen", name, "--json",
                             "--tasks", ANALYZE_TASKS]
         for name in fixture_names()}
CASES["power-petersen-k2-materialize"] = [
    "power", "--gen", "petersen", "-k", "2", "--materialize", "--json"]


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
