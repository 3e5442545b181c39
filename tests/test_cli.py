"""Command-line behavior: JSON shape, determinism, exit codes, and the
bundled reproduction suite."""

import io
import json
import subprocess
import sys
import time

import pytest

from thetakit import bounds, catalog, cli, graphs
from thetakit.bounds import BoundReport, FactorProducts, make_report
from thetakit.graphs import cycle, petersen
from thetakit.io import write_edge_list, write_graph6
from thetakit.products import power_extremes, strong_product
from thetakit.spectra import eigenvalues
from thetakit.theta import theta_best


def run(argv, capsys):
    rc = cli.main(argv)
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def test_analyze_json_shape(capsys):
    rc, out, _ = run(["analyze", "--gen", "petersen",
                      "--tasks", "spectrum,theta,srg", "--json"], capsys)
    assert rc == 0
    doc = json.loads(out)
    assert doc["graph"]["n"] == 10 and doc["graph"]["edges"] == 15
    assert doc["tasks"]["theta"]["theta"] == 4
    assert doc["tasks"]["theta"]["method"] == "closed-form"
    assert doc["tasks"]["srg"]["params"] == [10, 3, 0, 1]
    eig = doc["tasks"]["spectrum"]["eigenvalues"]
    assert [e["multiplicity"] for e in eig] == [1, 5, 4]
    assert doc["violations"] == []


def test_analyze_dense_random_regular_spec(capsys):
    rc, out, _ = run(["analyze", "--gen", "random_regular:60:8:0",
                      "--tasks", "spectrum,srg,ramanujan", "--json"], capsys)
    assert rc == 0
    doc = json.loads(out)
    assert doc["tasks"]["spectrum"]["degree"] == 8
    assert doc["graph"]["edges"] == 240


def test_analyze_reports_round_trip(capsys):
    rc, out, _ = run(["analyze", "--gen", "petersen", "--tasks",
                      "product-bounds", "--power", "2", "--json"], capsys)
    assert rc == 0
    doc = json.loads(out)
    payload = doc["tasks"]["product-bounds"]
    assert payload["product_order"] == 100
    for d in payload["reports"]:
        r = BoundReport(**d)
        assert r.holds(1e-6)


def test_analyze_deterministic(capsys):
    argv = ["analyze", "--gen", "cycle:7",
            "--tasks", "spectrum,theta,ramanujan", "--json"]
    rc1, out1, _ = run(argv, capsys)
    rc2, out2, _ = run(argv, capsys)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_analyze_capacity_and_chi(capsys):
    rc, out, _ = run(["analyze", "--gen", "petersen", "--tasks",
                      "capacity,chromatic-bounds", "--exact-chi",
                      "--budget", "30", "--json"], capsys)
    assert rc == 0
    doc = json.loads(out)
    cap = doc["tasks"]["capacity"]
    assert cap["status"] == "determined" and cap["capacity"] == 4
    cb = doc["tasks"]["chromatic-bounds"]
    assert cb["chi"] == 3 and cb["chi_lower_from_theta"] == 3


def test_exact_chi_starts_at_theta_lower_bound(capsys):
    # Hall-Janko: the search starts at ceil(n / theta) = 100 / 10, not at
    # the clique size 4
    rc, out, _ = run(["analyze", "--gen", "hall_janko", "--tasks",
                      "chromatic-bounds", "--exact-chi", "--budget", "1",
                      "--json"], capsys)
    assert rc == 0
    cb = json.loads(out)["tasks"]["chromatic-bounds"]
    assert cb["chi_interval"][0] == cb["chi_lower_from_theta"] == 10


def test_analyze_k0_gate(capsys):
    rc, out, _ = run(["analyze", "--gen", "complete_bipartite:3:3",
                      "--tasks", "k0", "--json"], capsys)
    assert rc == 0
    doc = json.loads(out)
    payload = doc["tasks"]["k0"]
    assert payload["applicable"] is False
    rc, out, _ = run(["analyze", "--gen", "petersen", "--tasks", "k0",
                      "--json"], capsys)
    doc = json.loads(out)
    assert doc["tasks"]["k0"]["applicable"] is True
    assert doc["tasks"]["k0"]["k0"] >= 3


def test_exit_input_errors(capsys):
    rc, _, err = run(["analyze", "--gen", "nope"], capsys)
    assert rc == 1 and "error:" in err
    rc, _, err = run(["analyze", "--g6", "/nonexistent/file.g6"], capsys)
    assert rc == 1 and "error:" in err
    rc, _, err = run(["analyze", "--gen", "petersen", "--tasks", "bogus"],
                     capsys)
    assert rc == 1 and "error:" in err
    rc, _, err = run(["analyze", "--gen", "complete_bipartite:-1:3"], capsys)
    assert rc == 1 and "error:" in err
    rc, _, err = run(["analyze"], capsys)
    assert rc == 1
    rc, _, err = run([], capsys)
    assert rc == 1


def test_exit_violation_is_loud(capsys, monkeypatch):
    def broken_task(g, args):
        return {"x": 1}, [make_report("impossible-bound", 2.0, 1.0, "<=")]

    monkeypatch.setitem(cli._TASK_FNS, "spectrum", broken_task)
    rc, out, _ = run(["analyze", "--gen", "petersen", "--tasks", "spectrum",
                      "--json"], capsys)
    assert rc == 2
    doc = json.loads(out)
    assert doc["violations"] == ["impossible-bound"]


@pytest.mark.parametrize("argv", [
    ["analyze", "--gen", "petersen", "--budget", "abc"],
    ["analyze", "--gen", "petersen", "--power", "x"],
    ["analyze", "--gen", "petersen", "--no-such-flag"],
    ["no-such-command"],
], ids=["budget", "power", "flag", "command"])
def test_bad_arguments_are_an_input_error(argv, capsys):
    # argparse's usage errors exit 1, not 2, the code of a violated theorem
    rc, out, err = run(argv, capsys)
    assert rc == 1 and out == ""
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("budget", ["nan", "-1"])
def test_a_budget_that_is_not_seconds_is_an_input_error(budget, capsys):
    # NaN would never time out and -1 would report a timeout unsearched:
    # the exact solvers refuse both before searching
    rc, out, err = run(["analyze", "--gen", "cameron", "--tasks", "chromatic-bounds",
                        "--exact-chi", "--budget", budget], capsys)
    assert rc == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "budget" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [["--help"], ["power", "--help"]])
def test_help_exits_zero(argv, capsys):
    rc, out, _ = run(argv, capsys)
    assert rc == 0 and out.startswith("usage: thetakit")


def test_power_table_with_materialize(capsys):
    rc, out, _ = run(["power", "--gen", "petersen", "-k", "2",
                      "--materialize", "--json"], capsys)
    assert rc == 0
    doc = json.loads(out)
    assert doc["theta_factor"] == 4.0
    rows = doc["rows"]
    assert [r["k"] for r in rows] == [1, 2]
    for r in rows:
        assert r["lambda2"] == pytest.approx(r["lambda2_dense"], abs=1e-6)
        assert r["lambda_min"] == pytest.approx(r["lambda_min_dense"], abs=1e-6)
        assert r["eig2_lower"] <= r["lambda2"] + 1e-9
        assert r["lambda_min"] <= r["eigmin_upper"] + 1e-9
    assert rows[0]["is_ramanujan"] is True


def test_power_on_a_perfect_matching(capsys):
    # a perfect matching and its powers are disconnected: no row carries
    # the Ramanujan fields, and the table prints "-"
    argv = ["power", "--gen", "random_regular:6:1:0", "-k", "3"]
    rc, out, _ = run([*argv, "--json"], capsys)
    assert rc == 0
    doc = json.loads(out)
    assert doc["violations"] == []
    rows = doc["rows"]
    assert [r["degree"] for r in rows] == [1, 3, 7]
    ramanujan = {"alon_boppana", "is_ramanujan", "lambda_nontrivial"}
    assert not ramanujan & (rows[0].keys() | rows[1].keys() | rows[2].keys())
    assert {"eig2_lower", "eigmin_upper"} <= rows[0].keys()
    rc, out, _ = run(argv, capsys)
    first = out.splitlines()[2].split()
    assert rc == 0 and first[0] == "1" and first[-2:] == ["-", "-"]


def test_disconnected_factor_gets_no_ramanujan_statement(tmp_path, capsys):
    # C5 + C5 is 2-regular and its spectrum passes the threshold, but a
    # verdict is defined only for connected graphs, and G^k is connected
    # exactly when G is
    path = tmp_path / "c5c5.g6"
    write_graph6(graphs.disjoint_union(cycle(5), cycle(5)), path)
    rc, out, _ = run(["power", "--g6", str(path), "-k", "3", "--json"], capsys)
    assert rc == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 3
    ramanujan = {"alon_boppana", "is_ramanujan", "lambda_nontrivial"}
    assert all(not ramanujan & r.keys() for r in rows)
    rc, out, _ = run(["analyze", "--g6", str(path), "--tasks", "ramanujan,k0",
                      "--json"], capsys)
    assert rc == 0
    gone = {"applicable": False, "reason": "graph is disconnected"}
    assert json.loads(out)["tasks"] == {"ramanujan": gone, "k0": gone}


@pytest.mark.parametrize("copies, r", [(3, 2), (2, 3), (3, 4)],
                         ids=["3K2", "2K3", "3K4"])
def test_tight_product_bounds_at_large_k_hold(copies, r, tmp_path, capsys):
    # for m K_r the eig2 bound equals lambda2 = r^k - 1 exactly, and rounding
    # puts it above lambda2 once the values pass about 1e11 (3K2 from k = 37,
    # 2K3 from k = 18; 3K4's lmin form from k = 14)
    path = tmp_path / "mkr.edges"
    write_edge_list(graphs.disjoint_union(*[graphs.complete(r)] * copies), path)
    rc, out, err = run(["power", "--edges", str(path), "-k", "60", "--json"], capsys)
    assert (rc, err) == (0, "")
    doc = json.loads(out)
    assert doc["violations"] == [] and len(doc["rows"]) == 60
    assert doc["rows"][-1]["eig2_lower"] == pytest.approx(doc["rows"][-1]["lambda2"])


def test_materialize_stops_at_the_eigensolve_budget(capsys):
    # Petersen^4 has 10^4 vertices: its adjacency fits the byte budget,
    # but its ~2 GB eigensolve does not, so row 4 carries no dense values
    t0 = time.perf_counter()
    rc, out, _ = run(["power", "--gen", "petersen", "-k", "4",
                      "--materialize", "--json"], capsys)
    assert time.perf_counter() - t0 < 30.0
    assert rc == 0
    rows = json.loads(out)["rows"]
    for r in rows[:3]:
        assert r["lambda2"] == pytest.approx(r["lambda2_dense"], abs=1e-6)
        assert r["lambda_min"] == pytest.approx(r["lambda_min_dense"], abs=1e-6)
    assert rows[3]["k"] == 4
    assert "lambda2_dense" not in rows[3] and "lambda_min_dense" not in rows[3]


@pytest.mark.parametrize("argv", [
    ["analyze", "--gen", "empty:6000", "--tasks", "spectrum"],
    ["power", "--gen", "complete_bipartite:3000:3000", "-k", "2"],
], ids=["analyze", "power"])
def test_budget_refusal_inside_a_task_is_an_input_error(argv):
    proc = subprocess.run([sys.executable, "-m", "thetakit.cli", *argv],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert "error:" in proc.stderr and "budget" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv, named", [
    (["power", "--gen", "petersen", "-k", "520"], ["k = 309", "-k 308"]),
    (["analyze", "--gen", "petersen", "--tasks", "product-bounds",
      "--power", "400"], ["--power 400"]),
], ids=["power", "analyze"])
def test_bounds_past_float_range_are_an_input_error(argv, named):
    # 10^k leaves float range at k = 309; the message names the k
    proc = subprocess.run([sys.executable, "-m", "thetakit.cli", *argv],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr
    for words in named:
        assert words in proc.stderr


def test_analyze_power_past_float_range_is_an_input_error(capsys):
    rc, out, err = run(["analyze", "--gen", "petersen", "--tasks", "product-bounds",
                        "--power", "600"], capsys)
    assert (rc, out) == (1, "")
    assert err == "error: --power 600 leaves float range\n"


def test_power_table_names_a_violation_on_stderr(capsys, monkeypatch):
    reports = FactorProducts.reports
    monkeypatch.setattr(FactorProducts, "reports", lambda self, l2, lmin: (
        reports(self, l2, lmin) + [make_report("impossible-bound", 2.0, 1.0, "<=")]))
    rc, out, err = run(["power", "--gen", "petersen", "-k", "1"], capsys)
    assert rc == 2
    head, rule, row = out.splitlines()
    assert head.split() == ["k", "order", "degree", "lambda2", "eig2_lower", "lambda_min",
                            "eigmin_upper", "alon_boppana", "ramanujan"]
    assert set(rule) == {"-", " "} and row.split()[:3] == ["1", "10", "3"]
    assert err == "VIOLATED: impossible-bound\n"


class _Tty(io.StringIO):
    def isatty(self):
        return True


def test_table_header_is_bold_on_a_tty_unless_no_color(monkeypatch):
    monkeypatch.delenv("NO_COLOR", raising=False)
    bold = _Tty()
    cli._render_table([[1, 22]], ["a", "b"], bold)
    assert bold.getvalue() == "\x1b[1ma\x1b[0m  \x1b[1mb \x1b[0m\n-  --\n1  22\n"
    monkeypatch.setenv("NO_COLOR", "1")
    plain = _Tty()
    cli._render_table([[1, 22]], ["a", "b"], plain)
    assert plain.getvalue() == "a  b \n-  --\n1  22\n"


@pytest.mark.parametrize("spec, k", [
    ("petersen", 308),                # the last row inside float range
    ("cycle:5", 300),                 # theta = sqrt(5), not a whole number
    ("gosset", 176),
    ("random_regular:24:4:1", 223),   # not tight, theta from the optimizer
])
def test_power_rows_carry_the_factor_products_bit_for_bit(spec, k, capsys,
                                                          monkeypatch):
    # each row's four reports equal those of its k-element factor list
    seen = []
    violations = cli._violations
    monkeypatch.setattr(cli, "_violations",
                        lambda reports: seen.extend(reports) or violations(reports))
    rc, out, err = run(["power", "--gen", spec, "-k", str(k), "--json"], capsys)
    assert rc == 0 and err == ""
    assert len(json.loads(out)["rows"]) == k and len(seen) == 4 * k
    g = catalog.load(spec)
    s = eigenvalues(g)
    factor = (g.n, g.degree(), float(theta_best(g).value), s.smallest())
    for j in range(1, k + 1):
        l2, lmin, _ = power_extremes(s, j)
        assert seen[4 * (j - 1):4 * j] == FactorProducts.of([factor] * j).reports(l2, lmin)
    tight = seen[-1].applicable
    assert tight is (spec != "random_regular:24:4:1")


def test_power_past_float_range_names_the_row(capsys):
    rc, out, err = run(["power", "--gen", "petersen", "-k", "309"], capsys)
    assert (rc, out) == (1, "")
    assert err == ("error: row k = 309 leaves float range; "
                   "-k 308 is the largest power that fits\n")


def test_power_table_bounds_theta_once(capsys, monkeypatch):
    calls = []
    upper = bounds.theta_upper_regular
    monkeypatch.setattr(bounds, "theta_upper_regular",
                        lambda *a: calls.append(a) or upper(*a))
    counts = []
    for k in ("2", "200"):
        rc, _, _ = run(["power", "--gen", "petersen", "-k", k, "--json"], capsys)
        assert rc == 0
        counts.append(len(calls))
    assert counts == [1, 2]


def test_trivial_power_rows_stop_at_the_int_digit_limit(capsys):
    # Python 3.11+ prints no int past its digit limit, so the first row of
    # a longer order is an input error that names the row
    argv = ["power", "--gen", "complete:4", "-k", "1100", "--json"]
    if not hasattr(sys, "get_int_max_str_digits"):
        rc, out, _ = run(argv, capsys)
        assert rc == 0
        assert len(json.loads(out)["rows"]) == 1100
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        rc, out, err = run(argv, capsys)
    finally:
        sys.set_int_max_str_digits(limit)
    # 4^1063 has 640 digits and 4^1064 has 641
    assert rc == 1 and out == ""
    assert "k = 1064" in err and "-k 1063" in err
    assert "set_int_max_str_digits" not in err


@pytest.mark.parametrize("spec", ["petersen", "complete:4", "empty:3"])
@pytest.mark.parametrize("k", ["0", "-3"])
def test_power_needs_k_at_least_one(spec, k, capsys):
    # as analyze --power does, trivial (complete or empty) factors included
    rc, out, err = run(["power", "--gen", spec, "-k", k, "--json"], capsys)
    assert rc == 1
    assert out == ""
    assert err == "error: need k >= 1\n"


@pytest.mark.parametrize("spec", ["cycle:6", "cycle:7", "cycle:9",
                                  "hypercube:4", "kneser:7:3", "frucht"])
def test_product_bounds_of_a_graph6_copy_match_the_generator(spec, tmp_path,
                                                              capsys):
    # tightness of the lmin-form bound is measured, not read from a flag,
    # so a graph read from a file gets the same reports
    path = tmp_path / "g.g6"
    write_graph6(catalog.load(spec), path)
    payloads = []
    for source in (["--gen", spec], ["--g6", str(path)]):
        rc, out, _ = run(["analyze", *source, "--tasks", "product-bounds",
                          "--power", "3", "--json"], capsys)
        assert rc == 0
        payloads.append(json.loads(out)["tasks"])
    assert payloads[0] == payloads[1]
    lmin_form = payloads[1]["product-bounds"]["reports"][3]
    assert lmin_form["name"] == "eigmin-product-upper-lmin"
    assert lmin_form["applicable"] is (spec != "frucht")


@pytest.mark.parametrize("spec", ["empty:0", "path:0"])
def test_analyze_the_null_graph(spec):
    # default tasks: the spectrum has no eigenvalues, so no extremes
    proc = subprocess.run([sys.executable, "-m", "thetakit.cli", "analyze",
                           "--gen", spec, "--json"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    spectrum = json.loads(proc.stdout)["tasks"]["spectrum"]
    assert spectrum["n"] == 0 and spectrum["eigenvalues"] == []
    assert "lambda_max" not in spectrum


def test_exact_chi_on_a_long_cycle(capsys):
    # the coloring search is deeper than Python's recursion limit
    rc, out, _ = run(["analyze", "--gen", "cycle:1201", "--tasks",
                      "chromatic-bounds", "--exact-chi", "--json"], capsys)
    assert rc == 0
    assert json.loads(out)["tasks"]["chromatic-bounds"]["chi"] == 3


def test_graph_construction_is_budgeted(capsys, monkeypatch):
    # 3 * 200^2 bytes to build the graph, over a 10 000-byte budget
    monkeypatch.setattr(graphs, "DENSE_BYTE_BUDGET", 10_000)
    rc, _, err = run(["analyze", "--gen", "empty:200", "--tasks", "srg"], capsys)
    assert rc == 1
    assert "error:" in err and "budget" in err


def test_srg_check_is_budgeted(capsys, monkeypatch):
    # C200 is built in 3 * 200^2 bytes, but its SRG check, which theta
    # runs before any eigensolve, needs 12 * 200^2
    monkeypatch.setattr(graphs, "DENSE_BYTE_BUDGET", 200_000)
    rc, _, err = run(["analyze", "--gen", "cycle:200", "--tasks", "theta"], capsys)
    assert rc == 1
    assert "error:" in err and "SRG check" in err and "budget" in err


SRG_PAYLOADS = {
    # conference graphs: 2d + (n - 1)(lam - mu) = 0, equal multiplicities
    "cycle:5": {"strongly_regular": True, "params": [5, 2, 0, 1],
                "complement_params": [5, 2, 0, 1],
                "restricted_eigenvalues": [0.61803398875, -1.61803398875],
                "multiplicities": [2, 2], "conference_case": True},
    "paley:13": {"strongly_regular": True, "params": [13, 6, 2, 3],
                 "complement_params": [13, 6, 2, 3],
                 "restricted_eigenvalues": [1.30277563773, -2.30277563773],
                 "multiplicities": [6, 6], "conference_case": True},
    "petersen": {"strongly_regular": True, "params": [10, 3, 0, 1],
                 "complement_params": [10, 6, 3, 4],
                 "restricted_eigenvalues": [1.0, -2.0],
                 "multiplicities": [5, 4], "conference_case": False},
}


@pytest.mark.parametrize("spec", SRG_PAYLOADS)
def test_srg_task_payload(spec, capsys):
    rc, out, _ = run(["analyze", "--gen", spec, "--tasks", "srg", "--json"], capsys)
    assert rc == 0
    assert json.loads(out)["tasks"]["srg"] == SRG_PAYLOADS[spec]


def test_violations_ignore_an_inapplicable_report():
    off = BoundReport("not-applicable", 2.0, 1.0, "<=", -1.0, False, "why")
    broken = make_report("impossible-bound", 2.0, 1.0, "<=")
    assert cli._violations([off]) == []
    assert cli._violations([off, broken]) == ["impossible-bound"]


NOT_APPLICABLE = [
    ("path:5", "ramanujan", {"applicable": False,
                             "reason": "graph is not regular"}),
    ("path:5", "product-bounds", {"applicable": False,
                                  "reason": "graph is not regular"}),
    ("empty:5", "product-bounds", {"applicable": False,
                                   "reason": "empty graph"}),
    ("path:5", "k0", {"applicable": False, "reason": "graph is not regular"}),
    ("complete:5", "k0", {"applicable": False, "reason": "degenerate degree"}),
    ("path:70", "capacity", {"status": "unknown-theta"}),
    ("random_regular:70:3:1", "product-bounds",
     {"applicable": False, "reason": "theta not determined for factor"}),
    ("random_regular:70:3:1", "k0", {"applicable": False,
                                     "reason": "theta not determined"}),
    # three disjoint edges: degree 1, and the powers are disconnected
    ("random_regular:6:1:0", "ramanujan", {"applicable": False,
                                           "reason": "degree < 2"}),
    ("random_regular:6:1:0", "k0", {"applicable": False,
                                    "reason": "graph is disconnected"}),
]


@pytest.mark.parametrize("spec,task,want", NOT_APPLICABLE,
                         ids=[f"{t}-{s}" for s, t, _ in NOT_APPLICABLE])
def test_task_not_applicable(spec, task, want, capsys):
    rc, out, _ = run(["analyze", "--gen", spec, "--tasks", task, "--json"],
                     capsys)
    assert rc == 0
    assert json.loads(out)["tasks"][task] == want


def test_power_trivial_and_input_gate(capsys):
    rc, out, _ = run(["power", "--gen", "complete:4", "-k", "3", "--json"],
                     capsys)
    assert rc == 0
    doc = json.loads(out)
    assert doc["trivial"] == "complete"
    rc, _, err = run(["power", "--gen", "path:4"], capsys)
    assert rc == 1 and "regular" in err


def test_power_plain_table_no_ansi(capsys):
    rc, out, _ = run(["power", "--gen", "petersen", "-k", "3"], capsys)
    assert rc == 0
    assert "\x1b" not in out
    assert "alon_boppana" in out


@pytest.mark.parametrize("spec, k", [
    ("random_regular:60:7:1", 5),     # C(64, 5) = 7.6e6 group multisets
    ("frucht", 12),                   # C(23, 12) = 1.4e6
], ids=["rr60-k5", "frucht-k12"])
def test_power_table_with_many_distinct_eigenvalues(spec, k, capsys):
    rc, out, err = run(["power", "--gen", spec, "-k", str(k)], capsys)
    assert rc == 0 and err == ""
    rows = out.splitlines()[2:]
    assert [int(r.split()[0]) for r in rows] == list(range(1, k + 1))


def test_power_table_at_k100(capsys):
    rc, out, _ = run(["power", "--gen", "random_regular:60:7:1", "-k", "100",
                      "--json"], capsys)
    assert rc == 0
    rows = json.loads(out)["rows"]
    assert [r["k"] for r in rows] == list(range(1, 101))
    last = rows[-1]
    assert last["degree"] == 8 ** 100 - 1 and last["is_ramanujan"] is False
    assert last["lambda_nontrivial"] == max(last["lambda2"], -last["lambda_min"])
    assert last["eig2_lower"] <= last["lambda2"]


def test_product_bounds_with_many_distinct_eigenvalues(capsys):
    rc, out, _ = run(["analyze", "--gen", "random_regular:60:7:1", "--tasks",
                      "product-bounds", "--power", "5", "--json"], capsys)
    assert rc == 0
    doc = json.loads(out)
    payload = doc["tasks"]["product-bounds"]
    assert payload["k"] == 5 and payload["product_degree"] == 32767
    assert len(payload["reports"]) == 4 and doc["violations"] == []


def test_parser_is_built_once_and_keeps_no_state(capsys):
    assert cli.build_parser() is cli.build_parser()
    argv = ["power", "--gen", "petersen", "-k", "2"]
    rc, out, _ = run([*argv, "--json"], capsys)
    assert rc == 0 and json.loads(out)["rows"][1]["k"] == 2
    rc, out, _ = run(argv, capsys)
    assert rc == 0 and out.startswith("k ") and "{" not in out


def test_catalog_listing(capsys):
    rc, out, _ = run(["catalog", "--json"], capsys)
    assert rc == 0
    doc = json.loads(out)
    names = {e["name"] for e in doc["entries"]}
    for want in ("petersen", "paley", "hall_janko", "cameron",
                 "suzuki-params"):
        assert want in names
    suzuki = next(e for e in doc["entries"] if e["name"] == "suzuki-params")
    assert suzuki["srg"] == [1782, 416, 100, 96]
    rc, out, _ = run(["catalog"], capsys)
    assert rc == 0 and "\x1b" not in out and "petersen" in out


def test_catalog_examples_load(capsys):
    rc, out, _ = run(["catalog", "--json"], capsys)
    assert rc == 0
    listed = json.loads(out)["entries"]
    for e in listed:
        if "example" in e:
            assert catalog.load(e["example"]).n > 0
    # a parameter set has no graph to load, so it names no example
    assert [e["name"] for e in listed if "example" not in e] == ["suzuki-params"]


def test_out_file_matches_stdout(tmp_path, capsys):
    target = tmp_path / "report.json"
    rc, out, _ = run(["analyze", "--gen", "petersen", "--tasks", "srg",
                      "--json", "--out", str(target)], capsys)
    assert rc == 0
    assert target.read_text() == out
    # a table on stdout still writes the JSON that --json prints
    rc, table, _ = run(["power", "--gen", "petersen", "-k", "3", "--out", str(target)],
                       capsys)
    rc_json, out, _ = run(["power", "--gen", "petersen", "-k", "3", "--json"], capsys)
    assert rc == rc_json == 0 and table.startswith("k ")
    assert target.read_text() == out


def test_edge_list_source(tmp_path, capsys):
    path = tmp_path / "pet.edges"
    write_edge_list(petersen(), str(path))
    rc, out, _ = run(["analyze", "--edges", str(path), "--tasks", "srg",
                      "--json"], capsys)
    assert rc == 0
    doc = json.loads(out)
    assert doc["tasks"]["srg"]["strongly_regular"] is True


def test_edge_list_errors_exit_1_naming_the_line(tmp_path, capsys):
    path = tmp_path / "bad.edges"
    path.write_text("3\n0 1\n1 2 3\n")
    rc, out, err = run(["analyze", "--edges", str(path)], capsys)
    assert (rc, out) == (1, "")
    assert err == f"error: {path}, line 3: expected 'u v', got '1 2 3'\n"


def test_graph6_errors_exit_1_naming_the_line(tmp_path, capsys):
    path = tmp_path / "bad.g6"
    path.write_text("\nI?h]Y\n")
    rc, out, err = run(["analyze", "--g6", str(path)], capsys)
    assert (rc, out) == (1, "")
    assert err == f"error: {path}, line 2: graph6 body too short\n"


def test_paper_examples_all_pass(capsys):
    rc, out, _ = run(["--paper-examples"], capsys)
    assert rc == 0
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == 17
    assert all(l.startswith("PASS") for l in lines)
    assert "17/17 examples reproduced" in out


def test_paper_examples_report_failures(capsys, monkeypatch):
    # a case whose value is wrong and a case that raises are both failures:
    # each prints FAIL, the run goes on, and the exit code is a violation
    def raises():
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_examples_spec", lambda: [
        ("a wrong value", lambda: (1, 2, False)), ("a crash", raises)])
    rc, out, _ = run(["--paper-examples"], capsys)
    assert rc == 2
    assert out.splitlines() == [
        "FAIL a wrong value: got 1, expected 2",
        "FAIL a crash: RuntimeError('boom')",
        "0/2 examples reproduced"]


def test_console_entry_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "thetakit.cli", "catalog", "--json"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert any(e["name"] == "petersen" for e in doc["entries"])


def test_package_runs_as_a_module():
    proc = subprocess.run(
        [sys.executable, "-m", "thetakit", "--paper-examples"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "17/17 examples reproduced" in proc.stdout


def test_theta_task_does_not_import_scipy():
    # frucht's theta comes from the optimizer, which needs only numpy
    code = ("import sys; from thetakit import cli; "
            "rc = cli.main(['analyze', '--gen', 'frucht', '--tasks', 'theta']); "
            "print('scipy' in sys.modules, file=sys.stderr); sys.exit(rc)")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stderr.splitlines()[-1] == "False"


def test_complement_chi_bound_from_the_lower_end_of_theta(tmp_path, capsys):
    # chi(complement) >= theta needs a proven lower end of theta: the
    # optimizer's upper end on C5xC5 (theta = 5) reads 5.00000005, whose
    # ceiling would be 6
    path = tmp_path / "c5xc5.g6"
    write_graph6(strong_product(cycle(5), cycle(5)), path)
    rc, out, _ = run(["analyze", "--g6", str(path), "--tasks",
                      "theta,chromatic-bounds", "--json"], capsys)
    assert rc == 0
    tasks = json.loads(out)["tasks"]
    assert tasks["theta"]["method"] == "optimizer"
    assert tasks["theta"]["theta"] > 5.0
    assert tasks["chromatic-bounds"]["chi_complement_lower_from_theta"] == 5
    # Q5 has a perfect matching, so chi(complement of Q5) = 16
    rc, out, _ = run(["analyze", "--gen", "hypercube:5", "--tasks",
                      "chromatic-bounds", "--json"], capsys)
    assert rc == 0
    assert json.loads(out)["tasks"]["chromatic-bounds"][
        "chi_complement_lower_from_theta"] == 16
