"""Shared test plumbing: the isomorphism oracle and the acceptance-line
reporter."""

import networkx as nx


def isomorphic(g, h):
    """networkx's VF2 verdict, the tests' isomorphism oracle."""
    return nx.is_isomorphic(nx.from_numpy_array(g.adj), nx.from_numpy_array(h.adj))


# one line per end-to-end criterion, printed after the run so the summary
# survives output capture
_criteria = {}


def record_criterion(key: str, ok: bool, detail: str) -> None:
    _criteria[key] = (ok, detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _criteria:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for key in sorted(_criteria):
        ok, detail = _criteria[key]
        tag = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"{key}: {tag} - {detail}")
