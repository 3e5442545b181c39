"""The dense eigensolver against closed-form strongly regular spectra,
spectrum grouping, complement spectra, and Ramanujan verdicts."""

import math
import tracemalloc

import numpy as np
import pytest

from thetakit.catalog import entries, load
from thetakit.graphs import (
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    frucht,
    hypercube,
    paley,
    petersen,
    random_regular,
)
from thetakit.spectra import (
    Spectrum,
    complement_spectrum,
    eigensolve_bytes,
    eigenvalues,
    group_values,
    jacobi_eigenvalues,
    lambda_nontrivial,
    ramanujan_verdict,
    spectrum_from_groups,
    spectrum_from_values,
)
from thetakit.srg import SrgParams


# strongly regular generator specs with their parameters, beside the
# strongly regular bundled fixtures
SRG_GENERATORS = {
    "petersen": (10, 3, 0, 1),
    "shrikhande": (16, 6, 2, 2),
    "paley:29": (29, 14, 6, 7),
    "kneser:7:2": (21, 10, 3, 6),
}


def _srg_cases():
    fixtures = {e.name: e.srg for e in entries()
                if e.kind == "fixture" and e.srg is not None}
    return sorted({**fixtures, **SRG_GENERATORS}.items())


@pytest.mark.parametrize("spec,params", _srg_cases())
def test_spectrum_matches_srg_closed_form(spec, params):
    p = SrgParams(*params)
    r, s = p.eigenvalues()
    f, g = p.multiplicities()
    groups = eigenvalues(load(spec)).groups
    assert [m for _, m in groups] == [1, f, g]
    assert [v for v, _ in groups] == pytest.approx([p.d, r, s], abs=1e-9)


def test_jacobi_small_orders():
    assert jacobi_eigenvalues(np.zeros((0, 0))).shape == (0,)
    assert list(jacobi_eigenvalues([[2.5]])) == [2.5]
    got = jacobi_eigenvalues([[0.0, 1.0], [1.0, 0.0]])
    assert list(got) == pytest.approx([1.0, -1.0])


def test_jacobi_is_deterministic():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((12, 12))
    a = (m + m.T) / 2.0
    assert np.array_equal(jacobi_eigenvalues(a), jacobi_eigenvalues(a.copy()))


def test_jacobi_rejects_bad_input():
    with pytest.raises(ValueError):
        jacobi_eigenvalues(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        jacobi_eigenvalues(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_jacobi_rejects_a_matrix_asymmetric_in_one_entry():
    m = np.random.default_rng(4).standard_normal((12, 12))
    a = m + m.T
    a[3, 7] *= 1 + 1e-12
    # within allclose's default relative tolerance, but not symmetric
    assert not np.array_equal(a, a.T) and np.allclose(a, a.T, atol=0.0)
    with pytest.raises(ValueError, match="symmetric"):
        jacobi_eigenvalues(a)


def old_group_values(values, rtol=1e-6):
    """group_values as a loop over the values, one comparison each."""
    vals = np.asarray(values, dtype=np.float64)
    if vals.size == 0:
        return ()
    vmax = float(np.abs(vals).max())
    atol = rtol * max(1.0, vmax)
    zero = vals.size * np.finfo(np.float64).eps * vmax
    groups = []
    start = 0
    for i in range(1, vals.size + 1):
        if i == vals.size or vals[i - 1] - vals[i] > atol:
            mean = float(vals[start:i].mean())
            groups.append((0.0 if abs(mean) <= zero else mean, int(i - start)))
            start = i
    return tuple(groups)


def test_group_values_matches_the_loop():
    rng = np.random.default_rng(11)
    cases = [[], [0.0], [1e-17], [2.0, 1.0000004, 1.0, -1.0], [3.0, 3.0, 3.0]]
    for _ in range(200):
        # a few distinct values, repeated and perturbed near the tolerance
        base = rng.integers(-4, 5, size=rng.integers(1, 6)) * rng.choice([1.0, 1e3])
        vals = np.repeat(base, rng.integers(1, 4, size=base.size))
        vals = vals + rng.choice([0.0, 5e-7, 2e-6], size=vals.size) * rng.standard_normal(vals.size)
        cases.append(np.sort(vals)[::-1])
    for e in entries():
        if e.kind == "fixture":
            cases.append(np.sort(np.linalg.eigvalsh(load(e.name).adj.astype(float)))[::-1])
    for vals in cases:
        assert group_values(vals) == old_group_values(vals)


def test_eigensolve_peak_within_its_estimate():
    # the budget check trusts eigensolve_bytes, so it must bound the peak
    g = random_regular(1000, 4, 0)
    tracemalloc.start()
    try:
        eigenvalues(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= eigensolve_bytes(g.n)


def test_petersen_spectrum_groups():
    s = eigenvalues(petersen())
    assert [m for _, m in s.groups] == [1, 5, 4]
    assert [v for v, _ in s.groups] == pytest.approx([3.0, 1.0, -2.0], abs=1e-9)
    assert s.largest() == pytest.approx(3.0)
    assert s.second_largest() == pytest.approx(1.0)
    assert s.smallest() == pytest.approx(-2.0)


def test_second_largest_counts_multiplicity():
    # disconnected regular graph: the top value repeats
    s = eigenvalues(disjoint_union(cycle(4), cycle(4)))
    assert s.second_largest() == pytest.approx(2.0)


def test_group_values_merges_adjacent():
    g = group_values([2.0, 1.0000004, 1.0, -1.0])
    assert [m for _, m in g] == [1, 2, 1]


def test_zero_eigenvalue_groups_to_exact_zero():
    # LAPACK returns about -3e-16 for frucht's zero eigenvalue; the group
    # value must not depend on that rounding
    assert (0.0, 1) in eigenvalues(frucht()).groups
    assert group_values([1.0, 1e-17, -1.0]) == ((1.0, 1), (0.0, 1), (-1.0, 1))
    assert group_values([1.0, 1e-9, -1.0])[1] == (1e-9, 1)


def test_spectrum_from_groups_merges_and_expands():
    s = spectrum_from_groups([(1.0, 2), (1.0 + 1e-9, 3), (-0.5, 1)])
    assert s.n == 6
    assert len(s.groups) == 2
    assert np.allclose(s.expanded()[:5], 1.0)


def test_complement_spectrum_matches_direct():
    graphs = [petersen(), cycle(5), cycle(6), frucht(), hypercube(3),
              paley(13), random_regular(12, 5, seed=0),
              random_regular(14, 3, seed=1)]
    for g in graphs:
        s = eigenvalues(g)
        comp = complement_spectrum(s, g.n, g.degree())
        direct = eigenvalues(g.complement())
        assert np.max(np.abs(comp.expanded() - direct.expanded())) < 1e-8


def test_complement_spectrum_needs_matching_degree():
    s = eigenvalues(cycle(5))
    with pytest.raises(ValueError):
        complement_spectrum(s, 5, 3)


def test_lambda_min_and_nontrivial():
    assert eigenvalues(petersen()).smallest() == pytest.approx(-2.0)
    # bipartite: both d and -d are trivial
    vals = eigenvalues(complete_bipartite(3, 3))
    assert lambda_nontrivial(vals, 3) == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(ValueError):
        lambda_nontrivial(spectrum_from_values([2.0, -2.0]), 2)


def _verdict(g):
    d = g.degree()
    return ramanujan_verdict(lambda_nontrivial(eigenvalues(g), d), d)


def test_ramanujan_verdicts():
    assert _verdict(petersen()).is_ramanujan     # lam = 2 <= 2 sqrt 2
    assert _verdict(cycle(7)).is_ramanujan       # cycles always pass: |lam| <= 2
    assert _verdict(paley(13)).is_ramanujan
    v = _verdict(petersen())
    assert v.lam == pytest.approx(2.0)
    assert v.margin == pytest.approx(v.threshold - 2.0)
    assert v.threshold == pytest.approx(2.0 * math.sqrt(2.0))
    # one threshold, 2 sqrt(d-1) + 1e-9, for spectra and for bare values
    assert ramanujan_verdict(v.lam, 3) == v
    assert ramanujan_verdict(2.0 + 1e-10, 2).is_ramanujan
    assert not ramanujan_verdict(2.0 + 1e-8, 2).is_ramanujan


def test_spectrum_iter_and_expanded_order():
    s = spectrum_from_values([1.0, 3.0, -2.0])
    assert s.expanded().tolist() == [3.0, 1.0, -2.0]
    assert isinstance(s, Spectrum)


def test_complete_graph_spectrum():
    s = eigenvalues(complete(6))
    assert s.groups[0] == (pytest.approx(5.0), 1)
    assert s.groups[1][0] == pytest.approx(-1.0)
    assert s.groups[1][1] == 5
