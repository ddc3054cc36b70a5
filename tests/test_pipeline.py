import json
import random
from itertools import combinations

import pytest

from conftest import (CONE3, S1_EXPECTED, S2_EXPECTED, SURFACE,
                      cyclic_quotient, det_cofactor)
from toricnash import pipeline
from toricnash.minors import BudgetExceeded, check_budget, sigma_shift
from toricnash.monomial_jacobian import GeneratorMatrix
from toricnash.pipeline import (InputError, StepConfig, nash_step,
                                report_to_json, resolution_report_from_dict,
                                resolve, step_report_from_dict)
from toricnash.semigroup import member_certificate

SMOOTH_PLANE = GeneratorMatrix(columns=((1, 0), (0, 1)))


def coordinate_change(seed, d):
    """Seeded U in GL_d(Z): a coordinate permutation, then one shear
    row_i += c * row_j with c = +-1."""
    rng = random.Random(seed)
    U = [[int(j == k) for j in range(d)] for k in rng.sample(range(d), d)]
    i, j = rng.sample(range(d), 2)
    c = rng.choice((-1, 1))
    U[i] = [a + c * b for a, b in zip(U[i], U[j])]
    return U


def mul(U, v):
    return tuple(sum(u * x for u, x in zip(row, v)) for row in U)


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def test_rejects_non_spanning_input():
    with pytest.raises(InputError):
        nash_step(GeneratorMatrix(columns=((2, 0), (0, 2), (1, 1))), 1)


def test_rejects_non_essential_input():
    with pytest.raises(InputError):
        nash_step(GeneratorMatrix(columns=((1, 0), (-1, 0), (0, 1))), 1)


def test_smooth_plane_step():
    step = nash_step(SMOOTH_PLANE, 1)
    assert step.exponents == ((0, 0),)
    assert step.essential_count == 1
    assert step.all_smooth
    chart = step.charts[0]
    assert set(chart.generators) == {(1, 0), (0, 1)}


def test_reference_surface_order_one():
    step = nash_step(SURFACE, 1)
    assert step.order == 1
    assert (step.m_rows, step.d_cols) == (4, 2)
    assert step.exponents == S1_EXPECTED
    essential = {c.center: c for c in step.charts if c.essential}
    # three vertex charts; the (2, 6) chart carries the singularity
    assert set(essential) == {(1, 0), (1, 2), (2, 6)}
    assert essential[(2, 6)].minimal_generators == (
        (-1, -4), (0, -1), (1, 2), (2, 5))
    assert essential[(2, 6)].smooth is False
    assert not step.all_smooth
    assert step.essential_count == 3


def test_reference_surface_order_two():
    step = nash_step(SURFACE, 2)
    assert (step.m_rows, step.d_cols) == (14, 5)
    assert step.exponents == S2_EXPECTED
    essential = {c.center: c for c in step.charts if c.essential}
    assert set(essential) == {(3, 0), (3, 8), (5, 15), (8, 24)}
    assert essential[(3, 0)].minimal_generators == ((0, 1), (1, 0))
    assert essential[(5, 15)].minimal_generators == ((-2, -7), (1, 3))
    assert essential[(8, 24)].minimal_generators == ((-1, -3), (2, 5))
    # (2, 7) = (5,15) - (3,8) has weight 1 for the separating functional
    # (4, -1), so it is irreducible and the chart needs a third generator
    assert essential[(3, 8)].minimal_generators == ((0, -1), (1, 3), (2, 7))
    assert essential[(3, 8)].smooth is False
    assert not step.all_smooth


# Order-3 essential charts of the reference surface: center -> (w, the two
# minimal generators, their determinant).
ORDER_THREE_CHARTS = {
    (7, 0): ((1, 1), ((0, 1), (1, 0)), -1),
    (7, 20): ((5, -1), ((0, -1), (1, 4)), 1),
    (9, 28): ((7, -2), ((-1, -4), (1, 3)), 1),
    (18, 55): ((8, -3), ((-1, -3), (2, 5)), 1),
}


def test_reference_surface_order_three():
    # C(34, 9) = 52,451,256 row subsets; the search evaluates 448 points.
    report = resolve(SURFACE, 3)
    assert (report.verdict, report.order) == ("smooth_at_order", 3)
    step = report.steps[-1]
    assert (step.m_rows, step.d_cols) == (34, 9)
    assert len(step.exponents) == 370
    assert step.search_nodes == 448
    essential = {c.center: c for c in step.charts if c.essential}
    assert set(essential) == set(ORDER_THREE_CHARTS)
    assert step.all_smooth
    # Each chart is certified smooth in integers: w.g >= 1 on every chart
    # generator, the two minimal generators have weight 1 and det +-1, and
    # member_certificate writes every generator as a sum of the two.
    for m0, (w, (g1, g2), det) in ORDER_THREE_CHARTS.items():
        chart = essential[m0]
        gens = set(SURFACE.columns) | {
            tuple(a - b for a, b in zip(m, m0)) for m in step.exponents}
        gens.discard((0, 0))
        assert set(chart.generators) == gens and len(gens) == 369
        assert chart.minimal_generators == (g1, g2)
        assert g1[0] * g2[1] - g1[1] * g2[0] == det
        assert dot(w, g1) == dot(w, g2) == 1
        assert all(dot(w, g) >= 1 for g in gens)
        for g in gens:
            lam = member_certificate(g, (g1, g2), w)
            assert lam is not None and all(
                lam[0] * x + lam[1] * y == v for x, y, v in zip(g1, g2, g))


@pytest.mark.parametrize("mode", ["pruned", "naive"])
def test_budget_checked_before_the_matrix(mode, monkeypatch):
    built = []
    monkeypatch.setattr(pipeline, "build_coeff_matrix",
                        lambda *a: built.append(a))
    with pytest.raises(BudgetExceeded, match="budget 10$"):
        nash_step(SURFACE, 2, StepConfig(mode=mode, budget_nodes=10))
    assert built == []


def test_default_budget_depends_on_the_mode():
    # The A6 cone at n = 2: C(35, 5) = 324,632 row subsets, within the
    # naive default of 5,000,000, while the default search interpolates.
    # At n = 3 the naive scan would take C(119, 9) determinants.
    A6 = GeneratorMatrix(columns=tuple((1, k) for k in range(7)))
    assert StepConfig().budget_nodes is None
    assert check_budget(A6, 2, "naive", None) == ("scan", None)
    assert check_budget(A6, 2, "pruned", None)[0] == "interpolate"
    with pytest.raises(BudgetExceeded, match="budget 5000000$"):
        check_budget(A6, 3, "naive", None)


def test_resolve_smooth_plane():
    report = resolve(SMOOTH_PLANE, 1)
    assert report.verdict == "smooth_at_order"
    assert report.order == 1


def test_resolve_reference_surface_exhausts_budget():
    report = resolve(SURFACE, 2)
    assert report.verdict == "budget_exhausted"
    assert report.order == 2
    assert len(report.steps) == 2


def test_naive_and_pruned_steps_agree():
    a = nash_step(SURFACE, 2, StepConfig(mode="pruned"))
    b = nash_step(SURFACE, 2, StepConfig(mode="naive"))
    assert a.exponents == b.exponents
    assert a.charts == b.charts


def test_order_one_matches_independent_subset_enumeration():
    # classical case: S is the set of sums over linearly independent
    # d-subsets of generator columns, shifted
    sigma = sigma_shift(SURFACE.d, 1)
    expected = set()
    for cols in combinations(SURFACE.columns, SURFACE.d):
        if det_cofactor([list(c) for c in cols]) != 0:
            m = tuple(sum(c[i] for c in cols) - sigma[i]
                      for i in range(SURFACE.d))
            expected.add(m)
    step = nash_step(SURFACE, 1)
    assert set(step.exponents) == expected


def test_workload_formulas():
    from math import comb
    for n in (1, 2):
        step = nash_step(SURFACE, n)
        assert step.m_rows == comb(n + SURFACE.s, SURFACE.s) - 1
        assert step.d_cols == comb(n + SURFACE.d, SURFACE.d) - 1


def test_step_report_roundtrip():
    step = nash_step(SURFACE, 1)
    blob = report_to_json(step)
    assert step_report_from_dict(json.loads(blob)) == step


def test_resolution_report_roundtrip():
    report = resolve(SURFACE, 2)
    blob = report_to_json(report)
    assert resolution_report_from_dict(json.loads(blob)) == report


def test_cyclic_quotient_basis_of_reference_cone():
    assert cyclic_quotient(2, 5) == SURFACE
    assert cyclic_quotient(1, 3).columns == ((1, 0), (1, 1), (1, 2), (1, 3))


@pytest.mark.parametrize("A, n, seed", [
    (SURFACE, 1, 1), (SURFACE, 2, 2),
    (cyclic_quotient(1, 3), 1, 3), (cyclic_quotient(1, 3), 2, 4),
    (cyclic_quotient(3, 5), 1, 5), (cyclic_quotient(3, 5), 2, 6),
    (cyclic_quotient(2, 7), 2, 7), (CONE3, 1, 8)],
    ids=["surface-1", "surface-2", "cq13-1", "cq13-2", "cq35-1", "cq35-2",
         "cq27-2", "cone3-1"])
def test_unimodular_invariance(A, n, seed):
    U = coordinate_change(seed, A.d)
    assert_covariant(
        A, GeneratorMatrix(columns=tuple(mul(U, g) for g in A.columns)), U, n)


@pytest.mark.parametrize("p, q, r", [(2, 3, 5), (2, 4, 7), (3, 5, 7)])
@pytest.mark.parametrize("n", [1, 2])
def test_ray_swap_covariance(p, q, r, n):
    # p*q = 1 mod r: U maps the rays (1,0), (p,r) to (q,r), (1,0), so it
    # maps the Hilbert basis of one cone onto that of the other.
    U = [[q, (1 - p * q) // r], [r, -p]]
    A, B = cyclic_quotient(p, r), cyclic_quotient(q, r)
    assert {mul(U, a) for a in A.columns} == set(B.columns)
    assert_covariant(A, B, U, n)


def assert_covariant(A, B, U, n):
    """The order-n step of B is that of A moved by U in GL_d(Z)."""
    # The program reports exponents minus sigma_n, so a moved exponent
    # U.e + U.sigma_n reads U.e + (U.sigma_n - sigma_n).
    sigma = sigma_shift(A.d, n)
    shift = tuple(a - b for a, b in zip(mul(U, sigma), sigma))

    def move(e):
        return tuple(a + b for a, b in zip(mul(U, e), shift))

    base = nash_step(A, n)
    moved = nash_step(B, n)
    assert set(moved.exponents) == {move(e) for e in base.exponents}
    essential = {move(c.center): c for c in base.charts if c.essential}
    moved_essential = {c.center: c for c in moved.charts if c.essential}
    assert set(moved_essential) == set(essential)
    for center, chart in essential.items():
        assert moved_essential[center].minimal_generators == tuple(
            sorted(mul(U, g) for g in chart.minimal_generators))
        assert moved_essential[center].smooth == chart.smooth
    assert moved.all_smooth == base.all_smooth
