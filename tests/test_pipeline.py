import json
from itertools import combinations

import pytest

from conftest import S1_EXPECTED, S2_EXPECTED, SURFACE, det_cofactor
from toricnash.minors import sigma_shift
from toricnash.monomial_jacobian import GeneratorMatrix
from toricnash.pipeline import (InputError, StepConfig, nash_step, resolve,
                                resolution_report_from_dict,
                                resolution_report_to_dict,
                                step_report_from_dict, step_report_to_dict)

SMOOTH_PLANE = GeneratorMatrix(columns=((1, 0), (0, 1)))


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
    blob = json.dumps(step_report_to_dict(step))
    assert step_report_from_dict(json.loads(blob)) == step


def test_resolution_report_roundtrip():
    report = resolve(SURFACE, 2)
    blob = json.dumps(resolution_report_to_dict(report))
    assert resolution_report_from_dict(json.loads(blob)) == report
