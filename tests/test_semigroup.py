import random
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (CONE3, SURFACE, chart_certificate_holds, cyclic_quotient,
                      exhaustive_member)
from toricnash import lattice_geometry, semigroup
from toricnash.lattice_geometry import zspan_is_full
from toricnash.minors import nonzero_minor_exponents
from toricnash.monomial_jacobian import build_coeff_matrix
from toricnash.pipeline import nash_step
from toricnash.semigroup import (analyze_chart, chart_generators, member,
                                 member_certificate, minimal_generators)


def s_of(A, n):
    return nonzero_minor_exponents(build_coeff_matrix(A, n))


def s_at(n):
    return s_of(SURFACE, n)


def test_chart_generators_reference_order_one():
    S = s_at(1)
    gens = chart_generators(SURFACE, S, (2, 6))
    assert set(gens) == set(SURFACE.columns) | {
        (-1, -6), (-1, -5), (-1, -4), (0, -2), (0, -1)}


def test_chart_generators_rejects_bad_center():
    S = s_at(1)
    with pytest.raises(ValueError):
        chart_generators(SURFACE, S, (9, 9))


def test_chart_generators_drops_zero_and_duplicates():
    S = s_at(1)
    # center (1, 0) coincides with a generator column: the zero difference
    # and duplicate columns must not appear
    gens = chart_generators(SURFACE, S, (1, 0))
    assert (0, 0) not in gens
    assert len(set(gens)) == len(gens)


def test_chart_generators_order_two_last_center():
    S = s_at(2)
    gens = chart_generators(SURFACE, S, (8, 24))
    assert minimal_generators(gens) == ((-1, -3), (2, 5))


def test_shift_invariance():
    # chart differences computed from canonical S match those from raw S
    S = s_at(2)
    raw = S.raw()
    for m0c, m0r in [(S.exponents[0], raw[0]), (S.exponents[62], raw[62])]:
        canon = {tuple(a - b for a, b in zip(m, m0c))
                 for m in S.exponents if m != m0c}
        rawd = {tuple(a - b for a, b in zip(m, m0r))
                for m in raw if m != m0r}
        assert canon == rawd


def test_member_zero_target():
    assert member((0, 0), [(1, 0), (0, 1)], (1, 1))


def test_member_example():
    assert member((1, 2), [(0, -1), (1, 3)], (4, -1))


def test_member_parity_obstruction():
    assert not member((1, 1), [(2, 0), (0, 2)], (1, 1))


def test_member_matches_exhaustive_oracle():
    rng = random.Random(31)
    gens = [(0, -1), (1, 3), (2, 5)]
    w = (4, -1)
    for _ in range(40):
        target = (rng.randint(0, 4), rng.randint(-6, 8))
        budget = sum(wi * ti for wi, ti in zip(w, target))
        if budget < 0 or budget > 30:
            continue
        expected = exhaustive_member(target, gens, budget)
        assert member(target, gens, w) == expected
        lam = member_certificate(target, gens, w)
        assert (lam is not None) == expected
        if lam is not None:
            assert tuple(sum(l * g[i] for l, g in zip(lam, gens))
                         for i in range(2)) == target


def test_member_certificate_verifies():
    gens = [(0, -1), (1, 3), (2, 5)]
    w = (4, -1)
    lam = member_certificate((3, 7), gens, w)
    assert lam is not None
    total = [0, 0]
    for l, g in zip(lam, gens):
        total[0] += l * g[0]
        total[1] += l * g[1]
    assert tuple(total) == (3, 7)
    assert member_certificate((1, 4), gens, w) is None


def test_minimal_generators_simple():
    assert minimal_generators([(1, 0), (0, 1), (1, 1)]) == ((0, 1), (1, 0))


@st.composite
def weighted_sets(draw):
    """A functional w and generators g with 1 <= w.g <= 6, duplicates and
    equal weights included."""
    d = draw(st.sampled_from([2, 3]))
    w = draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d))
    assume(any(w))
    vec = st.lists(st.integers(-4, 4), min_size=d, max_size=d).map(tuple)
    gens = [g for g in draw(st.lists(vec, min_size=1, max_size=10))
            if 1 <= sum(a * b for a, b in zip(w, g)) <= 6]
    assume(gens)
    gens += draw(st.lists(st.sampled_from(gens), max_size=3))
    return gens, tuple(w)


@settings(max_examples=300, deadline=None)
@given(weighted_sets())
def test_minimal_generators_match_exhaustive_oracle(case):
    gens, w = case
    distinct = sorted(set(gens))
    expected = tuple(
        g for g in distinct
        if not exhaustive_member(g, [h for h in distinct if h != g],
                                 sum(a * b for a, b in zip(w, g))))
    assert minimal_generators(gens, w) == expected


def test_minimal_generators_reducible_without_two_term_split(monkeypatch):
    # (3,3) = 3(1,0) + 3(0,1), but no generator differs from it by another
    # generator, so the difference test passes it on and member drops it.
    calls = []
    member_ = semigroup.member
    monkeypatch.setattr(semigroup, "member",
                        lambda t, g, w: calls.append(t) or member_(t, g, w))
    assert minimal_generators([(1, 0), (0, 1), (3, 3)]) == ((0, 1), (1, 0))
    assert (3, 3) in calls


def test_minimal_generators_idempotent():
    gens = chart_generators(SURFACE, s_at(1), (2, 6))
    g1 = minimal_generators(gens)
    assert minimal_generators(g1) == g1


def test_minimal_generators_reference_order_one():
    gens = chart_generators(SURFACE, s_at(1), (2, 6))
    assert minimal_generators(gens) == ((-1, -4), (0, -1), (1, 2), (2, 5))


def test_minimal_generators_order_independent():
    rng = random.Random(41)
    gens = list(chart_generators(SURFACE, s_at(1), (2, 6)))
    expected = minimal_generators(gens)
    for _ in range(20):
        rng.shuffle(gens)
        assert minimal_generators(gens) == expected


def test_minimal_generators_rejects_non_essential():
    with pytest.raises(ValueError):
        minimal_generators([(1, 0), (-1, 0)])


def test_removed_generators_are_certified_combinations():
    from toricnash.lattice_geometry import positive_functional
    gens = chart_generators(SURFACE, s_at(1), (2, 6))
    mingens = minimal_generators(gens)
    w = positive_functional(list(gens))
    for g in gens:
        if g in mingens:
            continue
        lam = member_certificate(g, list(mingens), w)
        assert lam is not None
        total = [0] * len(g)
        for l, h in zip(lam, mingens):
            for i, v in enumerate(h):
                total[i] += l * v
        assert tuple(total) == g


def test_analyze_chart_reference_order_one():
    chart = analyze_chart(SURFACE, s_at(1), (2, 6))
    assert chart.essential
    assert chart.minimal_generators == ((-1, -4), (0, -1), (1, 2), (2, 5))
    assert chart.smooth is False


@pytest.mark.parametrize("n", [1, 2])
def test_chart_generators_span_the_lattice(n):
    # Chart generators contain A, which spans Z^d, so every chart's
    # generators do too; no per-chart check is needed in the pipeline.
    for chart in nash_step(SURFACE, n).charts:
        assert zspan_is_full(chart.generators)


def count_certificates(monkeypatch):
    """Record the point set of every origin_certificate call."""
    calls = []
    certificate = lattice_geometry.origin_certificate
    monkeypatch.setattr(lattice_geometry, "origin_certificate",
                        lambda points: calls.append(tuple(points))
                        or certificate(points))
    return calls


@pytest.mark.parametrize("n, skipped", [(1, 3), (2, 59)])
def test_skipped_charts_hold_a_zero_sum_pair(n, skipped, monkeypatch):
    # Every non-essential chart of the reference surface holds g and -g,
    # and the chart layer skips it without calling origin_certificate.
    calls = count_certificates(monkeypatch)
    step = nash_step(SURFACE, n)
    charts = [c for c in step.charts if not c.essential]
    assert len(charts) == skipped
    assert all(chart_certificate_holds(c.generators, None) for c in charts)
    # one call checks the input; one per essential chart decides it
    assert calls == [SURFACE.columns] + [
        c.generators for c in step.charts if c.essential]


@pytest.mark.parametrize("A, n", [(cyclic_quotient(p, r), n)
                                  for r in range(2, 8) for p in range(1, r)
                                  if gcd(p, r) == 1 for n in (1, 2)]
                         + [(CONE3, 1), (CONE3, 2)])
def test_chart_skip_is_exactly_a_pair(A, n, monkeypatch):
    S = s_of(A, n)
    calls = count_certificates(monkeypatch)
    for m0 in S.exponents:
        calls.clear()
        chart = analyze_chart(A, S, m0)
        assert (not calls) == chart_certificate_holds(chart.generators, None)
        assert not calls or calls == [chart.generators]


def test_analyze_chart_non_essential():
    chart = analyze_chart(SURFACE, s_at(2), (4, 0))
    assert not chart.essential
    assert chart.minimal_generators is None
    assert chart.smooth is None


def test_analyze_chart_order_two_smooth():
    chart = analyze_chart(SURFACE, s_at(2), (3, 0))
    assert chart.essential
    assert chart.minimal_generators == ((0, 1), (1, 0))
    assert chart.smooth is True
