from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from toricnash.lattice_geometry import (_phase_one, contains_origin,
                                        origin_certificate,
                                        positive_functional, zspan_is_full)

point_sets = st.integers(1, 3).flatmap(
    lambda d: st.lists(
        st.tuples(*[st.integers(-9, 9)] * d), min_size=1, max_size=8))


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def test_positive_orthant():
    assert not contains_origin([(1, 0), (0, 1)])


def test_opposite_points():
    assert contains_origin([(1, 0), (-1, 0)])


def is_convex_zero(points, cert):
    """Whether cert is a convex combination of the points that hits 0."""
    return (all(c >= 0 for c in cert) and sum(cert) == 1
            and all(sum(c * p[i] for c, p in zip(cert, points)) == 0
                    for i in range(len(points[0]))))


def test_zero_point_short_circuit():
    assert contains_origin([(3, 4), (0, 0)])
    points = [(3, 4), (0, 0), (0, 0)]
    kind, cert = origin_certificate(points)
    assert kind == "inside" and is_convex_zero(points, cert)


def test_pair_certificate_puts_half_on_each_point():
    points = [(2, 1), (0, 5), (-2, -1)]
    kind, cert = origin_certificate(points)
    assert kind == "inside" and is_convex_zero(points, cert)


def test_no_pair_goes_to_the_simplex():
    points = [(1, 0), (-1, 1), (0, -1)]
    assert origin_certificate(points) == _phase_one(points) == (
        "inside", [Fraction(1, 3)] * 3)


@st.composite
def planted_pairs(draw):
    """A point set with -p inserted for one of its points p."""
    points = draw(point_sets)
    p = draw(st.sampled_from(points))
    at = draw(st.integers(0, len(points)))
    return points[:at] + [tuple(-v for v in p)] + points[at:]


@settings(max_examples=200, deadline=None)
@given(planted_pairs())
def test_planted_pair_agrees_with_simplex(points):
    kind, cert = origin_certificate(points)
    assert kind == _phase_one(points)[0] == "inside"
    assert is_convex_zero(points, cert)


def test_empty_rejected():
    with pytest.raises(ValueError):
        contains_origin([])


def test_reference_chart_is_essential():
    pts = [(1, 0), (1, 1), (1, 2), (2, 5),
           (-1, -6), (-1, -5), (-1, -4), (0, -2), (0, -1)]
    assert not contains_origin(pts)
    w = positive_functional(pts)
    assert all(dot(w, p) >= 1 for p in pts)


def test_positive_functional_examples():
    w = positive_functional([(1, 0), (0, 1)])
    assert dot(w, (1, 0)) >= 1 and dot(w, (0, 1)) >= 1
    assert positive_functional([(1, 0), (-1, 0)]) is None
    w = positive_functional([(0, -1), (1, 3)])
    assert dot(w, (0, -1)) >= 1 and dot(w, (1, 3)) >= 1


@settings(max_examples=300, deadline=None)
@given(point_sets)
def test_farkas_duality(points):
    kind, cert = origin_certificate(points)
    assert kind == _phase_one(points)[0]
    if kind == "inside":
        assert is_convex_zero(points, cert)
        assert positive_functional(points) is None
    else:
        assert all(dot(cert, p) >= 1 for p in points)
        assert not contains_origin(points)


@given(point_sets, st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_containment_invariant_under_permutation_and_scaling(points, rng):
    base = contains_origin(points)
    shuffled = list(points)
    rng.shuffle(shuffled)
    factors = [rng.randint(1, 4) for _ in shuffled]
    scaled = [tuple(v * c for v in p) for c, p in zip(factors, shuffled)]
    assert contains_origin(scaled) == base


def test_zspan_basic():
    assert zspan_is_full([(1, 0), (0, 1)])
    assert not zspan_is_full([(2, 0), (0, 2)])
    assert zspan_is_full([(1, 0), (1, 1), (1, 2), (2, 5)])


def test_zspan_too_few_points():
    assert not zspan_is_full([(1, 2)])


def test_zspan_rank_deficient():
    assert not zspan_is_full([(1, 2), (2, 4), (3, 6)])


def test_zspan_needs_unimodular_combination():
    # determinants 2 and 3 but gcd of all 2x2 minors is 1
    assert zspan_is_full([(2, 0), (0, 1), (3, 1)])
