import random
from fractions import Fraction
from math import comb, prod

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (S1_EXPECTED, S2_EXPECTED, SURFACE, det_cofactor,
                      det_gauss, jet_exponent_oracle, rank_rational)
from toricnash import minors
from toricnash.minors import (BudgetExceeded, det_exact,
                              nonzero_minor_exponents, sigma_shift)
from toricnash.monomial_jacobian import GeneratorMatrix, build_coeff_matrix


def test_det_identity():
    assert det_exact([[int(i == j) for j in range(5)] for i in range(5)]) == 1


def test_det_small():
    assert det_exact([[2, 1], [1, 1]]) == 1


def test_det_against_cofactor_oracle():
    L = build_coeff_matrix(SURFACE, 2)
    scaled = L.scaled_entries()
    first_five = [list(scaled[i]) for i in range(5)]
    assert det_exact(first_five) == det_cofactor(first_five)
    rng = random.Random(3)
    for _ in range(20):
        k = rng.randint(1, 5)
        m = [[rng.randint(-5, 5) for _ in range(k)] for _ in range(k)]
        assert det_exact(m) == det_cofactor(m)


def test_sigma_shift():
    assert sigma_shift(2, 1) == (1, 1)
    assert sigma_shift(2, 2) == (4, 4)


def test_surface_order_one_exponents():
    S = nonzero_minor_exponents(build_coeff_matrix(SURFACE, 1))
    assert S.exponents == S1_EXPECTED
    assert S.shift == (1, 1)


def test_surface_order_two_exponents():
    S = nonzero_minor_exponents(build_coeff_matrix(SURFACE, 2))
    assert S.exponents == S2_EXPECTED
    assert S.shift == (4, 4)


def test_identity_generators_give_origin():
    A = GeneratorMatrix(columns=((1, 0), (0, 1)))
    S = nonzero_minor_exponents(build_coeff_matrix(A, 1))
    assert S.exponents == ((0, 0),)


def test_raw_form_adds_shift():
    S = nonzero_minor_exponents(build_coeff_matrix(SURFACE, 1))
    assert S.raw() == tuple(tuple(a + b for a, b in zip(e, (1, 1)))
                            for e in S.exponents)


def test_witnesses_certify_nonzero_minors():
    L = build_coeff_matrix(SURFACE, 2)
    S = nonzero_minor_exponents(L)
    scaled = L.scaled_entries()
    idx = {b: i for i, b in enumerate(L.row_index)}
    for exp, J in S.witnesses.items():
        mat = [list(scaled[idx[b]]) for b in J]
        assert det_exact(mat) != 0
        m = [0] * SURFACE.d
        for b in J:
            for i, v in enumerate(SURFACE.apply(b)):
                m[i] += v
        assert tuple(a - b for a, b in zip(m, S.shift)) == exp


def test_every_exponent_plus_shift_in_semigroup():
    from toricnash.semigroup import member
    L = build_coeff_matrix(SURFACE, 2)
    S = nonzero_minor_exponents(L)
    w = (1, 0)  # positive on every generator column
    for exp in S.exponents:
        raw = tuple(a + b for a, b in zip(exp, S.shift))
        assert member(raw, SURFACE.columns, w)


def test_pruned_equals_naive():
    cases = [(SURFACE, 1), (SURFACE, 2)]
    rng = random.Random(17)
    for _ in range(6):
        d = 2
        s = rng.randint(2, 4)
        cols = tuple(tuple(rng.randint(-3, 3) for _ in range(d))
                     for _ in range(s))
        try:
            A = GeneratorMatrix(columns=cols)
        except ValueError:
            continue
        cases.append((A, rng.randint(1, 2)))
    cases.append((GeneratorMatrix(columns=((1, 0, 0), (0, 1, 0), (0, 0, 1),
                                           (1, 1, 1))), 2))
    for A, n in cases:
        L = build_coeff_matrix(A, n)
        a = nonzero_minor_exponents(L, mode="pruned")
        b = nonzero_minor_exponents(L, mode="naive")
        assert a.exponents == b.exponents
        assert a.witnesses == b.witnesses


@st.composite
def small_inputs(draw):
    """(A, n) with d <= 4, n <= 2 (n = 1 at d = 4), s >= d and
    C(M, D) <= 2002; columns may repeat, vanish or fail to span, so C may
    have rank < D."""
    d = draw(st.integers(1, 4))
    n = draw(st.integers(1, 2 if d < 4 else 1))
    s = draw(st.integers(d, 4 if n == 2 and d > 1 else 6))
    cols = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * d),
                         min_size=s, max_size=s))
    return GeneratorMatrix(columns=tuple(cols)), n


def interpolated(L):
    """S by the interpolation alone, whichever search the plan picks."""
    weights = [L.A.apply(beta) for beta in L.row_index]
    U, widths = minors._reduction(weights, L.shape[1])
    assert len(U) == L.A.d and abs(det_exact(U)) == 1
    stats = {}
    S = nonzero_minor_exponents(L, stats=stats, plan=("interpolate", U))
    assert 0 < stats["nodes"] <= prod(widths) or not S.exponents
    return S.exponents


@settings(max_examples=80, deadline=None)
@given(small_inputs())
def test_default_search_equals_naive(case):
    A, n = case
    L = build_coeff_matrix(A, n)
    assert comb(*L.shape) <= 2002
    naive = nonzero_minor_exponents(L, mode="naive").exponents
    stats = {}
    assert nonzero_minor_exponents(L, stats=stats).exponents == naive
    assert stats["nodes"] <= comb(*L.shape)
    if A.d < 4:                       # small loose boxes only
        assert interpolated(L) == naive


@pytest.mark.parametrize("n", [1, 2])
def test_interpolation_in_four_dimensions(n):
    # cone(e1, ..., e4, e1 + ... + e4); at n = 2, C is 20 x 14 and the
    # naive scan takes C(20, 14) = 38,760 determinants.
    A = GeneratorMatrix(columns=tuple(
        tuple(int(i == j) for j in range(4)) for i in range(4))
        + ((1, 1, 1, 1),))
    L = build_coeff_matrix(A, n)
    S = interpolated(L)
    assert S == nonzero_minor_exponents(L, mode="naive").exponents
    assert len(S) == {1: 5, 2: 499}[n]


def test_few_rows_with_large_coordinates_are_scanned():
    # The loose box is 301 x 301 = 90,601 points, but C(4, 2) = 6 row
    # subsets: the default search scans them.
    A = GeneratorMatrix(columns=((1, 0), (0, 1), (1, 300), (300, 1)))
    assert minors.check_budget(A, 1, "pruned", None) == ("scan", None)
    L = build_coeff_matrix(A, 1)
    stats = {}
    S = nonzero_minor_exponents(L, stats=stats)
    assert stats == {"nodes": 6, "mode": "pruned"}
    assert S.exponents == nonzero_minor_exponents(L, mode="naive").exponents


def test_witnesses_are_read_lazily(monkeypatch):
    L = build_coeff_matrix(SURFACE, 2)
    scans = []
    scan = minors._scan
    monkeypatch.setattr(minors, "_scan",
                        lambda *a: scans.append(a) or scan(*a))
    S = nonzero_minor_exponents(L)
    assert scans == []
    witnesses = S.witnesses
    assert len(scans) == 1
    assert S.witnesses is witnesses and len(scans) == 1
    assert list(witnesses) == list(S2_EXPECTED)
    assert S.members == frozenset(S2_EXPECTED)
    assert [3, 8] in S and (3, 9) not in S


@pytest.mark.parametrize("modulus, bound", [
    (1, 1), (6, 10 ** 6), (16 * 44, 2 ** 40), (27 * 16, 3 ** 20), (35, 7)])
def test_proved_prime(modulus, bound):
    p = minors._proved_prime(modulus, bound)
    assert p > bound and (p - 1) % modulus == 0
    two = (p - 1) & -(p - 1)          # the power of two in p - 1
    assert two * two > p
    assert all(p % q for q in range(2, min(p, 10 ** 6)))
    w = minors._root_of_unity(modulus, p)
    assert pow(w, modulus, p) == 1
    assert all(pow(w, k, p) != 1 for k in range(1, modulus))


def test_budget_exceeded():
    L = build_coeff_matrix(SURFACE, 2)
    with pytest.raises(BudgetExceeded):
        nonzero_minor_exponents(L, mode="naive", budget_nodes=10)
    with pytest.raises(BudgetExceeded):
        nonzero_minor_exponents(L, mode="pruned", budget_nodes=10)


# Surface n=2: C(14, 5) = 2002 row subsets; the loose reduced box is
# 9 x 16 = 144 points, of which the exact box holds 6 x 13 = 78.
NODES = {"naive": (2002, r"C\(14, 5\) = 2002 row subsets", 2002),
         "pruned": (144, r"up to 144 evaluation points \(box 9 x 16\)", 78)}


@pytest.mark.parametrize("mode", ["pruned", "naive"])
def test_budget_checked_before_any_determinant(mode, monkeypatch):
    L = build_coeff_matrix(SURFACE, 2)
    bound, message, _ = NODES[mode]
    # Neither search starts: no minor of C is taken, no point evaluated.
    calls = []
    for search in ("_support", "_scan"):
        monkeypatch.setattr(minors, search, lambda *a: calls.append(a))
    with pytest.raises(BudgetExceeded,
                       match="%s, budget %d$" % (message, bound - 1)):
        nonzero_minor_exponents(L, mode=mode, budget_nodes=bound - 1)
    assert calls == []


@pytest.mark.parametrize("mode", ["pruned", "naive"])
def test_budget_equal_to_subset_count_suffices(mode):
    L = build_coeff_matrix(SURFACE, 2)
    bound, _, nodes = NODES[mode]
    stats = {}
    S = nonzero_minor_exponents(L, mode=mode, budget_nodes=bound,
                                stats=stats)
    assert S.exponents == S2_EXPECTED
    assert stats == {"nodes": nodes, "mode": mode}


def test_degenerate_matrix_rejected():
    A = GeneratorMatrix(columns=((1, 0),))
    L = build_coeff_matrix(A, 1)
    with pytest.raises(ValueError):
        nonzero_minor_exponents(L)


def test_factorization_of_evaluated_minors():
    # det of the evaluated submatrix equals x^m * det(L_J^c)
    rng = random.Random(23)
    L = build_coeff_matrix(SURFACE, 2)
    S = nonzero_minor_exponents(L)
    idx = {b: i for i, b in enumerate(L.row_index)}
    items = list(S.witnesses.items())
    for _ in range(20):
        exp, J = rng.choice(items)
        x = tuple(Fraction(rng.choice([1, 2, 3, -2]), rng.randint(1, 3))
                  for _ in range(SURFACE.d))
        evaluated = []
        for b in J:
            row = []
            for ai, alpha in enumerate(L.col_index):
                v = L.entries[idx[b]][ai]
                for xi, e in zip(x, L.exponent(b, alpha)):
                    v *= Fraction(xi) ** e
                row.append(v)
            evaluated.append(row)
        const = det_gauss([[L.entries[idx[b]][ai]
                            for ai in range(len(L.col_index))] for b in J])
        scale = Fraction(1)
        for xi, e in zip(x, exp):
            scale *= Fraction(xi) ** e
        assert det_gauss(evaluated) == scale * const


def test_taylor_independence_criterion():
    # det(L_J^c) != 0 iff the truncated Taylor rows are independent at x
    from toricnash.jets import Poly, jet_jacobian
    A = GeneratorMatrix(columns=((1, 0), (1, 1), (0, 1)))
    n = 2
    L = build_coeff_matrix(A, n)
    g = [Poly.monomial(A.d, c) for c in A.columns]
    x = (Fraction(5, 3), Fraction(-3, 7))
    JM = jet_jacobian(g, x, n)
    from itertools import combinations
    D = L.shape[1]
    scaled = L.scaled_entries()
    for rows in combinations(range(L.shape[0]), D):
        dc = det_exact([list(scaled[r]) for r in rows])
        taylor_rank = rank_rational([JM.entries[r] for r in rows])
        assert (dc != 0) == (taylor_rank == D)


def test_matches_pure_jet_oracle():
    A = GeneratorMatrix(columns=((1, 0), (1, 1), (0, 1)))
    S = nonzero_minor_exponents(build_coeff_matrix(A, 2))
    oracle = jet_exponent_oracle(A, 2, (Fraction(7, 5), Fraction(3, 2)))
    assert set(S.exponents) == oracle
