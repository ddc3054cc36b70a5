import random
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

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


def _evaluated_minors(L, mode, monkeypatch):
    """The submatrices whose determinant the search evaluates, with counts."""
    seen = Counter()

    def recording(mat):
        seen[tuple(map(tuple, mat))] += 1
        return det_exact(mat)

    with monkeypatch.context() as mp:
        mp.setattr(minors, "det_exact", recording)
        nonzero_minor_exponents(L, mode=mode)
    return seen


@pytest.mark.parametrize("cols, n, some_skipped", [
    (SURFACE.columns, 2, True),
    (((1, 0), (-1, 4), (0, 1)), 2, True),
    (((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)), 1, False),
    (tuple((1, i) for i in range(7)), 1, False),
])
def test_degree_filter_skips_only_singular_subsets(cols, n, some_skipped,
                                                   monkeypatch):
    L = build_coeff_matrix(GeneratorMatrix(columns=cols), n)
    every = _evaluated_minors(L, "naive", monkeypatch)
    kept = _evaluated_minors(L, "pruned", monkeypatch)
    assert sum(every.values()) == comb(*L.shape)
    skipped = every - kept
    assert sum(kept.values()) + sum(skipped.values()) == comb(*L.shape)
    assert bool(skipped) == some_skipped
    for mat in skipped:
        assert det_cofactor([list(row) for row in mat]) == 0


def test_budget_exceeded():
    L = build_coeff_matrix(SURFACE, 2)
    with pytest.raises(BudgetExceeded):
        nonzero_minor_exponents(L, mode="naive", budget_nodes=10)
    with pytest.raises(BudgetExceeded):
        nonzero_minor_exponents(L, mode="pruned", budget_nodes=10)


@pytest.mark.parametrize("mode", ["pruned", "naive"])
def test_budget_checked_before_any_determinant(mode, monkeypatch):
    L = build_coeff_matrix(SURFACE, 2)  # C(14, 5) = 2002 row subsets
    calls = []
    monkeypatch.setattr(minors, "det_exact", lambda mat: calls.append(mat))
    with pytest.raises(BudgetExceeded, match=r"C\(14, 5\) = 2002 .* 2001"):
        nonzero_minor_exponents(L, mode=mode, budget_nodes=2001)
    assert calls == []


@pytest.mark.parametrize("mode", ["pruned", "naive"])
def test_budget_equal_to_subset_count_suffices(mode):
    L = build_coeff_matrix(SURFACE, 2)
    stats = {}
    S = nonzero_minor_exponents(L, mode=mode, budget_nodes=2002, stats=stats)
    assert S.exponents == S2_EXPECTED
    assert stats == {"nodes": 2002, "mode": mode}


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
