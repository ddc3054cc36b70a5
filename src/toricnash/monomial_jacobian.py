"""Closed-form coefficient matrix of the order-n Jacobian of a monomial map.

For the map x -> (x^{a_1}, ..., x^{a_s}) the order-n Jacobian factors
entry-wise as c_{beta,alpha} * x^{A beta - alpha}; only the constants
c_{beta,alpha} and the exponents matter, so no series arithmetic is done
here.  Negative generator coordinates are fine: the map lives on the
torus and nothing is ever evaluated at 0.
"""

from dataclasses import dataclass
from fractions import Fraction

from .multiindex import (enumerate_lambda, multi_binomial, multi_factorial,
                         sub_indices)


@dataclass(frozen=True)
class GeneratorMatrix:
    """The d x s integer matrix A whose columns generate the semigroup."""

    columns: tuple

    def __post_init__(self):
        cols = tuple(tuple(int(v) for v in c) for c in self.columns)
        object.__setattr__(self, "columns", cols)
        if not cols:
            raise ValueError("need at least one generator")
        d = len(cols[0])
        if d < 1 or any(len(c) != d for c in cols):
            raise ValueError("generator columns must share a positive dimension")

    @property
    def d(self):
        return len(self.columns[0])

    @property
    def s(self):
        return len(self.columns)

    def row(self, i):
        return tuple(c[i] for c in self.columns)

    def apply(self, gamma):
        """A*gamma, the exponent of X^{A gamma}."""
        if len(gamma) != self.s:
            raise ValueError("gamma has length %d, expected %d"
                             % (len(gamma), self.s))
        return tuple(sum(c[i] * g for c, g in zip(self.columns, gamma))
                     for i in range(self.d))


def b_coeff(gamma, alpha, A):
    """Falling-factorial product prod_i prod_{j<alpha(i)} (A_i.gamma - j)."""
    if len(gamma) != A.s or len(alpha) != A.d:
        raise ValueError("index lengths do not match the generator matrix")
    agamma = A.apply(gamma)
    out = 1
    for ai, k in zip(agamma, alpha):
        for j in range(k):
            out *= ai - j
            if out == 0:
                return 0
    return out


def c_coeff(beta, alpha, A):
    """Alternating sum over 0 != gamma <= beta, divided by alpha!.

    The sum vanishes when |alpha| < |beta|, so it is not formed there.
    """
    deg_beta = sum(beta)
    if sum(alpha) < deg_beta:
        return Fraction(0)
    total = 0
    for gamma in sub_indices(beta):
        if not any(gamma):
            continue
        b = b_coeff(gamma, alpha, A)
        if b == 0:
            continue
        sign = -1 if (deg_beta - sum(gamma)) % 2 else 1
        total += sign * multi_binomial(beta, gamma) * b
    return Fraction(total, multi_factorial(alpha))


@dataclass(frozen=True)
class CoeffMatrix:
    """M x D matrix (c_{beta,alpha}) in grlex order, plus its exponents."""

    A: GeneratorMatrix
    order: int
    row_index: tuple   # Lambda_{s,n}
    col_index: tuple   # Lambda_{d,n}
    entries: tuple     # Fractions

    @property
    def shape(self):
        return (len(self.row_index), len(self.col_index))

    def exponent(self, beta, alpha):
        """A*beta - alpha, the monomial exponent attached to entry (beta, alpha)."""
        abeta = self.A.apply(beta)
        return tuple(a - b for a, b in zip(abeta, alpha))

    def scaled_entries(self):
        """Column alpha multiplied by alpha!; always integral.

        Positive column scalings do not change which maximal minors
        vanish, and they keep determinant work in Z.
        """
        facts = [multi_factorial(alpha) for alpha in self.col_index]
        rows = []
        for row in self.entries:
            scaled = []
            for c, f in zip(row, facts):
                v = c * f
                if v.denominator != 1:
                    raise AssertionError("scaled entry not integral: %r" % (v,))
                scaled.append(v.numerator)
            rows.append(tuple(scaled))
        return tuple(rows)


def build_coeff_matrix(A, n):
    if n < 1:
        raise ValueError("order must be >= 1")
    rows_idx = tuple(enumerate_lambda(A.s, n))
    cols_idx = tuple(enumerate_lambda(A.d, n))
    entries = tuple(tuple(c_coeff(beta, alpha, A) for alpha in cols_idx)
                    for beta in rows_idx)
    return CoeffMatrix(A=A, order=n, row_index=rows_idx, col_index=cols_idx,
                       entries=entries)
