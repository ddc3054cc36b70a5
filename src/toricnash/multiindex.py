"""Multi-index combinatorics: graded-lex enumeration, factorials, binomials.

Multi-indices are plain tuples of non-negative ints.  The order used
everywhere is graded lexicographic with the first coordinate most
significant, so for two variables the degree-2 slice reads
(2,0), (1,1), (0,2).
"""

from math import comb, factorial


def grlex_key(gamma):
    """Sort key realizing the graded-lex order used for rows and columns."""
    return (sum(gamma), tuple(-g for g in gamma))


def degree_slice(t, k):
    """All multi-indices of length t with |gamma| = k, in grlex order."""
    if t == 1:
        yield (k,)
        return
    for first in range(k, -1, -1):
        for rest in degree_slice(t - 1, k - first):
            yield (first,) + rest


def enumerate_lambda(t, n):
    """All gamma in N^t with 1 <= |gamma| <= n, sorted by (degree, lex).

    The result has length C(n+t, t) - 1.
    """
    if t < 1 or n < 1:
        raise ValueError("need t >= 1 and n >= 1, got t=%r n=%r" % (t, n))
    out = []
    for k in range(1, n + 1):
        out.extend(degree_slice(t, k))
    return out


def lambda_size(t, n):
    return comb(n + t, t) - 1


def multi_factorial(alpha):
    out = 1
    for a in alpha:
        out *= factorial(a)
    return out


def multi_binomial(beta, gamma):
    """Product of coordinate-wise binomials; 0 when gamma is not <= beta."""
    if len(beta) != len(gamma):
        raise ValueError("length mismatch: %d vs %d" % (len(beta), len(gamma)))
    out = 1
    for b, g in zip(beta, gamma):
        out *= comb(b, g)
        if out == 0:
            return 0
    return out


def sub_indices(beta):
    """All gamma with 0 <= gamma <= beta coordinate-wise (odometer order)."""
    if not beta:
        yield ()
        return
    for first in range(beta[0] + 1):
        for rest in sub_indices(beta[1:]):
            yield (first,) + rest
