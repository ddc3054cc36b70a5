"""Affine-semigroup computations on chart generator sets.

A chart is centered at an exponent m0 of the minor set S and generated
by A together with the differences m - m0.  When the chart is essential
(origin outside the convex hull) the semigroup is pointed, its minimal
generating set is unique, and the chart is non-singular exactly when
that set has d elements.
"""

from dataclasses import dataclass
from operator import sub

from . import lattice_geometry


@dataclass(frozen=True)
class Chart:
    center: tuple
    generators: tuple            # deduplicated, lex-sorted, zero removed
    essential: bool
    minimal_generators: tuple = None   # present iff essential
    smooth: bool = None                # present iff essential


def chart_generators(A, S, m0):
    """A union {m - m0 : m in S, m != m0}, deduplicated and lex-sorted.

    The zero vector m0 - m0 is dropped: it generates nothing and would
    falsely trip the essentiality test.
    """
    m0 = tuple(m0)
    if m0 not in S:
        raise ValueError("center %r is not an exponent of S" % (m0,))
    gens = set(A.columns)
    gens.update(tuple(map(sub, m, m0)) for m in S.exponents)
    gens.discard((0,) * A.d)
    return tuple(sorted(gens))


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def member_certificate(target, gens, w):
    """Multipliers lambda with sum lambda_i g_i = target, or None.

    w must be a functional with w.g >= 1 for every generator; it bounds
    the search since each step consumes at least one unit of w-weight.
    The search is depth-first with an explicit stack: generators are tried
    heaviest-first, a state (remainder, position) only uses generators
    from its position on, and failed states are remembered.
    """
    target = tuple(target)
    gens = [tuple(g) for g in gens]
    order = sorted(range(len(gens)), key=lambda j: -_dot(w, gens[j]))
    weights = [_dot(w, gens[j]) for j in order]
    zero = (0,) * len(target)
    lam = [0] * len(gens)
    if target == zero:
        return tuple(lam)
    wt = _dot(w, target)
    if wt < 1:
        return None
    failed = set()
    # Frames hold [remainder, its weight, start, next position]; a frame's
    # next position minus one is the generator it took.
    stack = [[target, wt, 0, 0]]
    while stack:
        frame = stack[-1]
        t, wt, start, pos = frame
        while pos < len(order) and weights[pos] > wt:
            pos += 1
        if pos == len(order):
            failed.add((t, start))
            stack.pop()
            continue
        frame[3] = pos + 1
        g = gens[order[pos]]
        rest = tuple(a - b for a, b in zip(t, g))
        if rest == zero:
            for f in stack:
                lam[order[f[3] - 1]] += 1
            return tuple(lam)
        rest_wt = wt - weights[pos]
        if rest_wt < 1 or (rest, pos) in failed:
            continue
        stack.append([rest, rest_wt, pos, pos])
    return None


def member(target, gens, w):
    """Whether target is an N-combination of gens (see member_certificate)."""
    return member_certificate(target, gens, w) is not None


def minimal_generators(gens, w=None):
    """Unique inclusion-minimal generating subset of a pointed semigroup.

    w is a functional with w.g >= 1 on every generator; when None it is
    computed.  One pass in increasing w-weight keeps each generator g
    unless g - h is a generator for some kept h, or g is a member of the
    kept set.  Every summand of a reducible g weighs at least 1, so g is a
    sum of strictly lighter irreducibles, all kept before g is reached.  A
    kept h of the same weight as g cannot help, since g - h would weigh 0.
    """
    gens = sorted({tuple(g) for g in gens})
    zero = (0,) * len(gens[0])
    gens = [g for g in gens if g != zero]
    if w is None:
        w = lattice_geometry.positive_functional(gens)
    if w is None:
        raise ValueError("generators are not essential; "
                         "minimal generating set is not unique")
    present = set(gens)
    keep = []
    for g in sorted(gens, key=lambda g: _dot(w, g)):
        if any(tuple(a - b for a, b in zip(g, h)) in present for h in keep):
            continue
        if not member(g, keep, w):
            keep.append(g)
    return tuple(sorted(keep))


def analyze_chart(A, S, m0):
    """Build the chart at m0 and classify it, skipping it without an LP
    when its generators hold a pair g, -g, which is read off S."""
    gens = chart_generators(A, S, m0)
    m0 = tuple(m0)
    # A is pointed (validate_input), so a pair is a, -a = (m0 - a) - m0 for
    # an a in A, or m - m0, -(m - m0) = (2*m0 - m) - m0 for an m != m0.
    pair = (any(tuple(map(sub, m0, a)) in S for a in A.columns)
            or any(m != m0 and tuple(2 * c - e for c, e in zip(m0, m)) in S
                   for m in S.exponents))
    kind, cert = (("inside", None) if pair
                  else lattice_geometry.origin_certificate(gens))
    if kind == "inside":
        return Chart(center=m0, generators=gens, essential=False)
    mingens = minimal_generators(gens, cert)
    return Chart(center=m0, generators=gens, essential=True,
                 minimal_generators=mingens,
                 smooth=(len(mingens) == A.d))
