"""Answer checking for one CLI call: pinned answers and structural checks.

An answer is what the mathematics fixes, not the JSON bytes: per step
the order, the exponent set S, the essential centers, each essential
chart's minimal generators and smooth flag; per item the exit code and
so the number of steps and the first smooth order.

Under a change of coordinates U the pinned answer is checked as moved by
U, exactly: minimal generators mapped by U, verdicts equal, and S and the
centers mapped by U and then translated by U*sigma_n - sigma_n.  The
program prints canonical exponents m - sigma_n, where sigma_n is the
coordinate-wise sum of Lambda_{d,n} and does not depend on U; so a raw
exponent m = c + sigma_n moves to U*m - sigma_n = U*c + (U*sigma_n - sigma_n).
At seed 0 (U = 1) the translation is zero.
"""

from itertools import product

from corpus import apply


def answer(code, doc, command):
    """The answer of one `step` or `resolve` call from its JSON output."""
    steps = doc["steps"] if command == "resolve" else [doc]
    return {"exit": code, "steps": [{
        "order": s["order"],
        "exponents": sorted(tuple(e) for e in s["exponents"]),
        "essential": sorted(
            (tuple(c["center"]),
             sorted(tuple(g) for g in c["minimal_generators"]), c["smooth"])
            for c in s["charts"] if c["essential"]),
    } for s in steps]}


def moved_pin(pin, U):
    """The pinned answer with every vector mapped by U."""
    return {"exit": pin["exit"], "steps": [{
        "order": s["order"],
        "exponents": sorted(apply(U, e) for e in s["exponents"]),
        "essential": sorted(
            (apply(U, c), sorted(apply(U, g) for g in mg), smooth)
            for c, mg, smooth in s["essential"]),
    } for s in pin["steps"]]}


def _add(v, t):
    return tuple(a + b for a, b in zip(v, t))


def sigma(d, n):
    """Coordinate-wise sum of all alpha in N^d with 1 <= |alpha| <= n."""
    lam = [a for a in product(range(n + 1), repeat=d) if 1 <= sum(a) <= n]
    return tuple(sum(a[i] for a in lam) for i in range(d))


def translation(U, n):
    """The shift of canonical exponents under U at order n."""
    s = sigma(len(U), n)
    return tuple(a - b for a, b in zip(apply(U, s), s))


def mismatches(ans, pin, U):
    """Differences between a computed answer and the pin moved by U."""
    exp = moved_pin(pin, U)
    out = []
    if ans["exit"] != exp["exit"]:
        out.append("exit code %r, pinned %r" % (ans["exit"], exp["exit"]))
    if len(ans["steps"]) != len(exp["steps"]):
        out.append("%d steps, pinned %d"
                   % (len(ans["steps"]), len(exp["steps"])))
        return out
    for got, want in zip(ans["steps"], exp["steps"]):
        n = want["order"]
        if got["order"] != n:
            out.append("step order %r, pinned %r" % (got["order"], n))
            continue
        if len(got["exponents"]) != len(want["exponents"]):
            out.append("order %d: |S| = %d, pinned %d"
                       % (n, len(got["exponents"]), len(want["exponents"])))
            continue
        t = translation(U, n)
        if got["exponents"] != [_add(e, t) for e in want["exponents"]]:
            out.append("order %d: S differs from the pinned set" % n)
        want_ess = sorted((_add(c, t), mg, smooth)
                          for c, mg, smooth in want["essential"])
        if got["essential"] != want_ess:
            out.append("order %d: essential charts differ from the pin" % n)
    return out


def det(m):
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * det([row[:j] + row[j + 1:]
                                          for row in m[1:]])
               for j in range(len(m)) if m[0][j])


def structural_errors(doc, command, generators):
    """Checks that need no pin, on every chart of every step.

    Chart generators must be A union {m - m0 : m in S}, zero removed; a
    smooth chart must have d minimal generators of determinant +-1.
    """
    A = {tuple(g) for g in generators}
    d = len(next(iter(A)))
    zero = (0,) * d
    steps = doc["steps"] if command == "resolve" else [doc]
    out = []
    for s in steps:
        S = [tuple(e) for e in s["exponents"]]
        for c in s["charts"]:
            m0 = tuple(c["center"])
            want = A | {tuple(a - b for a, b in zip(m, m0)) for m in S}
            want.discard(zero)
            if sorted(want) != sorted(tuple(g) for g in c["generators"]):
                out.append("order %d, center %s: chart generators are not "
                           "A + (S - m0)" % (s["order"], m0))
            if c["essential"] and c["smooth"]:
                mg = c["minimal_generators"]
                if len(mg) != d or abs(det(mg)) != 1:
                    out.append("order %d, center %s: smooth chart without a "
                               "unimodular basis" % (s["order"], m0))
    return out
