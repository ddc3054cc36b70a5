"""End-to-end driver: one blowup order per step, iterate until smooth.

Each step starts again from the original generator matrix with the order
raised by one; the algorithm never recurses into charts.
"""

import time
from dataclasses import dataclass, field

from . import lattice_geometry, semigroup
from .minors import BudgetExceeded, check_budget, nonzero_minor_exponents
from .monomial_jacobian import build_coeff_matrix

__all__ = ["InputError", "BudgetExceeded", "StepConfig", "StepReport",
           "ResolutionReport", "nash_step", "resolve",
           "step_report_to_dict", "step_report_from_dict",
           "resolution_report_to_dict", "resolution_report_from_dict"]


class InputError(Exception):
    """The generator set fails a precondition (span or essentiality)."""


@dataclass(frozen=True)
class StepConfig:
    mode: str = "pruned"
    budget_nodes: int | None = None   # None: minors.DEFAULT_BUDGET[mode]


@dataclass(frozen=True)
class StepReport:
    order: int
    m_rows: int
    d_cols: int
    shift: tuple
    exponents: tuple             # canonical form
    charts: tuple
    essential_count: int
    all_smooth: bool
    search_nodes: int
    search_mode: str
    elapsed: float = field(compare=False, default=0.0)


@dataclass(frozen=True)
class ResolutionReport:
    generators: tuple
    dimension: int
    steps: tuple
    verdict: str                 # "smooth_at_order" | "budget_exhausted"
    order: int


def validate_input(A):
    """Reject generator sets outside the algorithm's hypotheses."""
    if not lattice_geometry.zspan_is_full(A.columns):
        raise InputError("generators do not span Z^%d as a lattice" % A.d)
    kind, cert = lattice_geometry.origin_certificate(A.columns)
    if kind == "inside":
        raise InputError(
            "input is not essential: 0 is the convex combination with "
            "weights %s" % (tuple(str(c) for c in cert),))


def nash_step(A, n, config=StepConfig()):
    """Run a single order-n step: minors, exponent set, chart analysis."""
    validate_input(A)
    t0 = time.perf_counter()
    plan = check_budget(A, n, config.mode, config.budget_nodes)
    L = build_coeff_matrix(A, n)
    stats = {}
    S = nonzero_minor_exponents(L, mode=config.mode, stats=stats, plan=plan)
    charts = tuple(semigroup.analyze_chart(A, S, m0) for m0 in S.exponents)
    essential = [c for c in charts if c.essential]
    return StepReport(
        order=n,
        m_rows=L.shape[0],
        d_cols=L.shape[1],
        shift=S.shift,
        exponents=S.exponents,
        charts=charts,
        essential_count=len(essential),
        all_smooth=all(c.smooth for c in essential),
        search_nodes=stats["nodes"],
        search_mode=stats["mode"],
        elapsed=time.perf_counter() - t0,
    )


def resolve(A, max_n, config=StepConfig()):
    """Raise the order from 1 to max_n, stopping at the first smooth step."""
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    steps = []
    for n in range(1, max_n + 1):
        step = nash_step(A, n, config)
        steps.append(step)
        if step.all_smooth:
            return ResolutionReport(generators=A.columns, dimension=A.d,
                                    steps=tuple(steps),
                                    verdict="smooth_at_order", order=n)
    return ResolutionReport(generators=A.columns, dimension=A.d,
                            steps=tuple(steps),
                            verdict="budget_exhausted", order=max_n)


# --- JSON-friendly serialization -------------------------------------------

def _chart_to_dict(c):
    return {
        "center": list(c.center),
        "generators": [list(g) for g in c.generators],
        "essential": c.essential,
        "minimal_generators": (None if c.minimal_generators is None
                               else [list(g) for g in c.minimal_generators]),
        "smooth": c.smooth,
    }


def _chart_from_dict(d):
    return semigroup.Chart(
        center=tuple(d["center"]),
        generators=tuple(tuple(g) for g in d["generators"]),
        essential=d["essential"],
        minimal_generators=(None if d["minimal_generators"] is None
                            else tuple(tuple(g) for g in d["minimal_generators"])),
        smooth=d["smooth"],
    )


def step_report_to_dict(r):
    return {
        "order": r.order,
        "m_rows": r.m_rows,
        "d_cols": r.d_cols,
        "shift": list(r.shift),
        "exponents": [list(e) for e in r.exponents],
        "charts": [_chart_to_dict(c) for c in r.charts],
        "essential_count": r.essential_count,
        "all_smooth": r.all_smooth,
        "search_nodes": r.search_nodes,
        "search_mode": r.search_mode,
        "elapsed": r.elapsed,
    }


def step_report_from_dict(d):
    return StepReport(
        order=d["order"],
        m_rows=d["m_rows"],
        d_cols=d["d_cols"],
        shift=tuple(d["shift"]),
        exponents=tuple(tuple(e) for e in d["exponents"]),
        charts=tuple(_chart_from_dict(c) for c in d["charts"]),
        essential_count=d["essential_count"],
        all_smooth=d["all_smooth"],
        search_nodes=d["search_nodes"],
        search_mode=d["search_mode"],
        elapsed=d["elapsed"],
    )


def resolution_report_to_dict(r):
    return {
        "generators": [list(g) for g in r.generators],
        "dimension": r.dimension,
        "steps": [step_report_to_dict(s) for s in r.steps],
        "verdict": r.verdict,
        "order": r.order,
    }


def resolution_report_from_dict(d):
    return ResolutionReport(
        generators=tuple(tuple(g) for g in d["generators"]),
        dimension=d["dimension"],
        steps=tuple(step_report_from_dict(s) for s in d["steps"]),
        verdict=d["verdict"],
        order=d["order"],
    )
