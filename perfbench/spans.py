"""Outside-in tracing: each module layer is timed by wrapping its public
functions under the name its caller looks up, and restored afterwards.

Spans are kept in memory as (name, parent, start, end); a span's self
time is its duration minus the durations of its direct children.
"""

import functools
import importlib
import time
from contextlib import contextmanager

# (module, attribute the caller looks up, span name).  cli and pipeline
# import nash_step by name, so both bindings are wrapped; semigroup and
# lattice_geometry are called through their module attributes, which the
# functions inside those modules also resolve as globals.
TARGETS = (
    ("cli", "resolve", "pipeline.resolve"),
    ("cli", "nash_step", "pipeline.nash_step"),
    ("pipeline", "nash_step", "pipeline.nash_step"),
    ("pipeline", "validate_input", "pipeline.validate_input"),
    ("pipeline", "build_coeff_matrix", "monomial_jacobian.build_coeff_matrix"),
    ("pipeline", "nonzero_minor_exponents", "minors.nonzero_minor_exponents"),
    ("semigroup", "analyze_chart", "semigroup.analyze_chart"),
    ("semigroup", "chart_generators", "semigroup.chart_generators"),
    ("semigroup", "minimal_generators", "semigroup.minimal_generators"),
    ("semigroup", "member", "semigroup.member"),
    ("lattice_geometry", "origin_certificate",
     "lattice_geometry.origin_certificate"),
    ("lattice_geometry", "zspan_is_full", "lattice_geometry.zspan_is_full"),
)

# The benchmark opens the root span itself around each cli.main call.
ROOT_SPAN = "cli.main"


class TraceError(Exception):
    """A wrapped name is missing or a span did not fire: the trace is void."""


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []      # [name, parent index or -1, start, end]
        self._open = []

    def call(self, name, fn, *args, **kwargs):
        rec = [name, self._open[-1] if self._open else -1,
               self.clock(), None]
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[3] = self.clock()
            self._open.pop()

    def totals(self):
        """{span name: (calls, self seconds)} over every recorded span."""
        child = [0.0] * len(self.spans)
        for _, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {}
        for (name, _, t0, t1), c in zip(self.spans, child):
            calls, self_s = out.get(name, (0, 0.0))
            out[name] = (calls + 1, self_s + (t1 - t0 - c))
        return out


def _wrapper(tracer, name, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, *args, **kwargs)
    return traced


@contextmanager
def installed(tracer, targets=TARGETS):
    """Wrap every target for the duration of the block, then restore it."""
    saved = []
    try:
        for module, attr, span in targets:
            mod = importlib.import_module("toricnash." + module)
            if not hasattr(mod, attr):
                raise TraceError("wrapped name toricnash.%s.%s does not exist"
                                 % (module, attr))
            orig = getattr(mod, attr)
            saved.append((mod, attr, orig))
            setattr(mod, attr, _wrapper(tracer, span, orig))
        yield tracer
    finally:
        for mod, attr, orig in reversed(saved):
            setattr(mod, attr, orig)
