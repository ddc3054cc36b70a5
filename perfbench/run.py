#!/usr/bin/env python3
"""Benchmark of the toricnash pipeline, driven through its CLI entry point.

    python3 perfbench/run.py --workload cq-resolve --seed 1 --seconds 40 --trace 0

Run it from the root of a source checkout: the package is imported from
./src and nothing is installed.  The workloads are in corpus.py, the
layer map in README.md.

Each item calls toricnash.cli.main in-process with the shipped defaults
and `--emit json`, one call after the other (closed loop, one caller).
A pass runs every item of the workload once; passes repeat while another
one still fits in --seconds (at least one runs).  Every output is checked
against the pin in pins.json and by the structural checks in answers.py.

After the timed passes, an untimed pass runs `step --order 1` on every
input moved by a unimodular change of coordinates U drawn from --seed
(seed 0: U = 1) and checks the order-1 pins moved by U.  The timed passes
stay in reference coordinates: between small U the time of a cq-resolve
pass ranges from 0.8x to 1.7x (2-core VM, Python 3.11), which would make
the spread across seeds a property of U, not of the code.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
from traced passes alternated with untraced ones.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import io
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import namedtuple

import answers
import corpus
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PINS = os.path.join(HERE, "pins.json")

SETUP_PROBES = 6     # before and again after the timed passes

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mib", "MiB"))

SELF_SPANS = (
    "minors.nonzero_minor_exponents", "lattice_geometry.origin_certificate",
    "semigroup.analyze_chart", "semigroup.chart_generators",
    "semigroup.minimal_generators", "semigroup.member",
    "lattice_geometry.zspan_is_full", "pipeline.validate_input",
    "pipeline.nash_step", "monomial_jacobian.build_coeff_matrix", "cli.main")
CALL_SPANS = (
    "lattice_geometry.origin_certificate", "semigroup.analyze_chart",
    "semigroup.minimal_generators", "semigroup.member",
    "lattice_geometry.zspan_is_full", "pipeline.validate_input",
    "pipeline.nash_step")
PER_LAYER = (tuple((s + ".self_s", "s") for s in SELF_SPANS)
             + tuple((s + ".calls", "count") for s in CALL_SPANS)
             + (("minors.search_nodes", "count"), ("minors.exponents", "count"),
                ("minors.yield", "ratio"), ("semigroup.essential_ratio", "ratio"),
                ("monomial_jacobian.matrix_entries", "count"),
                ("cli.output_bytes", "B"), ("trace.overhead_ratio", "ratio")))

# The reported step time is the only part of the output that changes
# between identical calls; output_bytes leaves its digits out.
ELAPSED = re.compile(r'"elapsed": [-+0-9.eE]+')

Run = namedtuple("Run", "n item U wall cpu code out_path err exc")


def setup_probes(n=SETUP_PROBES):
    """Times from a fresh interpreter to toricnash.cli imported."""
    cmd = [sys.executable, "-c", "import toricnash.cli"]
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(n):
        # No timeout: with one, the wait polls with sleeps of up to 50 ms,
        # which rounds every probe to the same few values.
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True,
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


class Bench:
    """Runs and checks the passes of one workload in this process."""

    def __init__(self, cli, items, seed, workdir):
        self.cli = cli
        self.items = items
        self.seed = seed
        self.workdir = workdir
        self.runs = []          # every Run made, for checking
        self.inputs = {}

    def input_path(self, item):
        if item.key not in self.inputs:
            path = os.path.join(self.workdir, "in-%d.json" % len(self.inputs))
            with open(path, "w") as f:
                json.dump({"d": len(item.generators[0]), "generators":
                           [list(g) for g in item.generators]}, f)
            self.inputs[item.key] = path
        return self.inputs[item.key]

    def run_item(self, item, U, tracer=None):
        """Run one CLI call; U is the change of coordinates item is in."""
        argv = list(item.args) + ["--input", self.input_path(item),
                                  "--emit", "json"]
        out, err = io.StringIO(), io.StringIO()
        exc = None
        t0 = time.perf_counter()
        c0 = time.process_time()
        try:
            if tracer is None:
                code = self.cli.main(argv, out=out, err=err)
            else:
                code = tracer.call(spans.ROOT_SPAN, self.cli.main, argv,
                                   out=out, err=err)
        except Exception as e:
            traceback.print_exc()
            code, exc = None, repr(e)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        # Outputs go to disk so that they count in neither the timing nor
        # the peak RSS; they are checked after the passes.
        n = len(self.runs)
        out_path = os.path.join(self.workdir, "out-%d.json" % n)
        with open(out_path, "w") as f:
            f.write(out.getvalue())
        run = Run(n, item, U, wall, cpu, code, out_path, err.getvalue(), exc)
        self.runs.append(run)
        return run

    def run_pass(self, tracer=None):
        return [self.run_item(item, corpus.coordinate_change(
                    0, len(item.generators[0])), tracer)
                for item in self.items]

    def moved_pass(self):
        for item in self.items:
            U = corpus.coordinate_change(self.seed, len(item.generators[0]))
            self.run_item(corpus.moved(item, U), U)

    @staticmethod
    def repeat(seconds, one):
        """Call one() at least once, and again while another call, as long
        as the last one, still ends within `seconds`."""
        out = []
        start = time.perf_counter()
        while True:
            t = time.perf_counter()
            out.append(one())
            now = time.perf_counter()
            if now - start + (now - t) > seconds:
                return out

    def check(self, pins):
        """Check every run made; return (failure lines, failed runs, counts).

        counts[n] holds the output counts of run n, or None if it failed.
        """
        lines, failed, counts = [], 0, []
        for run in self.runs:
            reasons, c = check_run(run, pins[run.item.key])
            if reasons:
                failed += 1
                lines.extend("%s U=%s: %s" % (run.item.key, run.U, r)
                             for r in reasons)
            counts.append(None if reasons else c)
        return lines, failed, counts

    def timed(self, seconds, pins_path, probe=setup_probes):
        # Set-up is probed on both sides of the passes, so that a burst of
        # load on the machine falls on some of the probes only.
        setup = probe()
        passes = self.repeat(seconds, self.run_pass)
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup += probe()
        self.moved_pass()
        failures, failed, _ = self.check(load_pins(pins_path))
        walls = [sum(r.wall for r in p) for p in passes]
        metrics = {"wall_s": statistics.median(walls),
                   "cpu_s": statistics.median(sum(r.cpu for r in p)
                                              for p in passes),
                   "setup_s": statistics.median(setup),
                   "peak_rss_mib": peak_rss}
        notes = ["passes: %d, pass wall s: %s"
                 % (len(passes), " ".join("%.3f" % w for w in walls))]
        return self.result(metrics, END_TO_END, failures, failed, notes)

    def traced(self, seconds, pins_path, expected_spans,
               targets=spans.TARGETS):
        traced = []

        def pair():
            plain = self.run_pass()
            tracer = spans.Tracer()
            with spans.installed(tracer, targets):
                runs = self.run_pass(tracer=tracer)
            traced.append((runs, tracer.totals()))
            return plain

        plain = self.repeat(seconds, pair)
        self.moved_pass()
        failures, failed, counts = self.check(load_pins(pins_path))
        metrics = layer_metrics(counts, plain, traced, expected_spans)
        walls = [sum(r.wall for r in runs) for runs, _ in traced]
        wall = statistics.median(walls)
        notes = ["pairs: %d, traced pass wall s: %s"
                 % (len(traced), " ".join("%.3f" % w for w in walls))]
        notes += ["self share %-40s %5.1f%%"
                  % (s, 100 * metrics[s + ".self_s"] / wall)
                  for s in SELF_SPANS]
        return self.result(metrics, PER_LAYER, failures, failed, notes)

    def result(self, metrics, names, failures, failed, notes):
        attempted = len(self.runs)
        lines = notes + ["%-42s %14s %s" % (n, "%.6g" % metrics[n] if
                                            isinstance(metrics[n], float)
                                            else metrics[n], u)
                         for n, u in names]
        lines.append("failed_ratio %d/%d = %g"
                     % (failed, attempted, failed / attempted))
        lines += ["FAILED " + f for f in failures[:50]]
        return {"correct": failed == 0, "attempted": attempted,
                "failed": failed,
                "metrics": {n: {"value": metrics[n], "unit": u}
                            for n, u in names}}, lines


def load_pins(path):
    with open(path) as f:
        return json.load(f)["items"]


def output_counts(doc, command, text):
    steps = doc["steps"] if command == "resolve" else [doc]
    return {
        "minors.search_nodes": sum(s["search_nodes"] for s in steps),
        "minors.exponents": sum(len(s["exponents"]) for s in steps),
        "charts": sum(len(s["charts"]) for s in steps),
        "essential": sum(s["essential_count"] for s in steps),
        "monomial_jacobian.matrix_entries":
            sum(s["m_rows"] * s["d_cols"] for s in steps),
        "cli.output_bytes": len(ELAPSED.sub("", text).encode()),
    }


def check_run(run, pin):
    """(failure reasons, output counts) of one CLI call."""
    if run.exc is not None:
        return ["raised " + run.exc], None
    with open(run.out_path) as f:
        text = f.read()
    try:
        doc = json.loads(text)
    except ValueError:
        return ["exit %r without JSON output: %s"
                % (run.code, run.err.strip())], None
    command = run.item.args[0]
    reasons = answers.mismatches(answers.answer(run.code, doc, command),
                                 pin, run.U)
    reasons += answers.structural_errors(doc, command, run.item.generators)
    return reasons, output_counts(doc, command, text)


def layer_metrics(counts, plain, traced, expected_spans):
    """Per-layer metrics of one traced run; raise TraceError if void."""

    def pass_counts(runs):
        cs = [counts[r.n] for r in runs]
        if None in cs:
            return None
        return {k: sum(c[k] for c in cs) for k in cs[0]}

    per_pass = [c for c in map(pass_counts, plain + [r for r, _ in traced])
                if c is not None]
    if not per_pass:
        raise spans.TraceError("every pass has a failed item: no counts")
    if any(c != per_pass[0] for c in per_pass):
        raise spans.TraceError("output counts differ between passes of the "
                               "same code: %s" % per_pass)
    calls = [{s: n for s, (n, _) in t.items()} for _, t in traced]
    if any(c != calls[0] for c in calls):
        raise spans.TraceError("span calls differ between passes of the "
                               "same code: %s" % calls)
    silent = [s for s in expected_spans if s not in calls[0]]
    if silent:
        raise spans.TraceError("spans that fire at the pinned commit did "
                               "not fire: %s" % ", ".join(silent))
    c = per_pass[0]
    m = {k: c[k] for k in ("minors.search_nodes", "minors.exponents",
                           "monomial_jacobian.matrix_entries",
                           "cli.output_bytes")}
    m["minors.yield"] = c["minors.exponents"] / c["minors.search_nodes"]
    m["semigroup.essential_ratio"] = c["essential"] / c["charts"]
    for s in SELF_SPANS:
        m[s + ".self_s"] = statistics.median(t.get(s, (0, 0.0))[1]
                                             for _, t in traced)
    for s in CALL_SPANS:
        m[s + ".calls"] = calls[0].get(s, 0)
    untraced = statistics.median(sum(r.wall for r in p) for p in plain)
    m["trace.overhead_ratio"] = statistics.median(
        sum(r.wall for r in p) for p, _ in traced) / untraced
    return m


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "toricnash", "cli.py")):
        print("perfbench: no toricnash sources under %s" % SRC,
              file=sys.stderr)
        return 2
    if not args.trace:
        setup_probes(1)  # compiles the bytecode cache, which users pay once
    sys.path.insert(0, SRC)
    from toricnash import cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print("perfbench: imported %s instead of the checkout's sources"
              % cli.__file__, file=sys.stderr)
        return 2
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        bench = Bench(cli, corpus.items(args.workload), args.seed, workdir)
        if args.trace:
            with open(PINS) as f:
                expected_spans = json.load(f)["spans"][args.workload]
            result, lines = bench.traced(args.seconds, PINS, expected_spans)
        else:
            result, lines = bench.timed(args.seconds, PINS)
    except spans.TraceError as e:
        print("perfbench: trace is void: %s" % e, file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
