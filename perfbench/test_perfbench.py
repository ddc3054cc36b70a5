"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench -q

They run a tiny workload (two of the cyclic-quotient items) through the
same code paths as the benchmark.
"""

import importlib
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import answers  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

sys.path.insert(0, run.SRC)
from toricnash import cli  # noqa: E402

TINY = [it for it in corpus.items("cq-resolve") if it.key in ("cq-1-2", "cq-2-5")]


def fake_probe():
    return [0.1]


def load_pins():
    with open(run.PINS) as f:
        return json.load(f)


def bindings():
    return {(m, a): getattr(importlib.import_module("toricnash." + m), a)
            for m, a, _ in spans.TARGETS}


def test_corpus_and_pins_cover_every_item():
    cq = corpus.items("cq-resolve")
    assert len(cq) == 17
    assert corpus.cyclic_quotient_basis(2, 5) == [(1, 0), (1, 1), (1, 2), (2, 5)]
    keys = {it.key for w in corpus.WORKLOADS for it in corpus.items(w)}
    assert set(load_pins()["items"]) == keys | {k + "@1" for k in keys}


@pytest.mark.parametrize("d", [2, 3])
def test_coordinate_change_is_unimodular(d):
    assert corpus.coordinate_change(0, d) == [
        [int(i == j) for j in range(d)] for i in range(d)]
    for seed in range(1, 30):
        U = corpus.coordinate_change(seed, d)
        assert abs(answers.det(U)) == 1
        assert U == corpus.coordinate_change(seed, d)


def test_tiny_workload_end_to_end(tmp_path):
    bench = run.Bench(cli, TINY, 3, str(tmp_path))
    result, lines = bench.timed(0, run.PINS, probe=fake_probe)
    # One timed pass, then the order-1 pass moved by the seed's U.
    assert result["attempted"] == 2 * len(TINY)
    assert result["failed"] == 0 and result["correct"], lines
    assert {n: m["unit"] for n, m in result["metrics"].items()} == dict(
        run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    json.dumps(result)


def test_setup_probe_imports_the_checkout():
    times = run.setup_probes(2)
    assert len(times) == 2 and all(0 < t < 60 for t in times)


def shift_exponents(pin, t=(1, 0)):
    """Translate S and every essential center of each step by t."""
    for step in pin["steps"]:
        step["exponents"] = [[a + b for a, b in zip(e, t)]
                             for e in step["exponents"]]
        for chart in step["essential"]:
            chart[0] = [a + b for a, b in zip(chart[0], t)]


@pytest.mark.parametrize("key,corrupt", [
    ("cq-2-5", lambda p: p["steps"][1]["essential"][1].__setitem__(2, True)),
    ("cq-2-5", lambda p: p["steps"][1]["exponents"].pop()),
    ("cq-2-5", lambda p: p.__setitem__("exit", 0)),
    ("cq-2-5@1", lambda p: p["steps"][0]["essential"][2][1].pop()),
    ("cq-2-5@1", lambda p: p["steps"][0]["exponents"][-1].__setitem__(1, 7)),
    ("cq-2-5", shift_exponents),
    ("cq-2-5@1", shift_exponents),
])
@pytest.mark.parametrize("seed", [0, 5])
def test_corrupted_pin_counts_as_failed(tmp_path, key, corrupt, seed):
    pins = load_pins()
    corrupt(pins["items"][key])
    bad = tmp_path / "pins.json"
    bad.write_text(json.dumps(pins))
    bench = run.Bench(cli, TINY, seed, str(tmp_path))
    result, lines = bench.timed(0, str(bad), probe=fake_probe)
    assert result["failed"] == 1
    assert not result["correct"]
    assert any(line.startswith("FAILED %s " % key) for line in lines)
    assert "failed_ratio 1/%d" % result["attempted"] in "\n".join(lines)


def test_translation_matches_the_program_shift():
    from toricnash.minors import sigma_shift
    for d, n in ((2, 1), (2, 2), (2, 3), (3, 2)):
        assert answers.sigma(d, n) == sigma_shift(d, n)
    assert answers.translation(corpus.coordinate_change(0, 2), 2) == (0, 0)
    U = [[1, 1], [0, 1]]
    assert answers.translation(U, 2) == (4, 0)


def test_structural_check_catches_a_wrong_chart():
    doc = {"order": 1, "exponents": [[0, 0], [1, 0]], "charts": [
        {"center": [0, 0], "generators": [[0, 1], [1, 0]], "essential": True,
         "minimal_generators": [[0, 1], [1, 0]], "smooth": True},
        {"center": [1, 0], "generators": [[-1, 0], [0, 1], [1, 0]],
         "essential": True, "minimal_generators": [[0, 1], [2, 1]],
         "smooth": True}]}
    errors = answers.structural_errors(doc, "step", [(1, 0), (0, 1)])
    assert len(errors) == 1 and "unimodular" in errors[0]
    doc["charts"][0]["generators"] = [[0, 1]]
    assert len(answers.structural_errors(doc, "step", [(1, 0), (0, 1)])) == 2


def test_wrappers_restored_after_traced_run(tmp_path):
    before = bindings()
    bench = run.Bench(cli, TINY, 0, str(tmp_path))
    result, _ = bench.traced(0, run.PINS, load_pins()["spans"]["cq-resolve"])
    after = bindings()
    assert all(after[k] is before[k] for k in before)
    assert result["correct"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == dict(
        run.PER_LAYER)
    metrics = {n: m["value"] for n, m in result["metrics"].items()}
    assert metrics["pipeline.nash_step.calls"] == 3
    assert metrics["pipeline.validate_input.calls"] == 3
    assert metrics["semigroup.analyze_chart.calls"] == 3 + 6 + 63


def test_missing_name_is_an_error_and_restores():
    before = bindings()
    targets = spans.TARGETS + (("semigroup", "no_such_function", "x"),)
    with pytest.raises(spans.TraceError):
        with spans.installed(spans.Tracer(), targets):
            pass
    after = bindings()
    assert all(after[k] is before[k] for k in before)


def test_span_that_stops_firing_is_an_error(tmp_path):
    bench = run.Bench(cli, TINY[:1], 0, str(tmp_path))
    with pytest.raises(spans.TraceError, match="pipeline.resolve"):
        bench.traced(0, run.PINS, ["cli.main", "pipeline.resolve"],
                     targets=[t for t in spans.TARGETS
                              if t[2] != "pipeline.resolve"])


def test_self_time_subtracts_children():
    clock = iter([0.0, 1.0, 3.0, 6.0])
    t = spans.Tracer(clock=lambda: next(clock))
    t.call("outer", lambda: t.call("inner", lambda: None))
    assert t.totals() == {"outer": (1, 4.0), "inner": (1, 2.0)}


def test_benchmark_json_lists_every_metric():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert [w["name"] for w in bench["workloads"]] == list(corpus.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(
        run.PER_LAYER)
