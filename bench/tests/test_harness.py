"""Self-tests for the benchmark harness.

Run from the repository root:  python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import math
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from bench import run  # noqa: E402
from bench.tracer import (  # noqa: E402
    Span,
    Tracer,
    layer_metrics,
    self_times,
    uncovered_per_pass,
)
from bench.workloads import (  # noqa: E402
    WORKLOADS,
    Certificate,
    GateResult,
    load_json_strict,
    load_numeric_csv,
)


def span(name, start, end, parent=-1, pass_id=0):
    return Span(name, start, end, parent, pass_id, None, None)


def test_self_time_subtracts_children_on_a_synthetic_tree():
    # root [0, 10] -> a [1, 4] -> a1 [2, 3]; root -> b [5, 9]
    spans = [
        span("cli.main", 0.0, 10.0),
        span("limits.run_limit_study", 1.0, 4.0, parent=0),
        span("solvers.solve_relativistic", 2.0, 3.0, parent=1),
        span("convergence.fit_order", 5.0, 9.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once():
    spans = [
        span("cli.main", 0.0, 10.0),
        span("fields.save_field", 1.0, 6.0, parent=0),
        span("fields.field_to_bytes", 4.0, 8.0, parent=0),
    ]
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_uncovered_time_is_pass_time_outside_top_level_spans():
    spans = [
        span("cli.main", 1.0, 4.0, pass_id=7),
        span("solvers.solve_wave", 2.0, 3.0, parent=0, pass_id=7),
        span("cli.main", 5.0, 6.0, pass_id=7),
        span("cli.main", 20.0, 30.0, pass_id=8),
    ]
    assert uncovered_per_pass(spans, [(7, 0.0, 10.0)]) == pytest.approx([6.0])


def test_layer_metrics_rates_and_limit_rows():
    spans = [
        span("limits.run_limit_study", 0.0, 4.0),
        Span("solvers.solve_relativistic", 0.5, 2.5, 0, 0,
             {"steps": 1000, "points": 64, "c": 128.0}, None),
        Span("pde_algebra.residual_decomposition_check", 5.0, 5.5, -1, 0,
             None, "ZeroFieldError"),
    ]
    m = layer_metrics(spans)
    assert m["solvers.leapfrog.us_per_step"][0] == pytest.approx(2000.0)
    assert m["solvers.leapfrog.ns_per_point_step"][0] == pytest.approx(2e9 / 64000)
    assert m["solvers.leapfrog.bytes_per_step"][0] == 64 * 48
    assert m["limits.study.self_s"][0] == pytest.approx(2.0)
    assert m["limits.row_s.c128"][0] == pytest.approx(2.0)
    assert m["limits.steps.c128"][0] == 1000
    assert m["limits.steps.c4"][0] == 0
    assert m["pde_algebra.decomposition.zero_field_rejects"][0] == 1
    assert m["solvers.cn.us_per_step"][0] == 0.0


def test_layer_metrics_are_per_pass_whatever_the_pass_count():
    one = [
        Span("cli.main", 0.0, 10.0, -1, 1, None, None),
        Span("limits.run_limit_study", 1.0, 9.0, 0, 1, None, None),
        Span("solvers.solve_relativistic", 2.0, 5.0, 1, 1,
             {"steps": 500, "points": 64, "c": 4.0}, None),
        Span("pde_algebra.residual_decomposition_check", 9.5, 9.6, 0, 1,
             None, None),
    ]
    # the same pass again, later, as pass 3; parents index the whole list
    two = one + [s._replace(start=s.start + 20.0, end=s.end + 20.0, pass_id=3,
                            parent=s.parent + len(one) if s.parent >= 0 else -1)
                 for s in one]
    single, double = layer_metrics(one), layer_metrics(two)
    assert single.keys() == double.keys()
    for name, (value, unit) in single.items():
        assert double[name] == (pytest.approx(value), unit), name
    assert single["solvers.leapfrog.steps"][0] == 500
    assert single["limits.steps.c4"][0] == 500
    assert single["pde_algebra.decomposition.points"][0] == 1


@pytest.mark.parametrize("name", [
    "setup_s", "pass_s.p50", "cli.command_s.limit-study", "limits.row_s.c128",
    "9lives", "a" * 64,
])
def test_valid_metric_names(name):
    assert run.check_metric_name(name) == name


@pytest.mark.parametrize("name", [
    "", "pass s", "pass/s", ".hidden", "-x", "a" * 65, "cert:margin", "ns\n",
])
def test_invalid_metric_names(name):
    with pytest.raises(ValueError):
        run.check_metric_name(name)


def test_benchmark_json_lists_exactly_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    e2e, _info = run.end_to_end(
        [{"seconds": 1.0, "failures": [], "margin": 0.5, "ref_s": 0.2}],
        [(0.1, 0.2)])
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    assert [m["unit"] for m in spec["end_to_end"]] == [u for _v, u in e2e.values()]
    layers = [(name, unit) for name, (_v, unit) in layer_metrics([]).items()]
    listed = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert listed[:len(layers)] == layers
    assert [name for name, _unit in listed[len(layers):]] == [
        "trace.overhead_ratio", "trace.uncovered_s", "trace.coverage",
        "trace.spans_per_pass",
    ]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for m in spec["end_to_end"] + spec["per_layer"]:
        run.check_metric_name(m["name"])


def test_each_pass_time_is_divided_by_its_reference():
    passes = [{"seconds": s, "failures": [], "margin": 0.5, "ref_s": r}
              for s, r in ((2.0, 0.1), (4.0, 0.2), (3.0, 0.4))]
    metrics, info = run.end_to_end(passes, [(0.3, 0.1), (0.1, 0.2), (0.4, 0.1)])
    assert metrics["setup_s"] == (pytest.approx(3.0 * run.REFERENCE_IMPORT_S), "s")
    assert info["setup_s.raw"] == 0.3 and info["setup_ref_s.p50"] == 0.1
    assert metrics["pass_rel.p50"] == (20.0, "ref")
    assert metrics["pass_rel.tail"] == (20.0, "ref")
    assert info["pass_s.p50"] == 3.0 and info["ref_s.p50"] == 0.2


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile([3.0, 1.0, 2.0]) == (100.0, 3.0)
    samples = [float(i) for i in range(1, 101)]
    assert run.tail_percentile(samples) == (90.0, 90.0)
    assert run.tail_percentile(samples[:20]) == (50.0, 10.0)


def test_certificate_margins():
    assert Certificate("f", 1.956, 1.8, 2.2).margin == pytest.approx(0.78)
    assert Certificate("d", 2.5e-13, None, 1e-12).margin == pytest.approx(0.75)
    assert Certificate("x", 2.3, 1.9, 2.1).margin < 0
    assert Certificate("n", math.nan, 1.9, 2.1).margin < 0
    gate = GateResult()
    gate.band("order", 2.3, 1.9, 2.1)
    assert not gate.passed


def test_strict_parsers_reject_non_finite(tmp_path):
    bad = tmp_path / "summary.json"
    bad.write_text('{"drift": NaN}')
    with pytest.raises(ValueError):
        load_json_strict(str(bad))
    bad.write_text('{"drift": -Infinity}')
    with pytest.raises(ValueError):
        load_json_strict(str(bad))
    table = tmp_path / "diagnostics.csv"
    table.write_text("step,norm\n1,1.0\n2,nan\n")
    with pytest.raises(ValueError):
        load_numeric_csv(str(table))


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_pass_of_each_workload_passes_its_gate(name, tmp_path):
    workload = WORKLOADS[name](scale="tiny")
    inputs = workload.setup(seed=5)
    raw = workload.run_pass(inputs, str(tmp_path))
    gate = workload.gate(inputs, raw, str(tmp_path))
    assert gate.failures == []
    assert gate.certificates
    assert all(c.margin > 0 for c in gate.certificates)


def test_zero_field_points_are_counted_not_fatal(tmp_path):
    workload = WORKLOADS["grid-certificates"](scale="tiny")
    inputs = workload.setup(seed=5)
    field = inputs["square"][1]
    values = field.values.copy()
    values[10, 10] = 0.0
    inputs["square"][1] = field.with_values(values)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.pass_id = 0
        raw = workload.run_pass(inputs, str(tmp_path))
    finally:
        tracer.uninstall()
    # the zero and the four points whose stencils touch it
    assert raw["reject_share"] == 5 / (16**2 + 32**2)
    assert layer_metrics(tracer.spans)[
        "pde_algebra.decomposition.zero_field_rejects"][0] == 5
    assert workload.gate(inputs, raw, str(tmp_path)).passed
    raw["reject_share"] = 0.02
    assert not workload.gate(inputs, raw, str(tmp_path)).passed


def test_tiny_gate_fails_on_non_finite_json(tmp_path):
    workload = WORKLOADS["limit-sweep"](scale="tiny")
    inputs = workload.setup(seed=0)
    raw = workload.run_pass(inputs, str(tmp_path))
    path = tmp_path / "limit_study.json"
    path.write_text(path.read_text().replace('"warnings"', '"bad": NaN,\n"warnings"'))
    assert not workload.gate(inputs, raw, str(tmp_path)).passed


def test_tracer_spans_tiny_pass_and_restores_bindings(tmp_path):
    import hjwave.cli
    import hjwave.limits

    original = (hjwave.limits.solve_relativistic, hjwave.cli.DISPATCH["limit-study"])
    workload = WORKLOADS["limit-sweep"](scale="tiny")
    inputs = workload.setup(seed=0)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.pass_id = 3
        workload.run_pass(inputs, str(tmp_path))
    finally:
        tracer.uninstall()
    assert (hjwave.limits.solve_relativistic,
            hjwave.cli.DISPATCH["limit-study"]) == original
    names = [s.name for s in tracer.spans]
    assert names[0] == "cli.main"
    assert "cli.cmd_limit_study" in names
    assert names.count("solvers.solve_relativistic") == 6
    assert {s.pass_id for s in tracer.spans} == {3}
    m = layer_metrics(tracer.spans)
    assert m["limits.steps.c128"][0] > m["limits.steps.c4"][0] > 0
    assert m["cli.command_s.limit-study"][0] > 0
    assert uncovered_per_pass(tracer.spans, [(3, tracer.spans[0].start,
                                              tracer.spans[0].end)]) == [0.0]


class _Raising:
    def run_pass(self, inputs, out):
        raise RuntimeError("boom")


class _NonzeroExit:
    def run_pass(self, inputs, out):
        return {}

    def gate(self, inputs, raw, out):
        gate = GateResult()
        gate.band("order", 2.0, 1.9, 2.1)
        gate.require(False, "exit 3")
        return gate


@pytest.mark.parametrize("workload", [_Raising(), _NonzeroExit()])
def test_failed_pass_counts_and_pulls_margin_below_zero(workload):
    passes = run.run_passes(workload, {}, 0.0, "selftest")
    metrics, info = run.end_to_end(passes, [(0.1, 0.2)])
    assert len(passes) == 1 and passes[0]["failures"]
    assert metrics["success_ratio"][0] == 0.0
    assert metrics["cert_margin.min"][0] < 0
    assert info["fail_ratio"] == 1.0
