"""Spans around hjwave's layer-boundary functions, installed from outside.

``Tracer.install()`` replaces every binding of a traced function in every
loaded ``hjwave`` module namespace (including module-level dicts such as
``cli.DISPATCH``) with a wrapper that records one span per call:
name, start, end, parent span, pass id, work done and error type.  Spans
stay in memory until ``write_jsonl`` is called at the end of the run.
``uninstall()`` restores the original bindings; ``bench/run.py`` installs
around each traced pass only.  An untraced run never constructs a Tracer,
so it installs nothing.

The traced functions are the public entry points of each layer.  Helpers
that a layer calls once per time step or grid point from inside itself
(``solvers.laplacian``, ``pde_algebra.quadratic_matrix``,
``reporting.fmt_float`` ...) stay unwrapped: a span there would cost more
than the work it times, and the enclosing span already covers it.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import os
import statistics
import sys
import time
from typing import Callable, NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a top-level span
    pass_id: int
    work: dict | None
    error: str | None


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _leapfrog_work(args, kwargs, result):
    initial = _arg(args, kwargs, 0, "initial")
    consts = _arg(args, kwargs, 2, "consts")
    cfg = _arg(args, kwargs, 3, "cfg")
    return {"steps": cfg.steps, "points": initial.grid.npoints, "c": consts.c}


def _cn_work(args, kwargs, result):
    initial = _arg(args, kwargs, 0, "initial")
    cfg = _arg(args, kwargs, 2, "cfg")
    return {"steps": cfg.steps, "points": initial.grid.npoints}


def _result_points(args, kwargs, result):
    return {"points": result.grid.npoints}


def _level_points(args, kwargs, result):
    return {"points": args[0][0].grid.npoints}


def _newton_work(args, kwargs, result):
    return {"steps": _arg(args, kwargs, 5, "steps")}


def _written_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


CHECKS = ("dispersion_chain", "transform_linearize", "dual_solutions",
          "eigen_log_curvature", "residual_decomposition", "wave_solver_order",
          "schrodinger_cn", "velocity_duality", "limit_frequency_order",
          "newton_rk4", "curl_witnesses", "round_trips")
COMMANDS = ("dispersion", "transform", "solve", "residual", "newton",
            "limit_study", "verify_all")
KINEMATICS = ("energy_from_momentum", "planck_energy", "de_broglie_momentum",
              "dispersion_omega", "phase_velocity", "group_velocity",
              "particle_velocity", "momentum_from_velocity")

# module -> {function: (metric bucket, work extractor or None)}
TRACED: dict[str, dict[str, tuple[str, Callable | None]]] = {
    "solvers": {
        "solve_wave": ("solvers.leapfrog", _leapfrog_work),
        "solve_relativistic": ("solvers.leapfrog", _leapfrog_work),
        "solve_schrodinger": ("solvers.cn", _cn_work),
        "hje_residual": ("solvers.identities", _result_points),
        "eigen_checks": ("solvers.identities", _level_points),
        "log_curvature_check": ("solvers.identities", _level_points),
    },
    "pde_algebra": {
        "residual_decomposition_check": ("pde_algebra.decomposition", None),
        "residual_nonlinear": ("pde_algebra.nonlinear", None),
        "residual_linear": ("pde_algebra.linear", None),
        "log_transform": ("pde_algebra.transform", None),
        "linearize": ("pde_algebra.transform", None),
        "dispersion_quadratic": ("pde_algebra.transform", None),
    },
    "mechanics": {
        "integrate_newton": ("mechanics.rk4", _newton_work),
        "curl_check": ("mechanics.curl", None),
        "gradient_field": ("mechanics.curl", None),
    },
    "limits": {"run_limit_study": ("limits.study", None)},
    "fields": {
        "plane_wave_field": ("fields.sample", None),
        "save_field": ("fields.io", None),
        "load_field": ("fields.io", None),
        "field_to_bytes": ("fields.io", lambda a, k, r: {"bytes": len(r)}),
        "field_from_bytes": ("fields.io", lambda a, k, r: {"bytes": len(a[0])}),
    },
    "reporting": {
        "write_csv": ("reporting.write", _written_bytes),
        "write_json": ("reporting.write", _written_bytes),
    },
    "convergence": {
        "fit_order": ("convergence.fit", None),
        "halving_orders": ("convergence.fit", None),
    },
    "kinematics": {name: ("kinematics", None) for name in KINEMATICS},
    "verify": {
        "run_all": ("verify.run_all", None),
        **{"check_" + name: ("verify.check_s." + name.replace("_", "-"), None)
           for name in CHECKS},
    },
    "cli": {
        "main": ("cli.main", None),
        **{"cmd_" + name: ("cli.command_s." + name.replace("_", "-"), None)
           for name in COMMANDS},
    },
}
BUCKET = {f"{module}.{fn}": bucket
          for module, functions in TRACED.items()
          for fn, (bucket, _work) in functions.items()}


class Tracer:
    """Records spans for calls into hjwave; one instance per traced run."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.pass_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, work: Callable | None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = clock()
                stack.pop()
                spans[index] = Span(name, start, end, parent, tracer.pass_id,
                                    None, type(exc).__name__)
                raise
            end = clock()
            stack.pop()
            spans[index] = Span(name, start, end, parent, tracer.pass_id,
                                work(args, kwargs, result) if work else None,
                                None)
            return result

        return traced

    def install(self) -> None:
        """Wrap every binding of a traced function in every hjwave module."""
        wrappers: dict[int, Callable] = {}
        for module_name, functions in TRACED.items():
            module = importlib.import_module("hjwave." + module_name)
            for fn_name, (_bucket, work) in functions.items():
                fn = getattr(module, fn_name)
                wrappers[id(fn)] = self.wrap(f"{module_name}.{fn_name}", fn, work)

        for name, module in list(sys.modules.items()):
            if name != "hjwave" and not name.startswith("hjwave."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrappers:
                            self._patches.append((value, key, item))
                            value[key] = wrappers[id(item)]

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches.clear()

    def write_jsonl(self, path: str, passes: list[tuple[int, float, float]]
                    ) -> None:
        """Gzipped JSON lines: a field-name header, the passes, then spans."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"pass": ["id", "start", "end"],
                                 "span": ["id", *Span._fields]}) + "\n")
            for window in passes:
                fh.write(json.dumps({"pass": list(window)}) + "\n")
            for index, span in enumerate(self.spans):
                fh.write(json.dumps({"span": [index, *span]}) + "\n")


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------

def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    out = []
    for span, kids in zip(spans, children):
        clipped = [(max(s, span.start), min(e, span.end)) for s, e in kids]
        out.append((span.end - span.start) - _covered(
            (s, e) for s, e in clipped if e > s))
    return out


def uncovered_per_pass(spans: list[Span],
                       passes: list[tuple[int, float, float]]) -> list[float]:
    """Wall time of each pass that no top-level span covers."""
    tops: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent < 0:
            tops.setdefault(span.pass_id, []).append((span.start, span.end))
    out = []
    for pass_id, start, end in passes:
        inside = [(max(s, start), min(e, end)) for s, e in tops.get(pass_id, [])]
        out.append((end - start) - _covered((s, e) for s, e in inside if e > s))
    return out


def _c_label(c: float) -> str:
    return "c" + (str(int(c)) if float(c).is_integer() else repr(float(c)))


LIMIT_C_VALUES = (4.0, 8.0, 16.0, 32.0, 64.0, 128.0)

# bytes a leapfrog step must move at the least: u^{n-1} and u^n read,
# u^{n+1} written, complex128 each (computed from array sizes, not measured)
LEAPFROG_BYTES_PER_POINT_STEP = 3 * 16


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics {name: (value, unit)} from one run's spans.

    Each metric is computed for every traced pass on its own, and the
    median over passes is reported: a count or a time is per pass, so it
    does not grow with the number of passes that fit in a run.  Rates
    (us_per_step, ns_per_point_step, us_per_point) use inclusive span
    time; self_s subtracts child spans.  A ratio whose denominator is zero
    (the layer did no such work in this workload) reads 0.
    """
    own = self_times(spans)
    by_pass: dict[int, list[int]] = {}
    for index, span in enumerate(spans):
        by_pass.setdefault(span.pass_id, []).append(index)
    per_pass = [_pass_metrics(spans, own, indices)
                for indices in by_pass.values()] or [_pass_metrics(spans, own, [])]
    return {name: (statistics.median(m[name][0] for m in per_pass), unit)
            for name, (_value, unit) in per_pass[0].items()}


def _pass_metrics(spans: list[Span], own: list[float], indices: list[int]
                  ) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the spans at ``indices`` (one pass)."""
    agg: dict[str, dict[str, float]] = {}
    rows: dict[str, list[float]] = {}
    for index in indices:
        span = spans[index]
        a = agg.setdefault(BUCKET[span.name], {})
        work = span.work or {}
        counts = {"calls": 1, "self_s": own[index], "total_s": span.end - span.start,
                  "errors": span.error is not None,
                  "zero_field_rejects": span.error == "ZeroFieldError",
                  **{f: work[f] for f in ("steps", "points", "bytes") if f in work}}
        if "steps" in work and "points" in work:
            counts["point_steps"] = work["steps"] * work["points"]
        for field, value in counts.items():
            a[field] = a.get(field, 0) + value
        if (span.name == "solvers.solve_relativistic" and span.parent >= 0
                and spans[span.parent].name == "limits.run_limit_study"):
            row = rows.setdefault(_c_label(work["c"]), [0.0, 0])
            row[0] += span.end - span.start
            row[1] += work["steps"]

    def get(bucket, field):
        return agg.get(bucket, {}).get(field, 0)

    def rate(bucket, per, scale):
        den = get(bucket, per)
        return scale * get(bucket, "total_s") / den if den else 0.0

    out: dict[str, tuple[float, str]] = {}

    def put(bucket, *fields):
        for field in fields:
            out[f"{bucket}.{field}"] = (
                get(bucket, field), "s" if field == "self_s" else "count")

    for kind in ("leapfrog", "cn"):
        b = "solvers." + kind
        put(b, "calls", "steps", "self_s")
        out[b + ".us_per_step"] = (rate(b, "steps", 1e6), "us")
        out[b + ".ns_per_point_step"] = (rate(b, "point_steps", 1e9), "ns")
        if kind == "leapfrog":
            steps = get(b, "steps")
            out[b + ".bytes_per_step"] = (
                get(b, "point_steps") * LEAPFROG_BYTES_PER_POINT_STEP / steps
                if steps else 0.0, "B")
        put(b, "errors")
    put("solvers.identities", "calls", "points", "self_s")

    b = "pde_algebra.decomposition"
    out[b + ".points"] = (get(b, "calls"), "count")
    put(b, "self_s")
    out[b + ".us_per_point"] = (rate(b, "calls", 1e6), "us")
    put(b, "zero_field_rejects")
    for b in ("pde_algebra.nonlinear", "pde_algebra.linear"):
        out[b + ".us_per_point"] = (rate(b, "calls", 1e6), "us")
    put("pde_algebra.transform", "calls", "self_s")

    b = "mechanics.rk4"
    put(b, "steps", "self_s")
    out[b + ".us_per_step"] = (rate(b, "steps", 1e6), "us")
    put(b, "errors")
    put("mechanics.curl", "calls", "self_s")

    put("limits.study", "self_s")
    for c in LIMIT_C_VALUES:
        seconds, steps = rows.get(_c_label(c), (0.0, 0))
        out["limits.row_s." + _c_label(c)] = (seconds, "s")
        out["limits.steps." + _c_label(c)] = (steps, "count")

    put("fields.sample", "calls", "self_s")
    out["fields.io.bytes"] = (get("fields.io", "bytes"), "B")
    put("fields.io", "self_s")
    put("reporting.write", "calls")
    out["reporting.write.bytes"] = (get("reporting.write", "bytes"), "B")
    put("reporting.write", "self_s")
    put("convergence.fit", "calls", "self_s")
    put("kinematics", "calls", "self_s")
    for name in CHECKS:
        b = "verify.check_s." + name.replace("_", "-")
        out[b] = (get(b, "total_s"), "s")
    for name in COMMANDS:
        b = "cli.command_s." + name.replace("_", "-")
        out[b] = (get(b, "total_s"), "s")
    return out
