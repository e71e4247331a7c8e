"""hjwave benchmark: timed passes of one workload, or a traced run.

Usage, from the repository root:

    python3 bench/run.py --workload limit-sweep --seed 1 --seconds 30 --trace 0

``--trace 0`` times passes with nothing installed and prints the
end-to-end metrics, with pass times divided by a reference kernel timed
after every pass.  ``--trace 1`` alternates untraced passes and passes
with spans installed, and prints the per-layer metrics; the spans go to
``.bench_out/``.  Every
pass is gated against the repository's certificate bands.  Every metric
is printed as ``name value unit`` and the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Runs single-threaded: BLAS/OpenMP thread pools are pinned
to one thread before numpy loads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_ROOT = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 7
# set-up times are reported at a host speed on which the reference
# interpreter (``python3 -c "import numpy"``) takes this long; it took
# 0.12-0.25 s on the 2-vCPU Xeon the benchmark was built on
REFERENCE_IMPORT_S = 0.15
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def check_metric_name(name: str) -> str:
    """Return ``name`` if it is a valid metric name, else raise ValueError."""
    if not METRIC_NAME.fullmatch(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """Highest ladder percentile with at least ten samples beyond it.

    Returns (percentile, value) by the nearest-rank rule.  With fewer than
    twenty samples no ladder rung qualifies and the maximum is reported as
    percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return 100.0, ordered[-1]


def environment(seed: int) -> dict:
    """Facts recorded with each result; the commit is unknown outside git."""
    import numpy

    commit = "unknown"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.exists(path):
                with open(path) as fh:
                    commit = fh.read().strip()
        else:
            commit = ref
    return {
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "seed": seed,
    }


def reference_seconds() -> float:
    """Wall time of a fixed kernel that runs no hjwave code.

    It mixes the kinds of work the workloads do: a Python loop of
    small-array numpy steps, 3D FFTs on a 32^3 array, and plain
    interpreter work.  Timed between passes, it measures how fast the
    machine runs at that moment, so pass times can be divided by it.
    """
    import numpy as np

    start = time.perf_counter()
    u = np.ones(64, dtype=complex)
    v = u.copy()
    for _ in range(4000):
        u, v = v, 2 * v - u + 1e-6 * (np.roll(v, 1) + np.roll(v, -1) - 2 * v)
    cube = np.exp(1j * np.linspace(0.0, 1.0, 32**3)).reshape(32, 32, 32)
    for _ in range(20):
        cube = np.fft.ifftn(np.fft.fftn(cube))
    total = 0
    for i in range(200_000):
        total += i * i
    return time.perf_counter() - start


def run_passes(workload, inputs, seconds: float, tag: str,
               tracer=None) -> list[dict]:
    """Run gated passes until ``seconds`` have elapsed (at least one).

    With a tracer, passes alternate untraced and traced (at least one of
    each), so both sides see the same machine state; the tracer is
    installed and removed outside the timed region.
    """
    passes = []
    began = time.perf_counter()
    ref_before = reference_seconds()
    while (not passes or time.perf_counter() - began < seconds
           or (tracer is not None and len(passes) < 2)):
        pass_id = len(passes)
        traced = tracer is not None and pass_id % 2 == 1
        out = os.path.join(OUT_ROOT, f"{tag}-pid{os.getpid()}-pass{pass_id}")
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        if traced:
            tracer.install()
            tracer.pass_id = pass_id
        start = time.perf_counter()
        try:
            raw = workload.run_pass(inputs, out)
            error = None
        except Exception:
            raw, error = None, traceback.format_exc(limit=3)
        end = time.perf_counter()
        if traced:
            tracer.uninstall()
            tracer.pass_id = -1
        if error is None:
            gate = workload.gate(inputs, raw, out)
            failures = gate.failures
            margin = min((c.margin for c in gate.certificates), default=None)
        else:
            failures, margin = [error], None
        if failures and (margin is None or margin >= 0):
            margin = -1.0  # every failed pass pulls cert_margin.min below 0
        shutil.rmtree(out, ignore_errors=True)
        ref_after = reference_seconds()
        passes.append({"id": pass_id, "traced": traced, "start": start,
                       "end": end, "seconds": end - start, "failures": failures,
                       "margin": margin, "ref_s": 0.5 * (ref_before + ref_after)})
        ref_before = ref_after
    return passes


def _child_seconds(cmd: list[str]) -> float:
    start = time.perf_counter()
    # no timeout: with one, wait() polls in 50 ms sleeps and quantizes the
    # measurement
    subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def setup_seconds(workload_name: str, seed: int) -> list[tuple[float, float]]:
    """Wall time of fresh interpreters that import hjwave and build inputs.

    Returns (probe seconds, reference seconds) for each probe.  The
    reference is the mean wall time of a fresh interpreter that only
    imports numpy, run just before and just after the probe: the same
    kind of work (process start, imports) without any hjwave code, so the
    quotient cancels the host's speed swings, which the compute kernel of
    ``reference_seconds`` does not track for process start-up.
    """
    probe = [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload_name, "--seed", str(seed)]
    reference = [sys.executable, "-c", "import numpy"]
    probes = []
    ref_before = _child_seconds(reference)
    for _ in range(SETUP_PROBES):
        seconds = _child_seconds(probe)
        ref_after = _child_seconds(reference)
        probes.append((seconds, 0.5 * (ref_before + ref_after)))
        ref_before = ref_after
    return probes


def end_to_end(passes: list[dict], setup: list[tuple[float, float]]
               ) -> tuple[dict, dict]:
    """End-to-end metrics and the raw figures behind them.

    Each pass time is divided by the reference kernel's time, and each
    set-up probe time by the reference interpreter's time, each the mean
    of the timings just before and just after it: the machine's speed
    drifts by up to 2x within minutes, and the quotient cancels most of
    that drift.  Pass quotients are reported as they are (unit ``ref``);
    set-up quotients are scaled to seconds at the nominal reference speed
    ``REFERENCE_IMPORT_S``.  The raw seconds are kept in ``info`` and
    printed.
    """
    seconds = [p["seconds"] for p in passes]
    relative = [p["seconds"] / p["ref_s"] for p in passes]
    failed = sum(1 for p in passes if p["failures"])
    margins = [p["margin"] for p in passes if p["margin"] is not None]
    tail_p, tail_rel = tail_percentile(relative)
    metrics = {
        "setup_s": (REFERENCE_IMPORT_S * statistics.median(
            s / ref for s, ref in setup), "s"),
        "pass_rel.p50": (statistics.median(relative), "ref"),
        "pass_rel.tail": (tail_rel, "ref"),
        "success_ratio": ((len(passes) - failed) / len(passes), "ratio"),
        "cert_margin.min": (min(margins) if margins else -1.0, "ratio"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    info = {"passes": len(passes), "tail_percentile": tail_p,
            "pass_s.p50": statistics.median(seconds),
            "pass_s.tail": tail_percentile(seconds)[1],
            "ref_s.p50": statistics.median(p["ref_s"] for p in passes),
            "fail_ratio": failed / len(passes), "setup_probes": len(setup),
            "setup_s.raw": statistics.median(s for s, _ref in setup),
            "setup_ref_s.p50": statistics.median(ref for _s, ref in setup)}
    return metrics, info


def traced_run(workload, inputs, seconds: float, tag: str):
    from bench.tracer import Tracer, layer_metrics, uncovered_per_pass

    tracer = Tracer()
    passes = run_passes(workload, inputs, seconds, tag, tracer)
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    windows = [(p["id"], p["start"], p["end"]) for p in traced]
    spans = tracer.spans
    uncovered = uncovered_per_pass(spans, windows)
    metrics = layer_metrics(spans)
    # each traced pass against the untraced pass just before it, both
    # divided by their reference times
    metrics["trace.overhead_ratio"] = (statistics.median(
        (t["seconds"] / t["ref_s"]) / (u["seconds"] / u["ref_s"])
        for u, t in zip(plain, traced)), "ratio")
    metrics["trace.uncovered_s"] = (statistics.median(uncovered), "s")
    metrics["trace.coverage"] = (
        1.0 - statistics.median(u / p["seconds"] for u, p in zip(uncovered, traced)),
        "ratio")
    metrics["trace.spans_per_pass"] = (len(spans) / len(traced), "count")
    span_path = os.path.join(OUT_ROOT, f"{workload.name}-spans.jsonl.gz")
    tracer.write_jsonl(span_path, windows)
    info = {"untraced_passes": len(plain), "traced_passes": len(traced),
            "uncovered_s_per_pass": uncovered, "spans_file": span_path}
    return passes, metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "hjwave", "__init__.py")):
        print("bench: src/hjwave not found; run from a full checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy loads, here and in setup probes
        os.environ[var] = "1"
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from bench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    inputs = workload.setup(args.seed)
    if args.setup_probe:
        return 0

    os.makedirs(OUT_ROOT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        passes, metrics, info = traced_run(workload, inputs, args.seconds, tag)
    else:
        setup = setup_seconds(args.workload, args.seed)
        passes = run_passes(workload, inputs, args.seconds, tag)
        metrics, info = end_to_end(passes, setup)

    failed = sum(1 for p in passes if p["failures"])
    reported = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(args.seed),
        "info": info,
        "passes": passes,
        "metrics": reported,
    }
    with open(os.path.join(OUT_ROOT, f"{tag}-result.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    for p in passes:
        for reason in p["failures"]:
            print(f"pass {p['id']} FAILED: {reason}")
    for key, value in info.items():
        if key != "uncovered_s_per_pass":
            print(f"# {key}: {value}")
    for name, (value, unit) in metrics.items():
        print(f"{check_metric_name(name)} {value!r} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(passes),
        "failed": failed,
        "metrics": reported,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
