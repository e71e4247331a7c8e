"""Run one workload over several seeds and report each metric's spread.

    python3 bench/spread.py --workload grid-certificates --seeds 1-10

Runs ``bench/run.py`` once per seed, one after another, and prints for
every metric the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread: the distance between the quartiles as a share of the
median.  ``--json PATH`` also writes the values and summaries.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", default=None)
    args = parser.parse_args(argv)

    seconds = args.seconds
    if seconds is None:
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
            seconds = json.load(fh)["run_seconds"]
    results = []
    for seed in parse_seeds(args.seeds):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(args.trace)],
            check=True, capture_output=True, text=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        results.append(result)
        print(f"seed {seed}: attempted {result['attempted']}, "
              f"failed {result['failed']}", flush=True)

    summary = {
        name: {"unit": results[0]["metrics"][name]["unit"],
               **summarize([r["metrics"][name]["value"] for r in results])}
        for name in results[0]["metrics"]
    }
    for name, s in summary.items():
        print(f"{name:40s} median {s['median']:.6g} {s['unit']}  "
              f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"workload": args.workload, "trace": args.trace,
                       "seconds": seconds, "seeds": args.seeds,
                       "all_correct": all(r["correct"] for r in results),
                       "metrics": summary}, fh, indent=1)
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
