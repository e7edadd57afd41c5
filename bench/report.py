"""Steadiness report: repeat workloads and summarize each metric.

    python3 bench/report.py [--runs N] [--seconds S] [--first-seed K]
                            [--workloads a,b]

Runs ``run.py --trace 0`` once per workload and seed, one process at a
time, with seeds K, K+1, ...  For each workload it prints every
metric's median, first and third quartile (``statistics.quantiles(values,
n=4)``), the spread (Q3 - Q1) / median and the bound from
BENCHMARK.json.  It then prints the rung table: each rung's median p50
latency and its ratio to the rung below it on the same ladder.  With
``--runs 1`` it is the one command that runs every workload once and
prints every metric with its unit and sample count.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CLASS_LINE = re.compile(r"class (\S+)\s+n=(\d+)\s+p50_ms=\s*([0-9.]+)")


def load_bounds() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return {}
    spec = json.loads(path.read_text(encoding="utf-8"))
    return {m["name"]: m.get("bound") for m in spec["end_to_end"]}


def run_once(workload: str, seed: int, seconds: float):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    classes = {m.group(1): float(m.group(3))
               for m in map(CLASS_LINE.match, lines) if m}
    return result, lines[:-1], classes


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    bounds = load_bounds()
    for name in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        rung_p50: dict[str, list[float]] = {}
        attempted = failed = 0
        all_correct = True
        for i in range(args.runs):
            seed = args.first_seed + i
            result, lines, classes = run_once(name, seed, seconds)
            attempted += result["attempted"]
            failed += result["failed"]
            all_correct &= result["correct"]
            print(f"run {name} seed={seed} correct={result['correct']}"
                  f" attempted={result['attempted']} failed={result['failed']}", flush=True)
            if args.runs == 1:
                for line in lines:
                    print("  " + line)
            else:
                print("  " + " ".join(f"{k}={m['value']:.4g}"
                                      for k, m in result["metrics"].items()), flush=True)
            for key, m in result["metrics"].items():
                values.setdefault(key, []).append(m["value"])
                units[key] = m["unit"]
            for cls, p50 in classes.items():
                rung_p50.setdefault(cls, []).append(p50)
        print(f"\n== {name}: {args.runs} runs, {seconds:g} s each;"
              f" correct={all_correct} failed={failed}/{attempted}")
        print(f"{'metric':34} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12}"
              f" {'spread':>7} {'bound':>6}")
        for key, vals in values.items():
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(key)
            print(f"{key:34} {units[key]:6} {med:12.6g} {q1:12.6g} {q3:12.6g}"
                  f" {spread:7.3f} {'' if bound is None else bound:>6}")
        ladders = WORKLOADS[name].ladders
        if ladders:
            print(f"\n{'rung':12} {'p50_ms (median of runs)':>24} {'x rung below':>13}")
            for ladder in ladders:
                below = None
                for shape in ladder:
                    label = "l{}-p{}-q{}".format(*shape)
                    p50 = statistics.median(rung_p50.get(label, [float("nan")]))
                    ratio = f"{p50 / below:13.2f}" if below else f"{'-':>13}"
                    print(f"{label:12} {p50:24.3f} {ratio}")
                    below = p50
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
