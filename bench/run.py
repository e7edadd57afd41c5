"""fixlab benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: subgroup-ladder, fix-sweep, certify-search (see NOTES.md).
The program is imported from ``src/`` next to this directory; without
it the run stops with exit code 2 and prints no result.

Each workload is a closed loop with one client: operations run one after
another in whole cycles (one cycle holds every rung or call class in a
fixed proportion).  After one untimed warm-up cycle, cycles run until the
time spent in operations reaches ``S`` seconds.  Every operation's output
is checked outside its timed region.  Every operation and set-up time
is scaled to reference speed by the probes of ``refspeed.py``, which run
between timed regions; the metrics report scaled times, and the text
lines before the result also give the raw ones.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs half
the budget untraced, then repeats the same cycles with every public
entry point of the six layers wrapped in spans, for up to the other
half, and reports the per-layer metrics.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
import types
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_RUNS = 21  # set-ups timed back to back before the run; setup_s is their median
WALL_LIMIT_S = 120.0  # no new cycle starts after this, so a run ends in time

sys.path.insert(0, str(BENCH_DIR))

from refspeed import REF_S, SpeedScale  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    CheckFailed,
    FixSweep,
    OpError,
    SubgroupLadder,
    Tally,
)

OK, ERROR, WRONG = "ok", "error", "wrong"


class SetupError(Exception):
    """The program to benchmark cannot be found or imported."""


def import_fixlab() -> types.SimpleNamespace:
    """Fresh import of the six fixlab modules from SRC_DIR."""
    if not (SRC_DIR / "fixlab" / "__init__.py").is_file():
        raise SetupError(f"no fixlab sources under {SRC_DIR}")
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
    for name in [m for m in sys.modules if m == "fixlab" or m.startswith("fixlab.")]:
        del sys.modules[name]
    fx = types.SimpleNamespace(
        **{layer: importlib.import_module(f"fixlab.{layer}") for layer in LAYERS}
    )
    if Path(fx.cli.__file__).resolve().parent != SRC_DIR / "fixlab":
        raise SetupError(f"fixlab was imported from {fx.cli.__file__}, not {SRC_DIR}")
    return fx


def setup(name: str):
    """Import fixlab and prepare the workload; returns both and the time
    it took."""
    t0 = time.perf_counter()
    fx = import_fixlab()
    workload = WORKLOADS[name]()
    return fx, workload, time.perf_counter() - t0


class Record:
    """One operation: its raw latency, the latency scaled to reference
    speed (``scaled``), its outcome and, if kept, its result."""

    __slots__ = ("cls", "latency", "scaled", "outcome", "result")

    def __init__(self, cls, latency, scaled, outcome, result):
        self.cls, self.latency, self.scaled = cls, latency, scaled
        self.outcome, self.result = outcome, result


def run_op(fx, workload, op, tally):
    t0 = time.perf_counter()
    try:
        result = workload.run(fx, op, tally)
    except Exception as exc:  # noqa: BLE001 - an uncaught exception is a failed operation
        return time.perf_counter() - t0, ERROR, repr(exc)
    return time.perf_counter() - t0, OK, result


def check_op(fx, workload, op, result, tally) -> str:
    try:
        workload.check(fx, op, result, tally)
    except OpError:
        return ERROR
    except CheckFailed:
        return WRONG
    except Exception:  # noqa: BLE001 - a check that cannot read the output fails it
        return WRONG
    return OK


def run_cycles(fx, workload, seed, budget_s, tally, t_start, keep_results):
    """One warm-up cycle, then whole cycles until raw operation time
    reaches budget_s; every output is checked.  Returns the warm-up
    cycle, the measured cycles (each a pair of ops and Records) and a
    line on harness time.

    The warm-up cycle (index -1) is checked and counted as
    attempted, but its latencies are left out of the metrics: the first
    executions of each code path run before the interpreter has
    specialised them, which made the cheap CLI calls of the first cycle
    half again as slow and tied the latency percentiles to how many
    cycles fit in the budget."""
    cycles = []
    op_time = gen_time = check_time = 0.0
    speed = SpeedScale()
    c = -1
    while op_time < budget_s and time.perf_counter() - t_start < WALL_LIMIT_S:
        t0 = time.perf_counter()
        ops = workload.cycle(fx, seed, c)
        gen_time += time.perf_counter() - t0
        records = []
        for op in ops:
            latency, outcome, result = run_op(fx, workload, op, tally)
            scaled = speed.scale(latency)
            t0 = time.perf_counter()
            if outcome == OK:
                outcome = check_op(fx, workload, op, result, tally)
            check_time += time.perf_counter() - t0
            if c >= 0:
                op_time += latency
            records.append(Record(op.cls, latency, scaled, outcome,
                                  result if keep_results else None))
        cycles.append((ops, records))
        c += 1
    harness = (f"input generation {gen_time:.2f} s, checks {check_time:.2f} s,"
               f" {len(speed.probes)} probes of median"
               f" {1000 * statistics.median(speed.probes):.3f} ms"
               f" (reference {1000 * REF_S:g} ms)")
    return cycles[0], cycles[1:], harness


def _ms(values) -> float:
    return 1000.0 * statistics.median(values)


def _p90_ms(values) -> float:
    return 1000.0 * statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(workload, records, attempted, setup_times, tally) -> tuple[dict, list[str]]:
    """Latencies are the measured records' scaled ones, setup_times pairs
    of (raw, scaled) seconds; ok_ratio counts every attempted operation,
    warm-up included."""
    lat = [r.scaled for r in records]
    raw = [r.latency for r in records]
    top = [r.scaled for r in records if r.cls == workload.top]
    raw_top = [r.latency for r in records if r.cls == workload.top]
    ok = sum(1 for r in attempted if r.outcome == OK)
    metrics = {
        "setup_s": (statistics.median(s for _, s in setup_times), "s",
                    f"median of {len(setup_times)} set-ups;"
                    f" raw {statistics.median(r for r, _ in setup_times):.6g} s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s",
                      f"{len(lat)} operations in {sum(lat):.3f} s of operation time;"
                      f" raw {len(raw) / sum(raw):.6g} 1/s in {sum(raw):.3f} s"),
        "op_p50_ms": (_ms(lat), "ms", f"n={len(lat)}; raw {_ms(raw):.6g} ms"),
        "op_p90_ms": (_p90_ms(lat), "ms", f"n={len(lat)}; raw {_p90_ms(raw):.6g} ms"),
        "top_rung_p50_ms": (_ms(top), "ms", f"class {workload.top}, n={len(top)};"
                            f" raw {_ms(raw_top):.6g} ms"),
        "ok_ratio": (ok / len(attempted), "ratio", f"{ok}/{len(attempted)} operations passed"),
        "rank_exact_ratio": (tally.rank_exact / tally.rank_total if tally.rank_total else 0.0,
                             "ratio", f"{tally.rank_exact}/{tally.rank_total} certificates exact"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
                        "ru_maxrss of this process"),
    }
    lines = [f"metric {k} = {v:.6g} {u} ({note})" for k, (v, u, note) in metrics.items()]
    return {k: (v, u) for k, (v, u, _) in metrics.items()}, lines


def class_table(records) -> list[str]:
    by_cls: dict[str, list[float]] = {}
    for r in records:
        by_cls.setdefault(r.cls, []).append(r.scaled)
    lines = []
    for cls, lat in sorted(by_cls.items(), key=lambda kv: statistics.median(kv[1])):
        fails = sum(1 for r in records if r.cls == cls and r.outcome != OK)
        lines.append(f"class {cls:<20} n={len(lat):<4} p50_ms={_ms(lat):10.3f}"
                     f" failed={fails}")
    return lines


ALL_RUNGS = tuple(
    f"l{l}-p{p}-q{q}" for l, p, q in SubgroupLadder.rungs + FixSweep.rungs
)


def per_layer(untraced_records, tracer, overhead_ratio, wall_traced):
    s = tracer.summary()
    calls, self_s = s["calls"], s["self_s"]
    metrics = {
        "groupcore.mul.calls": (calls["groupcore.Element.__mul__"], "count"),
        "intlat.calls": (s["layer_calls"]["intlat"], "count"),
        "intlat.hnf.calls": (calls["intlat.hnf"], "count"),
        "intlat.solve_linear.calls": (calls["intlat.solve_linear"], "count"),
        "intlat.hnf.peak_bits": (tracer.peak_bits, "bits"),
        "subgroup.from_generators.calls": (calls["subgroup.from_generators"], "count"),
        "subgroup.from_generators.self_s": (self_s["subgroup.from_generators"], "s"),
        "subgroup.intersect.self_s": (self_s["subgroup.intersect"], "s"),
        "subgroup.rank.self_s": (self_s["subgroup.rank"], "s"),
        "subgroup.parity_dim.max": (tracer.parity_dim_max, "count"),
        "morphism.fixed_subgroup.self_s": (self_s["morphism.fixed_subgroup"], "s"),
        "morphism.classes_tried": (tracer.classes_tried, "count"),
        "morphism.classes_solved": (tracer.classes_solved, "count"),
        "morphism.solve_ratio": (
            tracer.classes_solved / tracer.classes_tried if tracer.classes_tried else 0.0,
            "ratio"),
        "certify.from_generators.calls": (tracer.certify_fg_calls, "count"),
        "certify.distinct_ratio": (
            len(tracer.certify_distinct) / tracer.certify_fg_calls
            if tracer.certify_fg_calls else 0.0, "ratio"),
        "cli.main.calls": (calls["cli.main"], "count"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (s["layer_self_s"][layer], "s")
    layers_s = sum(s["layer_self_s"].values())
    metrics["trace.wall_s"] = (wall_traced, "s")
    metrics["trace.harness_s"] = (wall_traced - layers_s, "s")
    metrics["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    metrics["trace.spans"] = (s["spans"], "count")
    by_rung: dict[str, list[float]] = {}
    for r in untraced_records:
        by_rung.setdefault(r.cls, []).append(r.scaled)
    for rung in ALL_RUNGS:
        lat = by_rung.get(rung)
        metrics[f"rung.{rung}.p50_ms"] = (_ms(lat) if lat else 0.0, "ms")
    lines = [f"layer {k} = {v:.6g} {u}" for k, (v, u) in metrics.items()]
    lines.append(f"layer check: sum of six layer self times {layers_s:.4f} s"
                 f" + harness {wall_traced - layers_s:.4f} s (counter hooks"
                 f" {s['hook_s']:.4f} s, outside spans"
                 f" {wall_traced - s['top_level_s']:.4f} s)"
                 f" = traced operation time {wall_traced:.4f} s")
    return metrics, lines


def traced_pass(fx, workload, untraced_cycles, budget_s, tracer, t_start):
    """Re-run the untraced cycles in order with the tracer installed, until
    traced operation time reaches budget_s.  Outputs must equal the
    untraced ones.  Returns the records, the untraced and the traced
    operation time at reference speed over the cycles run in both
    passes, and the raw traced operation time."""
    unused = Tally()
    done = []
    traced_time = 0.0
    speed = SpeedScale()
    tracer.install()
    try:
        for ops, records in untraced_cycles:
            if traced_time >= budget_s or time.perf_counter() - t_start >= WALL_LIMIT_S:
                break
            row = []
            for op in ops:
                latency, outcome, result = run_op(fx, workload, op, unused)
                traced_time += latency
                row.append((latency, speed.scale(latency), outcome, result))
            done.append((records, row))
    finally:
        tracer.uninstall()
    out = []
    untraced_scaled = traced_scaled = 0.0
    for records, row in done:
        for rec, (latency, scaled, outcome, result) in zip(records, row):
            untraced_scaled += rec.scaled
            traced_scaled += scaled
            if outcome == OK and rec.outcome == OK and result != rec.result:
                outcome = WRONG
            elif outcome == OK and rec.outcome != OK:
                outcome = rec.outcome
            out.append(Record(rec.cls, latency, scaled, outcome, None))
    return out, untraced_scaled, traced_scaled, traced_time


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    t_start = time.perf_counter()
    setup_times = []
    speed = SpeedScale()
    try:
        for _ in range(SETUP_RUNS):
            fx, workload, elapsed = setup(args.workload)
            setup_times.append((elapsed, speed.scale(elapsed)))
    except (SetupError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    gc.collect()  # drop the discarded set-ups now, not inside an operation

    tally = Tally()
    budget = args.seconds / 2 if args.trace else args.seconds
    warmup, cycles, harness = run_cycles(fx, workload, args.seed, budget, tally, t_start,
                                         bool(args.trace))
    records = [r for _, recs in cycles for r in recs]
    lines = [f"workload {args.workload} seed {args.seed} trace {args.trace}:"
             f" 1 warm-up and {len(cycles)} measured cycles, {len(records)} measured"
             f" operations; {harness}"]
    lines += class_table(records)
    attempted = warmup[1] + records
    if args.trace:
        tracer = Tracer(fx)
        traced, untraced_s, traced_s, wall_t = traced_pass(fx, workload, cycles, budget,
                                                            tracer, t_start)
        ratio = traced_s / untraced_s if untraced_s else 0.0
        metrics, more = per_layer(records, tracer, ratio, wall_t)
        index = tracer.write(OUT_DIR, args.workload)
        more.append(f"spans written to {index.relative_to(BENCH_DIR.parent)}")
        attempted += traced
    else:
        metrics, more = end_to_end(workload, records, attempted, setup_times, tally)
    lines += more
    failed = sum(1 for r in attempted if r.outcome != OK)
    correct = not any(r.outcome == WRONG for r in attempted)
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": correct,
        "attempted": len(attempted),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
