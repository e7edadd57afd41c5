"""Tests of the benchmark itself: tracer counts, failure counting, seeded
inputs, and the program seeing only generated inputs.

    python3 -m pytest bench/tests
"""

from __future__ import annotations

import cProfile
import inspect
import json
import pstats
import random
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import ENTRY_POINTS, LAYERS, Tracer  # noqa: E402
from workloads import CertifySearch, FixSweep, Op, SubgroupLadder, Tally  # noqa: E402


@pytest.fixture(scope="module")
def fx():
    return run.import_fixlab()


class TinyLadder(SubgroupLadder):
    ladders = (((1, 0, 1), (2, 0, 0)),)
    rungs = sum(ladders, ())
    top = "l2-p0-q0"


def _tiny_work(fx):
    """A little of every layer: subgroups, a fixed subgroup, a CLI search."""
    wl = TinyLadder()
    for op in wl.cycle(fx, 5, 0):
        wl.run(fx, op, Tally())
    spec = fx.groupcore.GroupSpec(1, 1, 1)
    fx.morphism.fixed_subgroup(fx.morphism.random_endo(spec, seed=3))
    workloads.run_cli(fx, ["search-inertia", "-g", "NS2", "--sub", "a1; b1",
                           "--max-word-len", "1", "--max-gens", "2"])


def _original(fx, layer, entry):
    module = getattr(fx, layer)
    if "." in entry:
        cls_name, attr = entry.split(".")
        raw = getattr(module, cls_name).__dict__[attr]
        return raw.__func__ if isinstance(raw, staticmethod) else raw
    return getattr(module, entry)


def test_tracer_counts_match_cprofile(fx):
    tracer = Tracer(fx)
    tracer.install()
    try:
        _tiny_work(fx)
    finally:
        tracer.uninstall()
    traced = tracer.summary()["calls"]

    prof = cProfile.Profile()
    prof.runcall(_tiny_work, fx)
    stats = pstats.Stats(prof).stats
    checked = 0
    for layer in LAYERS:
        for entry in ENTRY_POINTS[layer]:
            code = _original(fx, layer, entry).__code__
            key = (code.co_filename, code.co_firstlineno, code.co_name)
            profiled = stats[key][1] if key in stats else 0
            assert traced[f"{layer}.{entry}"] == profiled, entry
            checked += profiled > 0
    assert checked >= 20
    assert traced["subgroup.from_generators"] > 0
    assert traced["cli.main"] == 1


def test_tracer_uninstall_restores_entry_points(fx):
    before = (fx.certify.from_generators, fx.groupcore.Element.__dict__["__mul__"],
              fx.intlat.Lattice.__dict__["span"])
    tracer = Tracer(fx)
    tracer.install()
    assert fx.certify.from_generators is fx.subgroup.from_generators
    assert fx.certify.from_generators is not before[0]
    tracer.uninstall()
    after = (fx.certify.from_generators, fx.groupcore.Element.__dict__["__mul__"],
             fx.intlat.Lattice.__dict__["span"])
    assert after == before


def _traced_summary(fx, tracer):
    tracer.install()
    try:
        _tiny_work(fx)
    finally:
        tracer.uninstall()
    return tracer.summary()


def test_self_times_add_up_to_top_level_spans(fx):
    s = _traced_summary(fx, Tracer(fx))
    assert all(v >= -1e-9 for v in s["self_s"].values())
    assert sum(s["layer_self_s"].values()) + s["hook_s"] == pytest.approx(
        s["top_level_s"], rel=1e-9)


def test_counter_hooks_are_not_charged_to_layers(fx):
    """A counter hook that sleeps adds its time to hook_s, not to any
    layer's self time."""
    pause = 0.005
    base = _traced_summary(fx, Tracer(fx))

    slow = Tracer(fx)
    count = slow._from_generators_hook

    def sleepy_hook(args, out):
        count(args, out)
        time.sleep(pause)

    slow._from_generators_hook = sleepy_hook
    s = _traced_summary(fx, slow)
    slept = pause * s["calls"]["subgroup.from_generators"]
    assert slept > 0.05
    assert s["hook_s"] >= slept
    added = sum(s["layer_self_s"].values()) - sum(base["layer_self_s"].values())
    assert added < slept / 2


# ----------------------------------------------------------- failure counting


def _other_subgroup(fx, meet):
    """The full group, or the trivial one when the meet is already full."""
    full = fx.subgroup.special_subgroup(meet.spec, "full")
    return fx.subgroup.special_subgroup(meet.spec, "trivial") if meet == full else full


def test_swapped_subgroup_is_counted_failed(fx):
    wl = TinyLadder()
    tally = Tally()
    for op in wl.cycle(fx, 11, 0):
        h, k, meet, cert, member = wl.run(fx, op, tally)
        assert run.check_op(fx, wl, op, (h, k, meet, cert, member), tally) == run.OK
        swapped = (h, k, _other_subgroup(fx, meet), cert, member)
        assert run.check_op(fx, wl, op, swapped, tally) == run.WRONG


def test_too_large_subgroup_is_counted_failed(fx):
    """A from_generators that returns the full group for H passes every
    check that goes through the library; the reference record catches it."""
    wl = SubgroupLadder()
    tally = Tally()
    cheap = ("l1-p0-q1", "l3-p0-q0", "l2-p0-q2")  # the cheapest reference rungs
    for op in (op for op in wl.cycle(fx, 1, -1) if op.cls in cheap):
        h, k, meet, cert, member = wl.run(fx, op, tally)
        full = fx.subgroup.special_subgroup(op.payload[0], "full")
        if h != full:
            break
    else:
        pytest.fail("every cheap reference rung has H = G")
    assert run.check_op(fx, wl, op, (h, k, meet, cert, member), tally) == run.OK
    assert run.check_op(fx, wl, op, (full, k, meet, cert, member), tally) == run.WRONG


def test_altered_stdout_line_is_counted_failed(fx):
    wl = CertifySearch()
    op = next(Op(c, a) for c, a in wl.fixed_calls if a[0] == "pow")
    res = wl.run(fx, op, Tally())
    assert run.check_op(fx, wl, op, res, Tally()) == run.OK
    altered = replace(res, stdout=res.stdout.replace("c1^", "c1^-"))
    assert run.check_op(fx, wl, op, altered, Tally()) == run.WRONG


def test_altered_witness_rank_is_counted_failed(fx):
    wl = CertifySearch()
    argv = ["search-compression", "-g", "NS2 x Z", "--sub", "a1^2; b1^2; c1^2",
            "--max-word-len", "2", "--max-gens", "2"]
    op = Op("search-compression", argv)
    res = wl.run(fx, op, Tally())
    assert res.code == 0
    assert run.check_op(fx, wl, op, res, Tally()) == run.OK
    altered = replace(res, stdout=res.stdout.replace("rank(K) = 2", "rank(K) = 1"))
    assert altered != res
    assert run.check_op(fx, wl, op, altered, Tally()) == run.WRONG


def test_corrupted_runs_count_every_operation_failed(fx):
    class Corrupt(TinyLadder):
        def run(self, fx, op, tally):
            h, k, meet, cert, member = super().run(fx, op, tally)
            return h, k, _other_subgroup(fx, meet), cert, member

    warmup, cycles, _ = run.run_cycles(fx, Corrupt(), 3, 1e-9, Tally(), time.perf_counter(),
                                       False)
    outcomes = [r.outcome for _, recs in [warmup] + cycles for r in recs]
    assert outcomes and all(o == run.WRONG for o in outcomes)


def test_uncaught_exception_and_bad_exit_code_are_errors(fx):
    class Raising(TinyLadder):
        def run(self, fx, op, tally):
            raise IndexError("boom")

    wl = Raising()
    _, outcome, _ = run.run_op(fx, wl, wl.cycle(fx, 3, 0)[0], Tally())
    assert outcome == run.ERROR
    cs = CertifySearch()
    op = Op("edge", ["rank", "-g", "NS2 x Z", "--sub", ""])
    bad = workloads.CliResult(3, "", "")
    assert run.check_op(fx, cs, op, bad, Tally()) == run.ERROR


# --------------------------------------------------------------- seeded inputs


@pytest.mark.parametrize("cls", [SubgroupLadder, FixSweep, CertifySearch])
def test_same_seed_same_inputs_other_seed_other_inputs(fx, cls):
    wl = cls()
    first = wl.cycle(fx, 7, 0)
    assert wl.cycle(fx, 7, 0) == first
    assert wl.cycle(fx, 8, 0) != first
    assert wl.cycle(fx, 7, 1) != first


def test_program_receives_only_generated_inputs(fx):
    seed = 987654321
    for cls in (SubgroupLadder, CertifySearch):
        wl = cls()
        assert list(inspect.signature(wl.run).parameters) == ["fx", "op", "tally"]
        ops = wl.cycle(fx, seed, 0)
        assert all(str(seed) not in repr(op.payload) for op in ops)
        op = ops[0] if cls is SubgroupLadder else ops[-1]
        random.seed(1)
        first = wl.run(fx, op, Tally())
        random.seed(2)
        assert wl.run(fx, op, Tally()) == first


def test_golden_covers_the_fixed_calls_and_the_reference_cycle(fx):
    golden = workloads.load_golden()
    keys = {workloads.golden_key(a) for _, a in CertifySearch.fixed_calls}
    assert set(golden[CertifySearch.name]) == keys
    wl = SubgroupLadder()
    keys = {wl.golden_key(fx, op) for op in wl.cycle(fx, 123, -1)}
    assert set(golden[SubgroupLadder.name]) == keys


def test_run_without_program_fails_without_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fix-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_result_line_has_the_contract_keys(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "certify-search",
         "--seed", "4", "--seconds", "0.01", "--trace", "0"],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for m in spec["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
