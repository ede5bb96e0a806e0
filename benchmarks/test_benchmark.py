"""Tests of the benchmark itself; the library's tests live in ``tests/``.

    PYTHONPATH=src python -m pytest benchmarks -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Recorder, layer_totals, normalized  # noqa: E402
from worker import layer_metrics  # noqa: E402


def run_checked(workload):
    tally = workloads.Tally()
    workload.check(workload.run_pass(Recorder()), tally)
    return tally


def test_self_time_of_a_nested_tree():
    # root [0, 10] has children a [1, 4] and b [3, 6] (overlapping: the union
    # [1, 6] counts once) and c [9, 12] (clipped to the parent at 10);
    # a has child a1 [2, 3]; a second call of "a" [20, 21] is a root span
    spans = [
        (0, None, "root", 0.0, 10.0),
        (1, 0, "a", 1.0, 4.0),
        (2, 1, "a1", 2.0, 3.0),
        (3, 0, "b", 3.0, 6.0),
        (4, 0, "c", 9.0, 12.0),
        (5, None, "a", 20.0, 21.0),
    ]
    totals = layer_totals(spans)
    assert totals["root"] == (1, pytest.approx(10.0 - 5.0 - 1.0))
    assert totals["a"] == (2, pytest.approx(3.0 - 1.0 + 1.0))
    assert totals["a1"] == (1, pytest.approx(1.0))
    assert totals["b"] == (1, pytest.approx(3.0))
    assert totals["c"] == (1, pytest.approx(3.0))


def test_recorder_nests_spans_and_times_only_ops():
    rec = Recorder(trace=True)
    rec.call("outer", lambda: rec.call("inner", lambda: 1) + 1, op=False)
    assert [s[2] for s in rec.spans] == ["outer", "inner"]
    assert rec.spans[1][1] == rec.spans[0][0]
    assert len(rec.times) == 1 and rec.refs == []
    totals = layer_totals(rec.spans)
    assert totals["outer"][1] <= rec.spans[0][4] - rec.spans[0][3]


def test_battery_gate_passes_then_fails_under_negative_control():
    small = ("--order", "4", "--points", "64", "--samples", "4")
    ok = run_checked(workloads.battery(7, extra_args=small))
    assert ok.attempted > 0 and ok.failed == 0
    twisted = run_checked(workloads.battery(7, extra_args=small + ("--negative-control",)))
    assert twisted.failed > 0
    assert twisted.counters["verify.claims_failed"] > 0


def test_wrong_float_oracle_is_caught():
    class WrongOracle(workloads.FloatOracle):
        def hp_norm(self, c, p):
            return 1.01 * super().hp_norm(c, p)

    assert run_checked(workloads.float_highorder(7, orders=(64,))).failed == 0
    tally = run_checked(workloads.float_highorder(7, orders=(64,), oracle=WrongOracle()))
    # every hp_norm op, plus sn_norm, whose oracle ends in an H^p norm
    wrong = len(workloads.HP_EXPONENTS) + 1
    assert tally.failed == wrong
    assert tally.counters == {"float.oracle_mismatch": wrong}


def test_small_workloads_check_out(tmp_path):
    assert run_checked(workloads.exact_ops(7, degrees=(8, 16))).failed == 0
    small = workloads.membership_small(7, str(tmp_path), members_per_spec=2, cli_per_spec=1,
                                       atom_polys=2, harness_samples=2)
    assert run_checked(small).failed == 0


@pytest.mark.parametrize("name", ["float-highorder", "membership-small", "exact-ops"])
def test_op_counts_do_not_depend_on_the_seed(name, tmp_path):
    build = workloads.WORKLOADS[name][0]
    counts = {len(build(seed, str(tmp_path / str(seed))).ops) for seed in (7, 8, 123)}
    assert len(counts) == 1


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    metrics = layer_metrics({}, workloads.SPAN_NAMES, workloads.COUNTERS, workloads.Tally())
    metrics["trace.wall_s"] = {"unit": "s"}
    assert [m["name"] for m in spec["per_layer"]] == list(metrics)
    assert [m["unit"] for m in spec["per_layer"]] == [m["unit"] for m in metrics.values()]


def test_untraced_recorder_samples_the_reference_on_a_timer():
    rec = Recorder(reference=lambda: time.sleep(0.001), interval=0.01)
    rec.call("outer", lambda: rec.call("inner", lambda: 1), op=False)
    assert len(rec.times) == 1 and rec.refs == []
    rec.sampling(True)
    try:
        rec.call("op", busy_wait, 0.1)
    finally:
        rec.sampling(False)
    (t0, t1), = rec.times[1:]
    assert len(rec.refs) >= 3
    assert all(t0 < r0 < r1 < t1 for r0, r1 in rec.refs)
    assert all(a[1] <= b[0] for a, b in zip(rec.refs, rec.refs[1:]))


def busy_wait(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_latency_leaves_out_the_samples_inside_and_divides_by_the_nearest():
    # reference samples taking 1, 1, 2, 2 and 2 seconds
    refs = [(0.0, 1.0), (5.0, 6.0), (10.0, 12.0), (20.0, 22.0), (30.0, 32.0)]
    # the median of the three nearest samples
    assert normalized([(1.5, 4.5)], refs, nearest=3) == [(pytest.approx(3.0), pytest.approx(3.0))]
    assert normalized([(13.0, 19.0)], refs, nearest=3) == [(pytest.approx(3.0), pytest.approx(6.0))]
    # two samples inside cut the op into pieces of 4, 4 and 4 seconds, whose
    # nearest two samples take 1 and 1, 1 and 2, and 2 and 2
    assert normalized([(1.0, 16.0)], refs, nearest=2) == [
        (pytest.approx(4.0 + 4.0 / 1.5 + 2.0), pytest.approx(12.0))]
    # with fewer samples than asked for, all of them
    assert normalized([(23.0, 25.0)], refs[:2]) == [(pytest.approx(2.0), pytest.approx(2.0))]


def test_timings_are_each_ops_median_in_reference_units():
    one = {"relative": [[1.0, 4.0, 10.0], [2.0, 3.0, 20.0]],
           "latencies": [[0.001, 0.004, 0.010], [0.002, 0.003, 0.020]],
           "peak_rss_mb": 10.0, "ref_s": 0.001}
    two = {"relative": [[3.0, 5.0, 9.0]], "latencies": [[0.003, 0.005, 0.009]],
           "peak_rss_mb": 30.0, "ref_s": 0.002}
    # four passes: per-op medians 2.5, 4.5 and 9.5
    res = run.summarize([one, two, two])
    assert res["wall_ref"] == pytest.approx(2.5 + 4.5 + 9.5)
    assert res["op_p50_ref"] == pytest.approx(4.5)
    assert res["ops_per_ref"] == pytest.approx(3 / 16.5)
    assert res["raw"]["wall_s"] == (pytest.approx(0.0165), "s")
    assert res["raw"]["op_p50_ms"] == (pytest.approx(4.5), "ms")
    assert res["peak_rss_mb"] == 30.0 and res["raw"]["reference_ms"] == (2.0, "ms")
    assert set(res) >= {name for name, _ in run.END_TO_END if name != "setup_s"}


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "exact-ops", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
