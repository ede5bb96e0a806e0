"""hardylab benchmark: run one workload and print its metrics.

    python3 benchmarks/run.py --workload battery --seed 7 --seconds 20 --trace 0

Run from the root of a checkout.  Each run starts five fresh worker
processes, one after another, with BLAS/OpenMP thread counts fixed at 1;
each measures for a fifth of ``--seconds``.  ``setup_s`` is the median of
their set-up times.  The timings are in reference units (``ref``): each op's
latency divided by the time of a fixed reference loop measured around it
and inside it, then each op's median over all passes.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` reports per-layer call counts and self times from
spans, and writes the spans to ``.bench_out/``.  Every line but the last is for people; the last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 when every output checked out, 1 when a
correctness gate failed, and 2 when the run could not be made.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("battery", "float-highorder", "membership-small", "exact-ops")
END_TO_END = (
    ("setup_s", "s"),
    ("wall_ref", "ref"),
    ("ops_per_ref", "1/ref"),
    ("op_p50_ref", "ref"),
    ("op_p90_ref", "ref"),
    ("peak_rss_mb", "MB"),
)
RUN_BUDGET_S = 175.0
# measuring processes per run: the same code ran up to 1.9x slower in some
# fresh processes than in others on a 2-core shared host, so one process is
# not enough to time it
WORKERS = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class RunError(RuntimeError):
    pass


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="Run one hardylab benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_env():
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    # glibc's default: blocks of 128 KiB and more are mapped fresh.  Set
    # explicitly, it stops glibc from raising the threshold as a process
    # frees large blocks, which made the cost of NumPy temporaries depend on
    # what the process had allocated before (up to 30% on one op).
    env["MALLOC_MMAP_THRESHOLD_"] = "131072"
    return env


def run_worker(args, deadline):
    """Start one worker, wait for it, and return (spawn time, its JSON)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds / WORKERS),
           "--trace", str(args.trace)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError("out of time before the worker could start")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"worker exceeded the {RUN_BUDGET_S:.0f} s run budget") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return spawned, json.loads(lines[-1])


def op_medians(passes):
    """Each op's median over all passes of all workers."""
    return [statistics.median(times) for times in zip(*passes)]


def timings(ops):
    """Wall time of one pass, ops per unit of time, and the median and 90th
    percentile op latency, from per-op latencies."""
    wall = math.fsum(ops)
    return (wall, len(ops) / wall, statistics.median(ops),
            statistics.quantiles(ops, n=10, method="inclusive")[8])


def summarize(results):
    """End-to-end timings in reference units, from each op's median over all
    passes of all workers.  An op's latency in reference units is its time
    divided by the time of ``spans.reference_work`` measured around it and
    inside it, in the same process: the host's speed jumps by tens of
    percent within seconds, and the ratio cancels it, while the reference,
    which never touches hardylab, leaves every change to the program in the
    ratio.  The same timings in seconds, as this host ran them, go under
    ``"raw"``."""
    wall, rate, p50, p90 = timings(op_medians(
        [lat for res in results for lat in res["relative"]]))
    raw_wall, raw_rate, raw_p50, raw_p90 = timings(op_medians(
        [lat for res in results for lat in res["latencies"]]))
    return {
        "wall_ref": wall, "ops_per_ref": rate, "op_p50_ref": p50, "op_p90_ref": p90,
        "peak_rss_mb": statistics.median(res["peak_rss_mb"] for res in results),
        "raw": {
            "wall_s": (raw_wall, "s"), "ops_per_s": (raw_rate, "1/s"),
            "op_p50_ms": (raw_p50 * 1e3, "ms"), "op_p90_ms": (raw_p90 * 1e3, "ms"),
            "reference_ms": (statistics.median(res["ref_s"] for res in results) * 1e3, "ms"),
        },
    }


def summed(dicts):
    total = {}
    for d in dicts:
        for name, value in d.items():
            total[name] = total.get(name, 0) + value
    return total


def machine_facts():
    facts = {"nproc": os.cpu_count(), "machine": platform.machine()}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            facts["cpu"] = next(
                (line.split(":", 1)[1].strip() for line in info if line.startswith("model name")),
                platform.processor() or "unknown",
            )
    except OSError:
        facts["cpu"] = platform.processor() or "unknown"
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for level, index in (("l2", 2), ("l3", 3)):
        try:
            facts[level] = (cache / f"index{index}" / "size").read_text().strip()
        except OSError:
            facts[level] = "unknown"
    facts["commit"] = git_commit(ROOT)
    return facts


def git_commit(root):
    """HEAD's commit from the .git directory, or 'unknown' outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "hardylab" / "__init__.py").is_file():
        print(f"error: no hardylab sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    # a terminated run kills and waits for the worker it is waiting on
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        runs = [run_worker(args, deadline) for _ in range(WORKERS)]
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    results = [res for _, res in runs]
    first = results[0]
    attempted = sum(res["attempted"] for res in results)
    failed = sum(res["failed"] for res in results)
    counters = summed(res["counters"] for res in results)

    facts = dict(machine_facts(), **first["versions"])
    print("# machine: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} workers={WORKERS} "
          f"passes={sum(len(res['walls']) for res in results)} "
          f"ops={sum(len(lat) for res in results for lat in res['latencies'])} "
          f"hardylab={first['hardylab_file']}")
    if "report_sha256" in first:
        print(f"# battery report sha256: {first['report_sha256']}")
    print(f"# error_rate: {failed / max(attempted, 1):.6g} ({failed} failed of "
          f"{attempted} checked outputs) counters={json.dumps(counters)}")

    if args.trace:
        values = summed({k: m["value"] for k, m in res["layers"].items()} for res in results)
        metrics = {k: {"value": values[k], "unit": m["unit"]} for k, m in first["layers"].items()}
        wall = math.fsum(op_medians([lat for res in results for lat in res["latencies"]]))
        metrics["trace.wall_s"] = {"value": wall, "unit": "s"}
        print("# spans written to " + " ".join(res["spans_file"] for res in results))
    else:
        summary = summarize(results)
        values = dict(summary, setup_s=statistics.median(
            res["first_op_monotonic"] - spawned for spawned, res in runs))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        print("# in seconds as this host ran them; these move with the host's speed:")
        for name, (value, unit) in summary["raw"].items():
            print(f"# {name:46s} {value:>16.6g} {unit}")
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']}")
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
