"""Run one benchmark workload in this process and print its raw numbers as JSON.

Started by ``run.py``, several fresh processes per workload run:

    python benchmarks/worker.py --workload exact-ops --seed 7 --seconds 5 --trace 0

Set-up covers importing hardylab, generating the seeded inputs, one
warm-up pass at a small size and a few reference samples.  The timed phase
then repeats the workload's fixed pass while another pass still fits in
``--seconds``.  Each pass starts after a full garbage collection, so
collections fall at the same points in every pass, and its outputs are
checked right after it, outside the timed region.  Untraced, reference
samples are taken before and after each pass and every
``spans.REF_INTERVAL_S`` seconds during it.  The printed JSON holds every
op latency of every pass in seconds and, untraced, in reference units,
both without the samples taken inside the op; ``run.py`` turns them into
metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def measure(workload, rec, seconds, tally):
    """Timed passes; returns each pass's wall time, the ``(start, end)`` of
    its ops and the peak resident memory in MB once the first pass is done,
    and records the checked outputs in ``tally``.  Untraced, every pass is
    bracketed by reference samples and sampled while it runs."""
    walls, times, peak_mb = [], [], None
    start = time.perf_counter()
    while True:
        first = len(rec.times)
        gc.collect()
        if not rec.tracing:
            rec.reference()
            rec.sampling(True)
        t0 = time.perf_counter()
        try:
            outputs = workload.run_pass(rec)
        finally:
            if not rec.tracing:
                rec.sampling(False)
        walls.append(time.perf_counter() - t0)
        if peak_mb is None:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if not rec.tracing:
            rec.reference()
        times.append(rec.times[first:])
        workload.check(outputs, tally)
        del outputs
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return walls, times, peak_mb


def layer_metrics(totals, span_names, counters, tally):
    """Per-layer metrics of a traced worker: ``<span>.calls`` and
    ``<span>.self_s`` for every span name (zero when the workload never
    enters it), then the correctness counters."""
    metrics = {}
    for name in span_names:
        calls, self_s = totals.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = {"value": calls, "unit": "count"}
        metrics[f"{name}.self_s"] = {"value": self_s, "unit": "s"}
    for name in counters:
        metrics[name] = {"value": tally.counters.get(name, 0), "unit": "count"}
    return metrics


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))

    import numpy

    import hardylab
    from spans import Recorder, layer_totals, normalized, write_spans
    from workloads import COUNTERS, SPAN_NAMES, WORKLOADS, Tally

    build, build_warmup = WORKLOADS[args.workload]
    workdir = ROOT / ".bench_out" / f"work-{os.getpid()}"
    try:
        workload = build(args.seed, str(workdir))
        warmup = build_warmup(args.seed, f"{workdir}-warmup")
        warm = Recorder()
        warmup.run_pass(warm)
        for _ in range(3):
            warm.reference()
        first_op = time.monotonic()
        rec = Recorder(trace=bool(args.trace))
        tally = Tally()
        walls, times, peak_mb = measure(workload, rec, args.seconds, tally)
    finally:
        for path in (workdir, f"{workdir}-warmup"):
            shutil.rmtree(path, ignore_errors=True)

    import scipy

    result = {
        "first_op_monotonic": first_op,
        "walls": walls,
        "latencies": [[t1 - t0 for t0, t1 in ops] for ops in times],
        "attempted": tally.attempted,
        "failed": tally.failed,
        "counters": tally.counters,
        "peak_rss_mb": peak_mb,
        "hardylab_file": hardylab.__file__,
        "versions": {
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    sha = getattr(workload, "report_sha256", None)
    if sha:
        result["report_sha256"] = sha
    if not rec.tracing:
        timed = [normalized(ops, rec.refs) for ops in times]
        result["relative"] = [[ratio for ratio, _ in ops] for ops in timed]
        result["latencies"] = [[seconds for _, seconds in ops] for ops in timed]
        result["ref_s"] = statistics.median(r1 - r0 for r0, r1 in rec.refs)
    if rec.tracing:
        result["layers"] = layer_metrics(layer_totals(rec.spans), SPAN_NAMES, COUNTERS, tally)
        spans_out = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}-{os.getpid()}.jsonl"
        write_spans(rec.spans, rec.run_id, spans_out)
        result["spans_file"] = str(spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
