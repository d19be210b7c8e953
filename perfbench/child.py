"""One pass of one workload, in a fresh interpreter.

    python3 perfbench/child.py --workload W --seed N --out RESULT.json
                               [--trace-spans SPANS.tsv]

run.py starts this with PYTHONPATH pointing at the checkout's src/, BLAS
and OpenMP capped at one thread and, for query-session, OKLADDER_CACHE_DIR
set to a fresh empty directory.  The result file holds every op's verdict,
digest and latency, the pass's wall time and peak RSS, and, when traced,
the per-layer metrics.
"""

from __future__ import annotations

import argparse
import bisect
import json
import resource
import statistics
import time
import traceback
from fractions import Fraction

import workloads


# CPU speed swings by a fifth and more over seconds (measured on a virtual
# machine with 2 vCPUs of a 2.1 GHz Xeon).  A loop of Fraction arithmetic
# slows down with it much as okladder's exact arithmetic does: over two
# minutes of such swings it cut the spread of a repeated okladder op's time,
# taken in 1 s bins, from 20% to 4%.  The loop is timed between ops, and each
# op's latency is scaled by CAL_REF_S over the median loop time within
# CAL_WINDOW_S of the op, which reports latencies at one reference speed.
# One loop time alone jitters by about 7% (interquartile range); the window
# smooths that out while still following swings that last seconds.
# CAL_REF_S is the loop's usual time on that machine, so there scaled and raw
# times agree in its usual state.
_CAL_A = [Fraction(3**k + 1, 2**k + 7) for k in range(40)]
_CAL_B = _CAL_A[:10]
CAL_REF_S = 0.002
CAL_WINDOW_S = 0.25


def calibrate() -> tuple[float, float]:
    """(time at the loop's midpoint, the loop's duration)."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for a in _CAL_A:
        for b in _CAL_B:
            acc += a * b
    t1 = time.perf_counter()
    return (t0 + t1) / 2, t1 - t0


def run_ops(ops: list[str], executor: workloads.Executor, recorder=None) -> list[dict]:
    """Run ops in order.  Each op's time covers the call into okladder, not
    its digest; `latency_s` is that time at the reference speed and
    `raw_latency_s` the time as measured."""
    results = []
    spans = []
    cals = [calibrate()]
    for index, op_id in enumerate(ops):
        if recorder is not None:
            recorder.current_op = index
        error = None
        t0 = time.perf_counter()
        try:
            verdict, payload = executor.run(op_id)
        except Exception as exc:  # an op that raises is a failed op
            verdict, payload = False, None
            error = f"{type(exc).__name__}: {exc}"
            traceback.print_exc()
        t1 = time.perf_counter()
        spans.append((t0, t1))
        results.append(
            {
                "op": op_id,
                "verdict": bool(verdict),
                "digest": None if payload is None else workloads.digest(payload),
                "raw_latency_s": t1 - t0,
                "error": error,
            }
        )
        cals.append(calibrate())

    stamps = [t for t, _ in cals]
    for i, (r, (t0, t1)) in enumerate(zip(results, spans)):
        # The loops right before and after op i, and every loop in the window.
        lo = min(i, bisect.bisect_left(stamps, t0 - CAL_WINDOW_S))
        hi = max(i + 2, bisect.bisect_right(stamps, t1 + CAL_WINDOW_S))
        speed = CAL_REF_S / statistics.median(d for _, d in cals[lo:hi])
        r["latency_s"] = r["raw_latency_s"] * speed
    return results


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace-spans", help="record spans and write them here")
    args = ap.parse_args()

    ops = workloads.build_ops(args.workload, args.seed)
    executor = workloads.Executor()
    recorder = None
    if args.trace_spans:
        from spans import SpanRecorder

        recorder = SpanRecorder()
        recorder.install()

    results = run_ops(ops, executor, recorder)
    wall_s = sum(r["latency_s"] for r in results)
    raw_wall_s = sum(r["raw_latency_s"] for r in results)
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": recorder is not None,
        "wall_s": wall_s,
        "raw_wall_s": raw_wall_s,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "ops": results,
    }
    if recorder is not None:
        recorder.uninstall()
        out["layers"] = recorder.metrics(raw_wall_s, wall_s / raw_wall_s)
        recorder.dump(args.trace_spans)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
