"""One measured process: set up, run timed passes, check the results.

Started by run.py in a fresh interpreter for every measurement, so no
lru cache of one measurement is visible to another.  Prints one JSON
object on its last stdout line.

    python3 perfbench/worker.py --workload W --seed S --budget SECONDS
        --t0 MONOTONIC [--trace] [--setup-only]

--t0 is the parent's time.monotonic() just before it started this
process; set-up time runs from there to the end of the warm-up calls.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
from time import perf_counter


# Machine speed on a shared host drifts by a third within minutes.  Each
# process times a fixed reference loop LOOPS times after set-up and after
# every pass.  run.py multiplies the process's times by REF_S over its
# mean loop time: the times on a machine where the loop takes REF_S.
REF_S = 0.025
LOOPS = 8


def reference():
    """Seconds for a fixed pure-Python loop, independent of wittlab."""
    t = perf_counter()
    acc = 0
    for i in range(250_000):
        acc = (acc * 31 + i) % 1_000_003
    return perf_counter() - t


def nearest_rank(sorted_xs, q):
    return sorted_xs[max(0, math.ceil(q * len(sorted_xs)) - 1)]


def run_pass(ops):
    latencies, results, errors = [], [], []
    for op in ops:
        t = perf_counter()
        try:
            res, err = op.call(), None
        except Exception as e:  # counted as a failed operation
            res, err = None, f"{type(e).__name__}: {e}"
        latencies.append(perf_counter() - t)
        results.append(res)
        errors.append(err)
    lat = sorted(latencies)
    stats = {"time": sum(lat), "p50": nearest_rank(lat, 0.5), "p90": nearest_rank(lat, 0.9)}
    return stats, results, errors


def verify(ops, first, passes):
    """Oracle verdicts for the first pass; later passes must repeat it."""
    from workloads import SAMPLE

    seen = {}
    verdicts = []
    notes = []
    results0, errors0 = first
    for op, res, err in zip(ops, results0, errors0):
        k = seen[op.sig] = seen.get(op.sig, -1) + 1
        if err is not None:
            ok = False
            notes.append(f"{op.sig}: {err}")
        else:
            try:
                ok = bool(op.check(res, op.data, k < SAMPLE))
            except Exception as e:
                ok = False
                notes.append(f"{op.sig}: oracle raised {type(e).__name__}: {e}")
            else:
                if not ok:
                    notes.append(f"{op.sig}: wrong result")
        verdicts.append(ok)
    failed = verdicts.count(False)
    for results, errors in passes:
        for i, (res, err) in enumerate(zip(results, errors)):
            if not (err is None and verdicts[i] and res == results0[i]):
                failed += 1
                if verdicts[i]:
                    notes.append(f"{ops[i].sig}: differs from the first pass")
    return failed, notes


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--budget", type=float, default=0.0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.enabled = True
    from workloads import WORKLOADS

    make_ops, warmup, corrupt = WORKLOADS[args.workload]
    ops = make_ops(args.seed)
    warmup(ops)
    setup_s = time.monotonic() - args.t0
    loops = [reference() for _ in range(LOOPS)]
    out = {"setup_s": setup_s, "loops": loops}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    timed = []
    kept = []  # (results, errors) per pass

    def one_pass():
        stats, results, errors = run_pass(ops)
        loops.extend(reference() for _ in range(LOOPS))
        timed.append(stats)
        kept.append((results, errors))
        return stats["time"]

    if tracer:
        # The first pass is traced, so the counts cover set-up and one pass
        # including its first calls.  The untraced pass right after it
        # shares its machine state and is the reference for the overhead.
        traced = one_pass()
        tracer.enabled = False
        out["trace"] = tracer.metrics()
        out["trace"]["trace.overhead_frac"] = (traced / one_pass() - 1, "frac")
    else:
        spent = 0.0
        while True:
            took = one_pass()
            spent += took
            if spent + took > args.budget:
                break

    failed, notes = verify(ops, kept[0], kept[1:])
    bad_op, bad_result = corrupt(ops, kept[0][0])
    out.update({
        "passes": timed,
        "attempted": len(ops) * len(timed),
        "failed": failed,
        "notes": notes[:10],
        # the oracle must reject a deliberately wrong result
        "self_check": not bad_op.check(bad_result, bad_op.data, True),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "wittlab": sys.modules["wittlab"].__file__,
    })
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
