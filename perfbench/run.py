"""wittlab benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

    python3 perfbench/run.py --workload witt_arith --seed 1 --seconds 20 --trace 0

Run from the root of a wittlab checkout.  Every measurement happens in a
fresh interpreter (perfbench/worker.py) on the checkout's src/, with
PYTHONHASHSEED fixed and WITTLAB_LIMIT unset.  The last stdout line is
one JSON object with the keys correct, attempted, failed and metrics;
the line before it holds the run context.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

from worker import REF_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# full: processes that set up and run timed passes, sharing --seconds;
# setup_only: extra processes that only set up, for a steadier setup_s
PLANS = {
    "witt_arith": {"full": 2, "setup_only": 0},
    "qgroup_sweep": {"full": 2, "setup_only": 3},
    "whh_sweep": {"full": 2, "setup_only": 3},
}
DEADLINE_S = 170
UNITS = {"setup_s": "s", "run_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
         "peak_rss_mb": "MB"}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def child_env():
    env = dict(os.environ)
    env.pop("WITTLAB_LIMIT", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = SRC
    return env


def spawn(args, env, deadline, extra):
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--t0", repr(time.monotonic()), *extra,
    ]
    left = deadline - time.monotonic()
    if left <= 0:
        fail("out of time before all measurements ran")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=left
        )
    except subprocess.TimeoutExpired:
        fail("a measurement process ran past the deadline")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"measurement process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(children, scaled):
    """Medians over processes and passes, raw or scaled to the reference.

    A process's times are scaled by REF_S over its mean reference loop
    time (see worker.py), which takes out most of the drift in machine speed.
    """
    med = statistics.median

    def scale(c):
        return REF_S * len(c["loops"]) / sum(c["loops"]) if scaled else 1.0

    passes = [(p, scale(c)) for c in children for p in c.get("passes", [])]
    return {
        "setup_s": med(c["setup_s"] * scale(c) for c in children),
        "run_s": med(p["time"] * s for p, s in passes),
        "op_p50_ms": med(p["p50"] * s for p, s in passes) * 1000,
        "op_p90_ms": med(p["p90"] * s for p, s in passes) * 1000,
        "peak_rss_mb": max(c["rss_mb"] for c in children if "rss_mb" in c),
    }


def src_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "wittlab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if args.workload not in PLANS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(PLANS)}")
    for need in ("src/wittlab/__init__.py", "algebras/f2.json"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            fail(f"{need} not found: run from the root of a wittlab checkout")
    env = child_env()
    # byte-compile once, so no measured import pays for compilation
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", os.path.join(SRC, "wittlab")],
        env=env, check=True, capture_output=True, timeout=120,
    )

    plan = PLANS[args.workload]
    if args.trace:
        full = [spawn(args, env, deadline, ["--trace"])]
        setups = []
    else:
        budget = str(args.seconds / plan["full"])
        full = [spawn(args, env, deadline, ["--budget", budget])
                for _ in range(plan["full"])]
        setups = [spawn(args, env, deadline, ["--setup-only"])
                  for _ in range(plan["setup_only"])]

    if not all(c["wittlab"].startswith(SRC + os.sep) for c in full):
        fail(f"measured a wittlab outside {SRC}: {full[0]['wittlab']}")
    attempted = sum(c["attempted"] for c in full)
    failed = sum(c["failed"] for c in full)
    self_check = all(c["self_check"] for c in full)
    passes = [p for c in full for p in c["passes"]]
    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in full[0]["trace"].items()}
        metrics["error_rate"] = {"value": failed / attempted, "unit": "frac"}
        raw = None
    else:
        metrics = {k: {"value": v, "unit": UNITS[k]}
                   for k, v in end_to_end(full + setups, True).items()}
        raw = end_to_end(full + setups, False)

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "raw": raw,
        "commit": commit(),
        "src_sha256": src_digest(),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "loop_s": [c["loops"] for c in full + setups],
        "setup_s": [c["setup_s"] for c in full + setups],
        "pass_s": [p["time"] for p in passes],
        "notes": [n for c in full for n in c["notes"]][:10],
        "self_check": self_check,
    }
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": failed == 0 and self_check,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
