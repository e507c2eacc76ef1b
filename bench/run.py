#!/usr/bin/env python3
"""mgcm benchmark: one workload, measured for a fixed time.

Usage:
    python3 bench/run.py --workload {corpus,kunneth,dual-route,blowup}
                         --seed N --seconds S --trace {0,1}

Every round runs in a fresh interpreter with PYTHONHASHSEED fixed, so the
module-level lru_caches start empty and a repeat is not served from memory.
Rounds repeat while another one fits in S seconds; each round attempts the
same operations.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are setup_s, wall_s and peak_rss_mb (medians over
the rounds).  setup_s and wall_s are scaled to the reference speed of
bench/speed.py by the host speed sampled in the same interpreter, so they
follow the program rather than the load other tenants put on the host; the
unscaled figures go to standard error.  With --trace 1 untraced and traced
rounds alternate, and the metrics are the per-layer figures of the traced
round with the median wall time, plus the tracing overhead (median traced
minus median untraced wall, unscaled) and the host's median time per
reference unit.
See bench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from speed import REF_UNIT_S  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402

WORKLOADS = ("corpus", "kunneth", "dual-route", "blowup")
HASH_SEED = "0"
SETUP_SAMPLES = 9
# A run must end within 180 s; rounds are stopped at this deadline.
RUN_DEADLINE_S = 170


class BenchError(RuntimeError):
    pass


def launch(mode, workload, seed, deadline):
    """Run one child round; returns (launch time, parsed result)."""
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), mode, workload, str(seed)]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode} round passed the {RUN_DEADLINE_S} s deadline")
    lines = proc.stdout.decode("utf-8", "replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.decode("utf-8", "replace").strip().splitlines()[-5:]
        raise BenchError(f"{workload} {mode} round exited {proc.returncode}: "
                         + " | ".join(tail))
    return started, json.loads(lines[-1])


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "mgcm", "__init__.py")):
        print(f"error: no mgcm sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_DEADLINE_S
    # The first launch compiles bytecode; it is not a sample.
    launch("setup", args.workload, args.seed, deadline)
    setups = []  # (seconds, host seconds per reference unit)
    for _ in range(SETUP_SAMPLES):
        started, res = launch("setup", args.workload, args.seed, deadline)
        setups.append((res["ready"] - started, res["setup_unit_s"]))

    # Start another round only while it is expected to end within --seconds.
    plain, traced = [], []
    begin = time.monotonic()
    longest = 0.0
    while not plain or time.monotonic() - begin + longest <= args.seconds:
        started, res = launch("plain", args.workload, args.seed, deadline)
        setups.append((res["ready"] - started, res["setup_unit_s"]))
        plain.append(res)
        if args.trace:
            traced.append(launch("traced", args.workload, args.seed, deadline)[1])
        longest = max(longest, time.monotonic() - started)

    rounds = plain + traced
    walls = [r["wall_s"] * REF_UNIT_S / r["unit_s"] for r in plain]
    print("round wall_s: " + " ".join(f"{w:.3f}" for w in walls)
          + "  unscaled: " + " ".join(f"{r['wall_s']:.3f}" for r in plain)
          + "  unit_ms: " + " ".join(f"{r['unit_s'] * 1e3:.3f}" for r in plain)
          + ("  traced: " + " ".join(f"{r['wall_s']:.3f}" for r in traced) if traced else ""),
          file=sys.stderr)
    print(f"setup_s unscaled: {statistics.median(s for s, _ in setups):.4f}", file=sys.stderr)
    correct = all(r["correct"] for r in rounds)
    for r in rounds:
        for problem in r["problems"]:
            print(f"check failed: {problem}", file=sys.stderr)
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)

    if not args.trace:
        metrics = {
            "setup_s": metric(statistics.median(s * REF_UNIT_S / u for s, u in setups), "s"),
            "wall_s": metric(statistics.median(walls), "s"),
            "peak_rss_mb": metric(statistics.median(r["peak_rss_mb"] for r in plain), "MB"),
        }
    else:
        by_wall = sorted(traced, key=lambda r: r["wall_s"])
        layers = dict(by_wall[(len(by_wall) - 1) // 2]["layers"])
        counts = [name for name, unit in LAYER_METRICS if unit == "count"]
        for r in traced:
            if any(r["layers"][c] != layers[c] for c in counts):
                correct = False
                print("check failed: per-layer counts differ between traced rounds",
                      file=sys.stderr)
            drift = abs(r["layers"]["trace.self_sum_s"] + r["layers"]["trace.remainder_s"]
                        - r["layers"]["trace.wall_s"])
            if drift > 1e-6:
                correct = False
                print(f"check failed: self times + remainder miss wall by {drift}",
                      file=sys.stderr)
        layers["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                      - statistics.median(r["wall_s"] for r in plain))
        layers["host.unit_ms"] = statistics.median(r["unit_s"] for r in plain) * 1e3
        metrics = {name: metric(layers[name], unit) for name, unit in LAYER_METRICS}

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
