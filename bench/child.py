"""One round of one workload in a fresh interpreter.

Usage: python3 bench/child.py MODE WORKLOAD SEED
MODE is ``setup`` (build the inputs and stop), ``plain`` (timed run) or
``traced`` (timed run with spans around every layer).  The last line of
standard output is one JSON object; ``ready`` is the CLOCK_MONOTONIC time
at which set-up ended, so the parent can measure set-up from its launch.
``setup_unit_s`` is the host's time per reference unit right after set-up
and ``unit_s`` its mean over the timed phase of a plain round (see
bench/speed.py); ``wall_s`` leaves out the time of those samples.
"""

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Reference units timed right after set-up (about 0.03 s).
SETUP_UNITS = 16


def main(argv):
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import mgcm

    if not os.path.abspath(mgcm.__file__).startswith(src + os.sep):
        raise SystemExit(f"mgcm imported from {mgcm.__file__}, not from {src}")
    import speed
    import tracer
    import workloads

    wl = workloads.WORKLOADS[workload]
    state = wl.setup(seed, ROOT)
    ready = time.monotonic()
    result = {"ready": ready,
              "setup_unit_s": speed.time_units(SETUP_UNITS) / SETUP_UNITS}
    if mode == "setup":
        return result

    trace = meter = None
    if mode == "traced":
        trace = tracer.Tracer(f"{workload}-{seed}-{os.getpid()}")
        trace.install()
    else:
        meter = speed.Speedometer()
        meter.start()
    t0 = time.perf_counter()
    outputs = wl.measure(state)
    if meter is not None:
        meter.stop()
    wall = time.perf_counter() - t0
    if meter is not None:
        wall -= meter.spent
        result["unit_s"] = (meter.unit_s() if meter.units
                            else speed.time_units(SETUP_UNITS) / SETUP_UNITS)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if trace is not None:
        trace.uninstall()
        layers = trace.layer_metrics(wall)
        layers.update(tracer.cache_totals())
        layers["cli_io.warm_pass_s"] = state.get("warm_pass_s", 0.0)
        spans_dir = os.path.join(ROOT, ".bench_out", "spans")
        os.makedirs(spans_dir, exist_ok=True)
        trace.write_spans(os.path.join(spans_dir, f"{trace.run_id}.jsonl"))
        result["layers"] = layers

    attempted, failed, problems = wl.check(state, outputs)
    result.update(wall_s=wall, peak_rss_mb=peak_kb / 1024.0,
                  attempted=attempted, failed=failed, problems=problems[:20],
                  correct=failed == 0 and not problems)
    if wl.untimed is not None:
        extra_attempted, extra_failed, notes = wl.untimed(state)
        result["attempted"] += extra_attempted
        result["failed"] += extra_failed
        result["known_faults"] = notes
    return result


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    out = main(sys.argv[1:])
    sys.stdout.write(json.dumps(out) + "\n")
