#!/usr/bin/env python3
"""Print the blowup workload's instances for one seed, with per-instance times.

Usage: PYTHONHASHSEED=0 python3 bench/blowup_table.py --seed N

Each line gives the seconds one instance took (Rees module, pieces against
rees_piece_oracle, lem41, thm42, Krull dimensions) and its ideal families.
Instances run in order in one interpreter, as in a benchmark round, so later
instances may reuse cache entries of earlier ones.
"""

import argparse
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    state = workloads.blowup_setup(args.seed, os.path.dirname(HERE))
    times = []
    for inst in state["instances"]:
        t0 = time.perf_counter()
        outputs = workloads.blowup_measure({"instances": [inst]})
        times.append(time.perf_counter() - t0)
        _, failed, problems = workloads.blowup_check({"instances": [inst]}, outputs)
        status = "ok" if not failed else "FAILED " + "; ".join(problems)
        print(f"{times[-1]:8.4f} s  {status:3s}  " + " | ".join(
            "(" + ", ".join(gens) + ")" for gens in inst[0]))
    times.sort()
    print(f"# {len(times)} instances, total {sum(times):.2f} s, median "
          f"{times[len(times) // 2]:.4f} s, max {times[-1]:.4f} s")


if __name__ == "__main__":
    main()
