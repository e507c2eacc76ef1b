#!/usr/bin/env python3
"""Regenerate bench/golden/corpus.json, the expected `mgcm corpus` report bytes.

Usage: python3 bench/make_golden.py

The corpus workload compares the report bytes of every cold and warm pass
with this file.  A change that alters results regenerates it and says why.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from mgcm import cli_io  # noqa: E402
from workloads import GOLDEN_CORPUS, run_cli  # noqa: E402


def main():
    code, out = run_cli(cli_io, ["corpus", "--no-cache"])
    if code != 0:
        print(f"error: mgcm corpus exited {code}", file=sys.stderr)
        return 1
    with open(os.path.join(ROOT, GOLDEN_CORPUS), "wb") as fh:
        fh.write(out)
    print(f"wrote {GOLDEN_CORPUS} ({len(out)} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
