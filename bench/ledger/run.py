#!/usr/bin/env python3
"""Build perf_ledger from source, then run it with this script's arguments.

Run from the repository root, for example:

    python3 bench/ledger/run.py --workload subset_mobile --seed 7 \
        --seconds 12 --trace 0

The build directory is $CARGO_TARGET_DIR/ledger when that variable is
set, else .bench_build/ledger. Build output goes to stderr, so the
ledger's JSON result stays the last line of stdout; ledger.json and
ledger_trace.json are written into the build directory.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                         "ledger")
    steps = [
        ["cmake", "-S", here, "-B", build, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build, "-j", str(os.cpu_count() or 1)],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            print("run.py: building perf_ledger failed", file=sys.stderr)
            return 1
    ledger = os.path.join(build, "perf_ledger")
    out = os.path.join(build, "ledger.json")
    return subprocess.run([ledger, "--out", out] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
