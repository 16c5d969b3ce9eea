#!/usr/bin/env python3
"""Flag contract test for the lumibench CLI.

Registered in ctest as `cli_flags`:

    tools/test_cli.py path/to/lumibench

A malformed or out-of-range flag value (an integer that does not fit
its destination, a width x height x spp past an int, a port above
65535, a non-finite real) exits 2 naming the flag, and so do unknown
workloads, configs and query keys. A non-finite LUMI_DETAIL warns and
falls back, a quick run exits 0, and a run whose --csv cannot be
written exits 1. Each case runs with LUMI_QUICK=1 in a fresh
temporary directory under a timeout, so a build that ignores a bad
flag fails instead of hanging. The cases double as the seed corpus of
a CLI-parser fuzz target.
"""

import json
import os
import subprocess
import sys
import tempfile

TIMEOUT_S = 60

RUN = "run --workload BUNNY_AO "
CAMPAIGN = "campaign --workload BUNNY_AO "
SERVE = "serve --cache-dir . "

# (flag or id stderr must name, arguments). Each must exit 2.
REJECTED = [
    ("--res", RUN + "--res 3000000000"),
    ("--res", RUN + "--res 46341"),
    # width x height x spp past an int, caught by whichever flag
    # comes last; small frames keep a build without the check cheap.
    ("--spp", RUN + "--res 2 --spp 536870912"),
    ("--res", RUN + "--spp 2097151 --res 33"),
    ("--spp", RUN + "--spp 3000000000"),
    ("--res", RUN + "--res 0"),
    ("--res", RUN + "--res 12x"),
    ("--res", RUN + "--res"),
    ("--interval-stats", RUN + "--interval-stats 99999999999999999999"),
    ("--interval-stats", RUN + "--interval-stats -1"),
    ("--detail", RUN + "--detail inf"),
    ("--detail", RUN + "--detail -inf"),
    ("--detail", RUN + "--detail nan"),
    ("--detail", RUN + "--detail 1e39"),
    ("--detail", RUN + "--detail 0"),
    ("--detail", CAMPAIGN + "--detail inf"),
    ("--jobs", CAMPAIGN + "--jobs 3000000000"),
    ("--jobs", CAMPAIGN + "--jobs -1"),
    ("--retries", CAMPAIGN + "--retries 3000000000"),
    ("--heartbeat", CAMPAIGN + "--heartbeat inf"),
    ("--heartbeat", CAMPAIGN + "--heartbeat -1"),
    ("--bogus-flag", CAMPAIGN + "--bogus-flag"),
    ("--port", SERVE + "--port 70000"),
    ("--port", SERVE + "--port -1"),
    ("--max-requests", SERVE + "--max-requests 3000000000"),
    ("NOPE", "run --workload NOPE"),
    ("bogus", "run --config bogus"),
    ("--where", "query --cache-dir . --where bogus=1"),
]

failures = []


def check(cond, what):
    tag = "ok  " if cond else "FAIL"
    print("%s %s" % (tag, what))
    if not cond:
        failures.append(what)


def run(binary, args, **env):
    """Exit code (None on timeout), stderr and the report r.json (or
    None) of `lumibench ARGS` with LUMI_QUICK=1 and @p env in a fresh
    directory."""
    env = dict({k: v for k, v in os.environ.items()
                if not k.startswith("LUMI_")}, LUMI_QUICK="1", **env)
    with tempfile.TemporaryDirectory(prefix="lumi_cli_") as cwd:
        try:
            proc = subprocess.run([binary] + args.split(), cwd=cwd,
                                  env=env, capture_output=True,
                                  text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None, "", None
        report = os.path.join(cwd, "r.json")
        doc = json.load(open(report)) if os.path.exists(report) else None
        return proc.returncode, proc.stderr, doc


def main():
    binary = os.path.abspath(sys.argv[1])
    for needle, args in REJECTED:
        code, stderr, _ = run(binary, args)
        check(code == 2 and needle in stderr,
              "exit 2 naming %s: lumibench %s (got exit %s)" %
              (needle, args, code))

    code, _, _ = run(binary, RUN)
    check(code == 0, "LUMI_QUICK=1 run --workload BUNNY_AO exits 0")

    # An unwritable output fails the run instead of claiming it.
    code, stderr, _ = run(binary, RUN + "--csv /nonexistent/dir/x.csv")
    check(code == 1 and "failed to write /nonexistent/dir/x.csv" in
          stderr,
          "run --csv to an unwritable path exits 1 (got exit %s)" %
          code)

    # A non-finite LUMI_DETAIL warns and falls back: the report
    # records a real number, so the cache and --where detail= match.
    code, stderr, doc = run(binary, RUN + "--report r.json",
                            LUMI_DETAIL="inf")
    detail = doc and doc["options"]["scene_detail"]
    check(code == 0 and "LUMI_DETAIL" in stderr and
          isinstance(detail, float),
          "LUMI_DETAIL=inf warns and records a finite detail "
          "(got %r)" % detail)

    if failures:
        print("\n%d check(s) FAILED" % len(failures))
        return 1
    print("\nall checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
