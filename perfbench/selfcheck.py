#!/usr/bin/env python3
"""Check that the benchmark counts wrong answers as failures.

Usage (from the root of a checkout): python3 perfbench/selfcheck.py

Runs one pass of three queries through the benchmark's own setup and pass
code: one with a correct pin, one with a deliberately wrong pin (28 complex
lines on a cubic surface; the published value is 27), and one whose exit
code is not 0 (an even degree in the real regime).  Exits 0 only when the
pass reports exactly the last two as failed.
"""

import shutil
import sys
import time

import run
import workloads

CORRECT = workloads.count("complex", 5, 2, 2875)
WRONG_PIN = workloads.count("complex", 3, 2, 28)
BAD_EXIT = workloads.count("real", 4, 1, 1)


def main() -> int:
    work = run.WORK / "selfcheck"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        package_parent, _ = run.setup(work)
        queries = [workloads.with_flags(q, workloads.NO_CACHE) for q in (CORRECT, WRONG_PIN, BAD_EXIT)]
        result = run.run_pass(queries, "exact", False, run.child_env(package_parent), work / "pass",
                              time.monotonic() + run.RUN_DEADLINE_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = [label for label, _ in result.failures]
    for label, reason in result.failures:
        print(f"failed: {label}: {reason}")
    expected = [queries[1].label, queries[2].label]
    if failed != expected:
        print(f"self-check FAILED: expected failures {expected}, got {failed}", file=sys.stderr)
        return 1
    print("self-check passed: the wrong pin and the bad exit code were both counted as failures")
    return 0


if __name__ == "__main__":
    sys.exit(main())
