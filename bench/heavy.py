#!/usr/bin/env python3
"""The heavy ladder: the price of each packed product next to what it costs.

Usage (from the root of a checkout):

    python3 bench/heavy.py [--max-seconds S]

For each rung the plans of the packed products it runs are read in process,
from `polynomial.packed_layout` alone: every product above PLAN_ONLY units
is planned and then skipped as if it were zero, so nothing heavy is built.
The predicted work (units, summed over the products) and peak (bytes, the
largest product's) are printed next to the wall time and max-RSS of one
fresh `python -m schubertcount ... --no-cache`, spawned from a small
launcher process, so that max-RSS is the child's own and not this
process's high-water mark.

The predicted time is the floor rung's wall time plus the work at
NS_PER_UNIT; the peak is compared with max-RSS above the floor rung's.  The
other stages of a run (a Schur division, a scan, the quadrature) are not
priced, so a rung without a packed product has no prediction.  A rung
whose predicted time is above --max-seconds, or whose peak is above
MAX_RUN_PEAK, is skipped and listed as such.  Results go to stdout
and to .perfbench/BENCH_heavy.json.  This is a report, not a check: each
rung's exit code is recorded, and the script exits 0.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from schubertcount import cli, polynomial  # noqa: E402

# the engine's time per unit of work, fitted on this ladder (README: 0.6-1.8 ns on a 2-vCPU VM)
NS_PER_UNIT = 1.0
# products at most this heavy run in the planning pass (orbit products of a real count are among them)
PLAN_ONLY = 10**6
# never start a rung predicted to hold more than this at its peak
MAX_RUN_PEAK = 3 << 30
# the commands that run packed products; the others are not planned
ENGINE_COMMANDS = {"count", "lambda", "incidence", "cubic-ci"}

FLOOR = "count --regime complex -d 3 -k 2"
RUNGS = (
    "count --regime complex -d 7 -k 4",
    "count --regime complex -d 9 -k 4",
    "count --regime real -d 7 -k 3",
    "count --regime real -d 21 -k 2",
    "count --regime real -d 33 -k 2",
    "count --regime real -d 7 -k 3 --dump-poly",
    "scan -d 9 --grid 1440",
    "lambda --regime complex -d 3 -k 4 --alpha 5,5,5,5 --numeric",
    "schur --alpha 240,120,0",
    "cubic-ci -r 1000",
    "cubic-ci -r 1850",
    "incidence --regime complex -n 30",
    "count --regime complex -d 11 -k 4",
)

LAUNCHER = ("import os, subprocess, sys, time\n"
            "start = time.perf_counter()\n"
            "proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
            "_, status, usage = os.wait4(proc.pid, 0)\n"
            "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, time.perf_counter() - start)\n")


def plan(command: str) -> tuple[int, int]:
    """(work, peak) of the packed products that `command` runs, from their plans."""
    if command.split()[0] not in ENGINE_COMMANDS:
        return 0, 0
    layouts = []
    packed_layout = polynomial.packed_layout

    def planned(*args, **kwargs):
        layout = packed_layout(*args, **kwargs)
        if layout is not None:
            layouts.append(layout)
        return None if layout is None or layout.work > PLAN_ONLY else layout

    polynomial.packed_layout = planned
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.main(command.split() + ["--no-cache"])
    finally:
        polynomial.packed_layout = packed_layout
    return sum(layout.work for layout in layouts), max((layout.peak for layout in layouts), default=0)


def measure(command: str) -> tuple[int, float, float]:
    """(exit code, wall seconds, max-RSS in MiB) of one fresh run of `command`."""
    argv = [sys.executable, "-m", "schubertcount", *command.split(), "--no-cache"]
    env = {k: v for k, v in os.environ.items() if k != "SCHUBERT_CACHE"}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", LAUNCHER, *argv], capture_output=True, text=True, env=env,
                         check=True).stdout.split()
    code, max_rss, seconds = int(out[0]), int(out[1]), float(out[2])
    return code, seconds, max_rss / (2**20 if sys.platform == "darwin" else 2**10)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-seconds", type=float, default=float("inf"),
                        help="skip the rungs predicted to take longer than this")
    args = parser.parse_args()
    _, floor_s, floor_mib = measure(FLOOR)
    print(f"floor ({FLOOR}): {floor_s:.2f} s, max-RSS {floor_mib:.1f} MiB; {NS_PER_UNIT} ns per unit of work")
    rows = []
    for command in RUNGS:
        work, peak = plan(command)
        predicted = floor_s + work * NS_PER_UNIT * 1e-9
        row = {"command": command, "work": work, "peak_mib": round(peak / 2**20, 1),
               "predicted_s": round(predicted, 2) if work else None}
        if predicted > args.max_seconds or peak > MAX_RUN_PEAK:
            row["skipped"] = True
            print(f"{command}: work {work:.2e}, peak {row['peak_mib']} MiB, predicted {predicted:.2f} s: skipped")
        else:
            code, seconds, mib = measure(command)
            # measured over predicted: the time, and max-RSS above the floor against the peak
            row.update(exit=code, seconds=round(seconds, 2), max_rss_mib=round(mib, 1),
                       time_ratio=round(seconds / predicted, 2) if work else None,
                       rss_ratio=round((mib - floor_mib) * 2**20 / peak, 2) if peak else None)
            print(f"{command}: work {work:.2e}, peak {row['peak_mib']} MiB | {seconds:.2f} s, "
                  f"max-RSS {mib:.1f} MiB, exit {code} | measured/predicted: time {row['time_ratio']}, "
                  f"max-RSS above the floor {row['rss_ratio']}")
        rows.append(row)
    out = Path.cwd() / ".perfbench"
    out.mkdir(exist_ok=True)
    record = {"floor": {"command": FLOOR, "seconds": round(floor_s, 3), "max_rss_mib": round(floor_mib, 1)},
              "ns_per_unit": NS_PER_UNIT, "max_seconds": args.max_seconds, "rungs": rows,
              "time": time.strftime("%Y-%m-%dT%H:%M:%S")}
    (out / "BENCH_heavy.json").write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
