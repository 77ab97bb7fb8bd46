#!/usr/bin/env python3
"""The heavy ladder: the price of each packed product next to what it costs.

Usage (from the root of a checkout):

    python3 bench/heavy.py [--max-seconds S] [--repeats N]

For each rung the plans of the packed products it runs are read in process,
from `polynomial.packed_layout` alone: every product above PLAN_ONLY units
is planned and then skipped as if it were zero, so nothing heavy is built.
The predicted work (units, summed over the products) and peak (bytes, the
largest product's) are printed next to the wall time and max-RSS of fresh
`python -m schubertcount ... --no-cache` runs, each spawned from a small
launcher process, so that max-RSS is the child's own and not this
process's high-water mark.  With --repeats N each rung runs N times and
its medians are reported.

The predicted time is the floor rung's wall time plus the work at
NS_PER_UNIT; the peak is compared with max-RSS above the floor rung's.  The
other stages of a run (a Schur division, a scan, the quadrature) are not
priced, so a rung without a packed product has no prediction.  A rung
whose predicted time is above --max-seconds, or whose peak is above
MAX_RUN_PEAK, is skipped and listed as such.  Results go to stdout
and to .perfbench/BENCH_heavy.json.

Timings are a report; answers are checked.  Every run of a rung must exit
with the rung's code, and the first 16 hex digits of the sha256 of its
body's `poly`, or else its `value`, must equal the rung's pin (a rung with
neither has no pin).  Any mismatch is listed and makes the script exit 1;
a skipped rung is not checked.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from schubertcount import cli, polynomial  # noqa: E402

# the engine's time per unit of work, fitted on this ladder (README: 0.6-2.0 ns on a 2-vCPU VM)
NS_PER_UNIT = 1.0
# products at most this heavy run in the planning pass (orbit products of a real count are among them)
PLAN_ONLY = 10**6
# never start a rung predicted to hold more than this at its peak
MAX_RUN_PEAK = 3 << 30
# the commands that run packed products; the others are not planned
ENGINE_COMMANDS = {"count", "lambda", "incidence", "cubic-ci"}

# (command, exit code, pin), the pin being `digest` of the rung's body, or None where the body has no answer
FLOOR = ("count --regime complex -d 3 -k 2", 0, "670671cd97404156")
RUNGS = (
    ("count --regime complex -d 7 -k 4", 0, "b540aaca4892790f"),
    ("count --regime complex -d 9 -k 4", 0, "0d5775a3454702b4"),
    ("count --regime complex -d 9 -k 4 --dump-poly", 64, None),
    ("count --regime real -d 7 -k 3", 0, "3c80930289d88e4d"),
    ("count --regime real -d 21 -k 2", 0, "cc377344a63537ec"),
    ("count --regime real -d 33 -k 2", 0, "266492152050d399"),
    ("count --regime real -d 37 -k 2", 0, "1bedf3abb11f09ea"),
    ("count --regime real -d 7 -k 3 --dump-poly", 0, "3e5b087268b08375"),
    ("scan -d 9 --grid 1440", 0, None),
    ("lambda --regime complex -d 3 -k 4 --alpha 5,5,5,5 --numeric", 0, "60d0aed72fafce6a"),
    ("schur --alpha 240,120,0", 0, "46b41d41ee0291c4"),
    ("schur --alpha 0,0,0,0,0,0,0,0", 0, "6616e5902a8aaf1d"),
    ("cubic-ci -r 1000", 0, "dd9e4a9c7e6d5857"),
    ("cubic-ci -r 1850", 0, "0f7316cf8eb975c9"),
    ("incidence --regime complex -n 30", 0, "e395a274f7fe77e7"),
    ("count --regime complex -d 11 -k 4", 0, "f33db288cb82e299"),
)

# the child's body comes back on the launcher's stdout, its exit code, max-RSS and wall time on its stderr
LAUNCHER = ("import os, subprocess, sys, time\n"
            "start = time.perf_counter()\n"
            "proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)\n"
            "out = proc.stdout.read()\n"
            "_, status, usage = os.wait4(proc.pid, 0)\n"
            "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, time.perf_counter() - start, file=sys.stderr)\n"
            "sys.stdout.buffer.write(out)\n")


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


def digest(body: str) -> str | None:
    """The first 16 hex digits of the sha256 of the body's `poly`, or else of its `value`."""
    fields = json.loads(body) if body.strip() else {}
    answer = fields.get("poly", fields.get("value"))
    return None if answer is None else hashlib.sha256(answer.encode()).hexdigest()[:16]


def measure(command: str) -> tuple[int, float, float, str | None]:
    """(exit code, wall seconds, max-RSS in MiB, answer digest) of one fresh run of `command`."""
    argv = [sys.executable, "-m", "schubertcount", *command.split(), "--no-cache"]
    env = {k: v for k, v in os.environ.items() if k != "SCHUBERT_CACHE"}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    run = subprocess.run([sys.executable, "-c", LAUNCHER, *argv], capture_output=True, text=True, env=env, check=True)
    code, max_rss, seconds = run.stderr.split()
    return int(code), float(seconds), int(max_rss) / (2**20 if sys.platform == "darwin" else 2**10), digest(run.stdout)


def measure_rung(rung: tuple, repeats: int, mismatches: list) -> tuple[int, float, float]:
    """(exit code, median wall seconds, median max-RSS in MiB) of `repeats` runs of a rung, each checked
    against the rung's exit code and pin; a run that differs is added to `mismatches`."""
    command, code, pin = rung
    runs = [measure(command) for _ in range(repeats)]
    for got, _, _, answer in runs:
        if (got, answer) != (code, pin):
            mismatches.append(f"{command}: exit {got} and answer {answer}, expected exit {code} and answer {pin}")
    return runs[0][0], statistics.median(r[1] for r in runs), statistics.median(r[2] for r in runs)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-seconds", type=float, default=float("inf"),
                        help="skip the rungs predicted to take longer than this")
    parser.add_argument("--repeats", type=int, default=1, help="runs of each rung; medians are reported")
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    mismatches = []
    _, floor_s, floor_mib = measure_rung(FLOOR, args.repeats, mismatches)
    print(f"floor ({FLOOR[0]}): {floor_s:.2f} s, max-RSS {floor_mib:.1f} MiB; {NS_PER_UNIT} ns per unit of work; "
          f"medians of {args.repeats} run(s)")
    rows = []
    for rung in RUNGS:
        command = rung[0]
        work, peak = plan(command)
        predicted = floor_s + work * NS_PER_UNIT * 1e-9
        row = {"command": command, "pin": rung[2], "work": work, "peak_mib": round(peak / 2**20, 1),
               "predicted_s": round(predicted, 2) if work else None}
        if predicted > args.max_seconds or peak > MAX_RUN_PEAK:
            row["skipped"] = True
            print(f"{command}: work {work:.2e}, peak {row['peak_mib']} MiB, predicted {predicted:.2f} s: skipped")
        else:
            code, seconds, mib = measure_rung(rung, args.repeats, mismatches)
            # measured over predicted: the time, and max-RSS above the floor against the peak
            row.update(exit=code, seconds=round(seconds, 2), max_rss_mib=round(mib, 1),
                       time_ratio=round(seconds / predicted, 2) if work else None,
                       rss_ratio=round((mib - floor_mib) * 2**20 / peak, 2) if peak else None)
            print(f"{command}: work {work:.2e}, peak {row['peak_mib']} MiB | {seconds:.2f} s, "
                  f"max-RSS {mib:.1f} MiB, exit {code} | measured/predicted: time {row['time_ratio']}, "
                  f"max-RSS above the floor {row['rss_ratio']}")
        rows.append(row)
    for line in mismatches:
        print(f"MISMATCH {line}")
    out = Path.cwd() / ".perfbench"
    out.mkdir(exist_ok=True)
    record = {"floor": {"command": FLOOR[0], "seconds": round(floor_s, 3), "max_rss_mib": round(floor_mib, 1)},
              "ns_per_unit": NS_PER_UNIT, "max_seconds": args.max_seconds, "repeats": args.repeats, "rungs": rows,
              "mismatches": mismatches, "time": time.strftime("%Y-%m-%dT%H:%M:%S")}
    (out / "BENCH_heavy.json").write_text(json.dumps(record, indent=1) + "\n")
    return 1 if mismatches else 0

if __name__ == "__main__":
    sys.exit(main())
