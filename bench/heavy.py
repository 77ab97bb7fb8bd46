#!/usr/bin/env python3
"""The heavy ladder: the price of each packed product next to what it costs.

Usage (from the root of a checkout):

    python3 bench/heavy.py [--max-seconds S] [--repeats N] [--against PATH]

For each rung the plans of the packed products it runs are read in process,
from `polynomial.packed_layout` alone: every product above PLAN_ONLY units
is planned and then skipped as if it were zero, so nothing heavy is built.
The predicted work (units, summed over the products) and peak (bytes, the
largest product's) are printed next to the wall time, user and system
time, minor page faults and max-RSS of fresh `python -m schubertcount ...
--no-cache` runs, each spawned from a small launcher process, so that
max-RSS is the child's own and not this process's high-water mark.  With
--repeats N each rung runs N times and its medians are reported.

With --against PATH the rungs also run from the source tree of the
checkout at PATH, paired with this one's: each rung runs in both trees
before the next rung starts, and the pairs alternate which tree goes first,
so that the machine's drift falls on both sides alike.  The plans, and so
the predictions and the skips, are this tree's.  Each rung reports both
trees' medians and their wall-time ratio, this tree's over PATH's, the
pairs run and the pairs this tree won (the faster wall time; a tie counts
for neither), and with two or more repeats each tree's wall-time
quartiles, so that a ratio can be read against the spread it comes from.

The predicted time is the floor rung's wall time plus the work at
NS_PER_UNIT; the peak is compared with max-RSS above the floor rung's.  The
other stages of a run (a Schur division, a scan, the quadrature) are not
priced, so a rung without a packed product has no prediction.  A rung
whose predicted time is above --max-seconds, or whose peak is above
MAX_RUN_PEAK, is skipped and listed as such.  Results go to stdout
and to .perfbench/BENCH_heavy.json.

Timings are a report; answers are checked.  Every run of a rung, in either
tree, must exit with the rung's code, and the first 16 hex digits of the
sha256 of its body's `poly`, or else its `value`, must equal the rung's pin
(a rung with neither has no pin).  Any mismatch is listed and makes the
script exit 1; a skipped rung is not checked.
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

# the child's body comes back on the launcher's stdout; its exit code, max-RSS, wall time, user and system time
# and minor faults on the launcher's stderr
LAUNCHER = ("import os, subprocess, sys, time\n"
            "start = time.perf_counter()\n"
            "proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)\n"
            "out = proc.stdout.read()\n"
            "_, status, usage = os.wait4(proc.pid, 0)\n"
            "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, time.perf_counter() - start, usage.ru_utime,\n"
            "      usage.ru_stime, usage.ru_minflt, file=sys.stderr)\n"
            "sys.stdout.buffer.write(out)\n")
# the medians reported for each rung, in the order they are printed
FIELDS = ("seconds", "user_s", "system_s", "minor_faults", "max_rss_mib")


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


def measure(command: str, root: Path = ROOT) -> dict:
    """Exit code, answer digest and FIELDS of one fresh run of `command` from the source tree under `root`."""
    argv = [sys.executable, "-m", "schubertcount", *command.split(), "--no-cache"]
    env = {k: v for k, v in os.environ.items() if k != "SCHUBERT_CACHE"}
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    run = subprocess.run([sys.executable, "-c", LAUNCHER, *argv], capture_output=True, text=True, env=env, check=True)
    code, max_rss, seconds, user, system, faults = run.stderr.split()
    return {"exit": int(code), "answer": digest(run.stdout), "seconds": float(seconds), "user_s": float(user),
            "system_s": float(system), "minor_faults": int(faults),
            "max_rss_mib": int(max_rss) / (2**20 if sys.platform == "darwin" else 2**10)}


def measure_rung(rung: tuple, repeats: int, roots: list, mismatches: list, turn: int = 0) -> list:
    """For each tree in `roots`, the exit code and the medians of FIELDS over `repeats` runs of a rung.  The
    trees take turns on each repeat r, the first tree first where turn + r is even and the last one first
    where it is odd.  A run whose exit code or answer differs from the rung's is added to `mismatches`."""
    command, code, pin = rung
    runs, order = [[] for _ in roots], list(enumerate(roots))
    for r in range(repeats):
        for i, root in order[::-1] if (turn + r) % 2 else order:
            runs[i].append(measure(command, root))
    for root, mine in zip(roots, runs):
        for run in mine:
            if (run["exit"], run["answer"]) != (code, pin):
                mismatches.append(f"{command} ({root}): exit {run['exit']} and answer {run['answer']}, "
                                  f"expected exit {code} and answer {pin}")
    return [{"exit": mine[0]["exit"], "walls": [r["seconds"] for r in mine],
             **{f: statistics.median(r[f] for r in mine) for f in FIELDS}} for mine in runs]


def paired(mine: dict, other: dict) -> dict:
    """The pairs run, the pairs won by this tree (a tie counts for neither) and, from 2 runs up, each tree's
    wall-time quartiles, inclusive of the extremes."""
    walls = mine["walls"], other["walls"]
    record = {"pairs": len(walls[0]), "wins": sum(a < b for a, b in zip(*walls))}
    if len(walls[0]) > 1:
        record["quartiles_s"] = {side: [round(q, 3) for q in statistics.quantiles(w, n=4, method="inclusive")]
                                 for side, w in zip(("this", "against"), walls)}
    return record


def pairing(record: dict) -> str:
    """A `paired` record, as printed."""
    text = f"this tree won {record['wins']} of {record['pairs']} pairs"
    if "quartiles_s" in record:
        text += "; wall quartiles " + ", ".join(f"{side} " + "/".join(f"{q:.3f}" for q in qs)
                                                 for side, qs in record["quartiles_s"].items()) + " s"
    return text


def line(m: dict) -> str:
    """One tree's medians, as printed."""
    return (f"{m['seconds']:.2f} s (user {m['user_s']:.2f}, system {m['system_s']:.2f}), "
            f"{m['minor_faults'] / 1e3:.0f} K faults, max-RSS {m['max_rss_mib']:.1f} MiB, exit {m['exit']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-seconds", type=float, default=float("inf"),
                        help="skip the rungs predicted to take longer than this")
    parser.add_argument("--repeats", type=int, default=1, help="runs of each rung; medians are reported")
    parser.add_argument("--against", type=Path, metavar="PATH",
                        help="also run each rung from the checkout at PATH, paired and alternating with this one")
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if args.against is not None and not (args.against / "src" / "schubertcount").is_dir():
        parser.error(f"--against {args.against}: no src/schubertcount there")
    roots = [ROOT] + ([args.against.resolve()] if args.against is not None else [])
    mismatches = []
    floor = measure_rung(FLOOR, args.repeats, roots, mismatches)
    floor_s, floor_mib = floor[0]["seconds"], floor[0]["max_rss_mib"]
    print(f"floor ({FLOOR[0]}): {line(floor[0])}; {NS_PER_UNIT} ns per unit of work; medians of {args.repeats} "
          f"run(s)" + (f"; against {roots[1]}: {line(floor[1])}; {pairing(paired(*floor))}" if args.against else ""))
    rows = []
    for turn, rung in enumerate(RUNGS, 1):
        command = rung[0]
        work, peak = plan(command)
        predicted = floor_s + work * NS_PER_UNIT * 1e-9
        row = {"command": command, "pin": rung[2], "work": work, "peak_mib": round(peak / 2**20, 1),
               "predicted_s": round(predicted, 2) if work else None}
        if predicted > args.max_seconds or peak > MAX_RUN_PEAK:
            row["skipped"] = True
            print(f"{command}: work {work:.2e}, peak {row['peak_mib']} MiB, predicted {predicted:.2f} s: skipped")
        else:
            mine, *other = measure_rung(rung, args.repeats, roots, mismatches, turn)
            # measured over predicted: the time, and max-RSS above the floor against the peak
            row.update(exit=mine["exit"], **{f: round(mine[f], 3) for f in FIELDS},
                       time_ratio=round(mine["seconds"] / predicted, 2) if work else None,
                       rss_ratio=round((mine["max_rss_mib"] - floor_mib) * 2**20 / peak, 2) if peak else None)
            print(f"{command}: work {work:.2e}, peak {row['peak_mib']} MiB | {line(mine)} | measured/predicted: "
                  f"time {row['time_ratio']}, max-RSS above the floor {row['rss_ratio']}")
            if other:
                row["against"] = {"exit": other[0]["exit"], **{f: round(other[0][f], 3) for f in FIELDS}}
                row["wall_ratio"] = round(mine["seconds"] / other[0]["seconds"], 3)
                row.update(paired(mine, other[0]))
                print(f"    against: {line(other[0])} | wall this/against {row['wall_ratio']} | {pairing(row)}")
        rows.append(row)
    for mismatch in mismatches:
        print(f"MISMATCH {mismatch}")
    out = Path.cwd() / ".perfbench"
    out.mkdir(exist_ok=True)
    record = {"floor": {"command": FLOOR[0], **{f: round(floor[0][f], 3) for f in FIELDS}},
              "ns_per_unit": NS_PER_UNIT, "max_seconds": args.max_seconds, "repeats": args.repeats,
              "against": str(roots[1]) if args.against else None, "rungs": rows, "mismatches": mismatches,
              "time": time.strftime("%Y-%m-%dT%H:%M:%S")}
    if args.against:
        record["floor"]["against"] = {f: round(floor[1][f], 3) for f in FIELDS}
        record["floor"].update(paired(*floor))
    (out / "BENCH_heavy.json").write_text(json.dumps(record, indent=1) + "\n")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
