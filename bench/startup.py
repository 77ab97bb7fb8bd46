#!/usr/bin/env python3
"""Start-up cost of schubertcount: what a fresh process pays before and around its answer.

Usage (from the root of a checkout):

    python3 bench/startup.py

Eight fresh processes run in turn, RUNS times each, so that drift in the
machine's speed falls on all of them alike: the exit floor `python -c
"import os; os._exit(0)"`, `python -c pass`, a JSON cache-hit `count` (its
entry is written once before the timed runs), a computed `feasibility
--regime complex -d 3 -k 4 --no-cache`, a computed `scan -d 3 --grid 64
--no-cache`, and `pass`, the hit and the computed run again under `python
-S`, which does not import `site`.  Their
wall times are reported as medians and quartiles.  `pass` minus the exit
floor is the interpreter's teardown (`teardown_ms`), which `python -m
schubertcount` skips by ending with `os._exit`; so the hit's and the
computed run's overheads are taken over the exit floor, since over `pass`
they would read negative.  Under `-S` they are taken over `python -S -c
pass`, whose teardown is that of a few dozen modules.  One more run of each
under `-X importtime` gives the modules it adds to those of its `pass` (the
`-S` one for the `-S` runs) and the sum of their self times, and the share
of the `schubertcount` lines, with the package modules it loads (a scan
loads `asymptotics`, and none of the exact engine: `counts`, `polynomial`,
`schur`); under `-S` the added modules are all that the run itself imports.  Results go to stdout and to
.perfbench/BENCH_startup.json.  Timings are a report: the script exits 1
only when a run fails or a hit is not served from the cache.
"""

from __future__ import annotations

import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 21  # timed runs of each process
# a line of -X importtime: "import time: <self us> | <cumulative us> | <indent><module>"
IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+\d+ \| *(\S+)$", re.M)


def cases(cache: str) -> dict:
    hit = ["-m", "schubertcount", "count", "--regime", "complex", "-d", "3", "-k", "2", "--cache-dir", cache]
    computed = ["-m", "schubertcount", "feasibility", "--regime", "complex", "-d", "3", "-k", "4", "--no-cache"]
    scan = ["-m", "schubertcount", "scan", "-d", "3", "--grid", "64", "--no-cache"]
    plain = {"exit": ["-c", "import os; os._exit(0)"], "pass": ["-c", "pass"], "hit": hit, "computed": computed,
             "scan": scan}
    return {**{name: [sys.executable, *argv] for name, argv in plain.items()},
            **{f"{name} -S": [sys.executable, "-S", *plain[name]] for name in ("pass", "hit", "computed")}}


def baseline(name: str) -> str:
    """The `pass` run that `name` is compared with: the one under the same flags."""
    return "pass -S" if name.endswith(" -S") else "pass"


def run(argv: list, env: dict, *flags) -> subprocess.CompletedProcess:
    return subprocess.run([argv[0], *flags, *argv[1:]], capture_output=True, text=True, env=env, check=True)


def imports(argv: list, env: dict) -> dict:
    """Self microseconds of each module that `argv` imports, from one run under -X importtime."""
    return {name: int(us) for us, name in IMPORT_LINE.findall(run(argv, env, "-X", "importtime").stderr)}


def summary(ms: list) -> dict:
    q1, median, q3 = statistics.quantiles(ms, n=4)
    return {"median_ms": round(median, 2), "q1_ms": round(q1, 2), "q3_ms": round(q3, 2), "runs": len(ms)}


def main() -> int:
    # bytecode is written and read, as for an installed package
    env = {k: v for k, v in os.environ.items()
           if k not in ("SCHUBERT_CACHE", "PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    with tempfile.TemporaryDirectory() as cache:
        argvs = cases(cache)
        run(argvs["hit"], env)  # writes the entry, and compiles the bytecode of every module the runs use
        run(argvs["computed"], env)
        run(argvs["scan"], env)
        for name in ("hit", "hit -S"):
            if '"cached": true' not in run(argvs[name], env).stdout:
                print(f"the {name} run was not served from the cache", file=sys.stderr)
                return 1
        ms = {name: [] for name in argvs}
        for _ in range(RUNS):
            for name, argv in argvs.items():
                start = time.perf_counter()
                subprocess.run(argv, stdout=subprocess.DEVNULL, env=env, check=True)
                ms[name].append((time.perf_counter() - start) * 1000)
        modules = {name: imports(argv, env) for name, argv in argvs.items()}
    record = {"python": sys.version.split()[0], "runs": {}}
    for name, argv in argvs.items():
        added = {m: us for m, us in modules[name].items() if m not in modules[baseline(name)]}
        package = sorted(m for m in added if m.split(".")[0] == "schubertcount")
        own = sum(added[m] for m in package)
        stdlib = sorted(m for m in added if m.split(".")[0] != "schubertcount")
        record["runs"][name] = dict(summary(ms[name]), argv=argv[1:], added_import_us=sum(added.values()),
                                    schubertcount_import_us=own, package_added=package, stdlib_added=stdlib)
        print(f"{name}: median {record['runs'][name]['median_ms']:.1f} ms (quartiles "
              f"{record['runs'][name]['q1_ms']:.1f}-{record['runs'][name]['q3_ms']:.1f}) | -X importtime beyond "
              f"`{baseline(name)}`: {sum(added.values())} us, {own} us of it schubertcount | package modules: "
              f"{', '.join(m.partition('.')[2] for m in package if '.' in m) or 'none'} | stdlib modules added: "
              f"{', '.join(stdlib) or 'none'}")
    floor = record["runs"]["exit"]["median_ms"]
    record["teardown_ms"] = round(record["runs"]["pass"]["median_ms"] - floor, 2)
    bare = record["runs"]["pass -S"]["median_ms"]
    for name, base in (("hit", floor), ("computed", floor), ("scan", floor), ("hit -S", bare), ("computed -S", bare)):
        record["runs"][name]["overhead_ms"] = round(record["runs"][name]["median_ms"] - base, 2)
    print(f"interpreter teardown (`python -c pass` minus the exit floor): {record['teardown_ms']:.1f} ms; "
          f"start-up overhead over the exit floor (medians of {RUNS} alternating runs): "
          f"cache hit {record['runs']['hit']['overhead_ms']:.1f} ms, "
          f"computed {record['runs']['computed']['overhead_ms']:.1f} ms, "
          f"computed scan {record['runs']['scan']['overhead_ms']:.1f} ms; over `python -S -c pass`: "
          f"cache hit {record['runs']['hit -S']['overhead_ms']:.1f} ms, "
          f"computed {record['runs']['computed -S']['overhead_ms']:.1f} ms")
    record["time"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    out = Path.cwd() / ".perfbench"
    out.mkdir(exist_ok=True)
    (out / "BENCH_startup.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
