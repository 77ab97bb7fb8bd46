#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the schubertcount CLI.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload exact|interactive|oracle \
        --seed N --seconds S --trace 0|1

One client, closed loop: each query is a fresh `python -m schubertcount`
process, spawned only after the previous one has exited, so interpreter
start and imports are counted as users pay them.  Every output is checked
against its pin (see workloads.py); a failed query is counted, never
retried.  Passes over the workload repeat while another one fits in
`--seconds` (at least one pass).

--trace 0 prints the end-to-end metrics, with timings in units of a fixed
reference program run between the queries.  --trace 1 runs pairs of an
untraced and a traced pass; traced queries run through tracer.py, and the
per-layer metrics are the medians over traced passes of their per-pass
totals.

The last line of stdout is the result object; the line before it holds the
environment and run details.  Both, with the raw samples, are also written
to .perfbench/BENCH_<workload>[_trace].json.  See NOTES.md for the reasoning.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
PACKAGE_SRC = ROOT / "src" / "schubertcount"
WORK = ROOT / ".perfbench"

SETUP_REPEATS = 9
QUERY_TIMEOUT_S = 60.0
# every run must end well inside the 180 s a run may take
RUN_DEADLINE_S = 150.0
REFERENCE_EVERY_S = 0.5
REFERENCE_CODE = "d = {}\nx = 3 ** 4000\nfor i in range(30000):\n    d[i, i + 1] = x * i\n"

END_TO_END_UNITS = {
    "wall_ref": "ref",
    "latency_p50_ref": "ref",
    "latency_p90_ref": "ref",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}


@dataclass
class QueryRun:
    label: str
    # identical work is one key: the argv, and whether the cache has seen it
    work: tuple
    spawn_ns: int
    exit_ns: int
    maxrss_kib: int
    failure: str | None
    trace: dict | None = None

    @property
    def latency_ms(self) -> float:
        return (self.exit_ns - self.spawn_ns) / 1e6


@dataclass
class PassRun:
    # sum of the query latencies: the pass without the reference runs
    wall_s: float
    # the work key of each draw, in order
    draws: list
    # every execution; a draw runs `query.runs` times in a measured pass
    queries: list = field(default_factory=list)
    # (mid-point in ns, latency in ms) of each reference run
    references: list = field(default_factory=list)

    @property
    def failures(self) -> list:
        return [(q.label, q.failure) for q in self.queries if q.failure]

    def local_reference_ms(self, query: QueryRun) -> float:
        """Mean latency of the reference runs just before and just after
        the query."""
        before = [ms for t, ms in self.references if t < query.spawn_ns]
        after = [ms for t, ms in self.references if t > query.exit_ns]
        near = before[-1:] + after[:1]
        return sum(near) / len(near)


def child_env(package_parent: Path) -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("SCHUBERT_CACHE", "PYTHONPATH", "PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
    env["PYTHONPATH"] = str(package_parent)
    return env


def spawn(argv: list, env: dict, out_dir: Path, timeout: float):
    """Run one process; return (spawn_ns, exit_ns, exit code, stdout,
    max RSS in KiB, timed out).  The child is reaped with wait4 so its own
    rusage is read, and killed if it outlives `timeout`."""
    out_path, err_path = out_dir / "stdout", out_dir / "stderr"
    lock = threading.Lock()
    state = {"exited": False, "timed_out": False}
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        spawn_ns = time.perf_counter_ns()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)

        def expire():
            with lock:
                if not state["exited"]:
                    state["timed_out"] = True
                    os.kill(proc.pid, signal.SIGKILL)  # unreaped, so the pid is still ours

        timer = threading.Timer(timeout, expire)
        timer.start()
        try:
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        except BaseException:  # interrupted or terminated: take the child down with us
            timer.cancel()
            os.kill(proc.pid, signal.SIGKILL)
            os.waitpid(proc.pid, 0)
            raise
        exit_ns = time.perf_counter_ns()
        with lock:
            state["exited"] = True
        timer.cancel()
        timer.join()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_text(encoding="utf-8", errors="replace")
    return spawn_ns, exit_ns, proc.returncode, stdout, usage.ru_maxrss, state["timed_out"]


def run_query(query, work: tuple, extra: tuple, traced: bool, env: dict, qdir: Path, timeout: float) -> QueryRun:
    argv = list(query.argv) + list(extra)
    spans_path = qdir / "spans.json"
    if traced:
        cmd = [sys.executable, str(HERE / "tracer.py"), str(spans_path)] + argv
    else:
        cmd = [sys.executable, "-m", "schubertcount"] + argv
    qdir.mkdir(parents=True, exist_ok=True)
    spawn_ns, exit_ns, code, stdout, maxrss, timed_out = spawn(cmd, env, qdir, timeout)
    failure = None
    if timed_out:
        failure = f"timeout after {timeout:.0f} s"
    elif code != 0:
        failure = f"exit code {code}"
    else:
        try:
            query.check(stdout)
        except workloads.Mismatch as exc:
            failure = f"mismatch: {exc}"
        except (ValueError, KeyError, TypeError) as exc:
            failure = f"unparsable output: {type(exc).__name__}: {exc}"
    trace = None
    if traced and spans_path.exists():
        try:
            trace = json.loads(spans_path.read_text(encoding="utf-8"))
        except ValueError:
            trace = None
        if trace is None and failure is None:
            failure = "traced query wrote no spans"
    return QueryRun(query.label, work, spawn_ns, exit_ns, maxrss, failure, trace)


def reference(env: dict, out_dir: Path) -> tuple:
    """(mid-point in ns, latency in ms) of one run of the reference program,
    a fixed process that does not load schubertcount."""
    out_dir.mkdir(parents=True, exist_ok=True)
    spawn_ns, exit_ns, code, _, _, timed_out = spawn([sys.executable, "-c", REFERENCE_CODE], env, out_dir, 60)
    if code != 0 or timed_out:
        raise RuntimeError(f"reference program failed with exit code {code}")
    return (spawn_ns + exit_ns) // 2, (exit_ns - spawn_ns) / 1e6


def run_pass(queries: list, workload: str, traced: bool, env: dict, pass_dir: Path, deadline: float,
             measured: bool = True) -> PassRun:
    """One pass over the queries.  A measured pass runs each draw
    `query.runs` times, and runs the reference program before a query
    whenever REFERENCE_EVERY_S has gone by since it last ran, and once after
    the last query.  A query that the run deadline leaves no time for is
    counted as failed, not skipped."""
    extra = ()
    if workload == "interactive":
        cache_dir = pass_dir / "cache"
        cache_dir.mkdir(parents=True)
        extra = ("--cache-dir", str(cache_dir))
    runs, refs, draws, seen = [], [], [], set()
    last_ref = None
    for i, query in enumerate(queries):
        work = (query.label, query.cacheable and query.label in seen)
        seen.add(query.label)
        draws.append(work)
        for j in range(query.runs if measured else 1):
            left = deadline - time.monotonic()
            if left <= 1.0:
                now = time.perf_counter_ns()
                runs.append(QueryRun(query.label, work, now, now, 0, "not started: run deadline reached"))
                continue
            if measured and (last_ref is None or time.monotonic() - last_ref >= REFERENCE_EVERY_S):
                refs.append(reference(env, pass_dir / "reference"))
                last_ref = time.monotonic()
            runs.append(run_query(query, work, extra, traced, env, pass_dir / f"q{i:03d}-{j}",
                                  min(QUERY_TIMEOUT_S, left)))
    if measured:
        refs.append(reference(env, pass_dir / "reference"))
    wall_s = sum(q.exit_ns - q.spawn_ns for q in runs) / 1e9
    return PassRun(wall_s, draws, runs, refs)


def setup(work: Path) -> tuple:
    """Prime a fresh copy of the package: copy the source, compile it to
    bytecode and import the CLI once.  Repeated SETUP_REPEATS times, each
    into a new directory; returns (last copy's parent, median seconds)."""
    times = []
    parent = None
    for i in range(SETUP_REPEATS):
        start = time.perf_counter()
        parent = work / f"setup{i}"
        shutil.copytree(PACKAGE_SRC, parent / "schubertcount",
                        ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
        env = child_env(parent)
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(parent / "schubertcount")],
                       env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        subprocess.run([sys.executable, "-c", "import schubertcount.cli"], env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return parent, statistics.median(times)


ENV_PROBE = r"""
import json, platform
info = {"python": platform.python_version()}
try:
    import numpy
    info["numpy"] = numpy.__version__
except ImportError as exc:
    info["numpy"] = f"absent: {exc}"
try:
    from schubertcount import kernels
    info["kernels_backend"] = kernels.backend() if hasattr(kernels, "backend") else "no backend()"
except Exception as exc:
    info["kernels_backend"] = f"error: {type(exc).__name__}: {exc}"
print(json.dumps(info))
"""


def environment(env: dict) -> dict:
    probe = subprocess.run([sys.executable, "-c", ENV_PROBE], env=env, cwd=ROOT,
                           capture_output=True, text=True, timeout=60)
    try:
        info = json.loads(probe.stdout)
    except ValueError:
        info = {"probe_error": probe.stderr.strip()[-300:]}
    info["numba_importable"] = importlib.util.find_spec("numba") is not None
    info["nproc"] = len(os.sched_getaffinity(0))
    info["cpu_model"] = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    info["git_sha"] = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        info["git_sha"] = sha.stdout.strip() or None
    return info


def p90(values: list) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(passes: list, setup_s: float) -> tuple:
    """End-to-end metrics of the measured passes of a run, and the
    as-measured times behind them.

    Each query execution's latency is divided by the mean latency of the
    reference runs just before and after it, which takes out the drift in
    machine speed (see NOTES.md).  Identical work (the same argv at the same
    cache state) is timed at its median over all its executions in the run:
    repeats within a pass and across passes.  The metrics are taken over
    the draws of one pass."""
    in_ref, in_ms = defaultdict(list), defaultdict(list)
    for p in passes:
        for q in p.queries:
            in_ref[q.work].append(q.latency_ms / p.local_reference_ms(q))
            in_ms[q.work].append(q.latency_ms)
    draws = passes[0].draws
    lat_ref = [statistics.median(in_ref[w]) for w in draws]
    lat_ms = [statistics.median(in_ms[w]) for w in draws]
    metrics = {
        "wall_ref": sum(lat_ref),
        "latency_p50_ref": statistics.median(lat_ref),
        "latency_p90_ref": p90(lat_ref),
        "peak_rss_mb": max(q.maxrss_kib for p in passes for q in p.queries) / 1024,
        "setup_s": setup_s,
    }
    references = [ms for p in passes for _, ms in p.references]
    measured = {"wall_s": sum(lat_ms) / 1e3,
                "latency_p50_ms": statistics.median(lat_ms),
                "latency_p90_ms": p90(lat_ms),
                "reference_median_ms": statistics.median(references),
                "reference_runs": len(references),
                "latency_samples": len(draws),
                # draws ranked above the p90 position (equal times are ranked)
                "draws_above_p90": len(draws) - 1 - math.floor(0.9 * (len(draws) - 1)),
                "passes": len(passes)}
    samples = [{"queries": [[q.work[0], q.work[1], q.spawn_ns, q.exit_ns] for q in p.queries],
                "references": p.references} for p in passes]
    return metrics, {"measured": measured}, samples


def per_layer(workload: str, pairs: list) -> tuple:
    traced = []
    for _, tpass in pairs:
        per_query = [layers.query_metrics(q.trace, q.spawn_ns, q.exit_ns) for q in tpass.queries if q.trace]
        traced.append(layers.pass_metrics(per_query, tpass.wall_s))
    metrics = layers.median_metrics(traced)
    metrics["trace.overhead_s"] = statistics.median(t.wall_s - u.wall_s for u, t in pairs)
    absent = sorted({name for _, t in pairs for q in t.queries if q.trace for name in q.trace.get("absent", ())})
    details = {"dominant": layers.dominant_share(workload, metrics), "absent": absent,
               "traced_passes": len(pairs)}
    return {name: (metrics[name], unit) for name, unit in layers.METRIC_UNITS.items()}, details


def measure(workload: str, seed: int, seconds: float, traced: bool, env: dict, work: Path) -> tuple:
    """Passes while another fits: measured ones, or for tracing, pairs of an
    untraced and a traced pass, both run once per draw without the reference
    program, whose difference is the tracing overhead."""
    queries = workloads.queries(workload, seed)
    deadline = time.monotonic() + RUN_DEADLINE_S
    start = time.perf_counter()
    runs = []
    while True:
        n = len(runs)
        untraced = run_pass(queries, workload, False, env, work / f"pass{n}u", deadline, measured=not traced)
        runs.append((untraced, run_pass(queries, workload, True, env, work / f"pass{n}t", deadline, measured=False))
                    if traced else untraced)
        spent = time.perf_counter() - start
        if spent + spent / len(runs) > seconds or time.monotonic() + spent / len(runs) > deadline:
            return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still kills its current child and removes its work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (PACKAGE_SRC / "cli.py").is_file():
        print(f"error: no package source at {PACKAGE_SRC.relative_to(ROOT)}; run from the root "
              "of a schubertcount checkout", file=sys.stderr)
        return 2

    work = WORK / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        package_parent, setup_s = setup(work)
        env = child_env(package_parent)
        runs = measure(args.workload, args.seed, args.seconds, bool(args.trace), env, work)
        info = environment(env)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = [p for run in runs for p in (run if args.trace else (run,))]
    attempted = sum(len(p.queries) for p in passes)
    failures = [f for p in passes for f in p.failures]
    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "environment": info, "attempted": attempted, "error_rate": len(failures) / attempted,
               "failures": failures[:20]}
    samples = None
    if args.trace:
        metrics, layer_details = per_layer(args.workload, runs)
        details.update(layer_details)
    else:
        e2e, measured, samples = end_to_end(passes, setup_s)
        metrics = {name: (e2e[name], unit) for name, unit in END_TO_END_UNITS.items()}
        details.update(measured)
    if args.workload == "interactive":
        queries = workloads.queries(args.workload, args.seed)
        details["repeat_share"] = 1 - len({q.label for q in queries}) / len(queries)

    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}}
    suffix = "_trace" if args.trace else ""
    (WORK / f"BENCH_{args.workload}{suffix}.json").write_text(
        json.dumps({"details": details, "result": result, "samples": samples}) + "\n", encoding="utf-8")
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
