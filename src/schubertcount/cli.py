"""Command-line front end: a table of commands and one emitter.

Commands: count, incidence, cubic-ci, schur, lambda, scan, asymptote,
feasibility.  Counts and other big integers are always emitted as decimal
strings inside JSON; CSV is reserved for tables.  Exit codes: 0 ok,
1 internal error, 2 infeasible parameters, 64 usage.

Caching is enabled by --cache-dir or the SCHUBERT_CACHE environment
variable and bypassed by --no-cache.  The cached payload is the JSON body
without the timing fields, so a cache hit re-emits byte-identical bytes for
everything except `cached` and `elapsed_ms`.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

from . import __version__
from .asymptotics import (
    complex_asymptote_table,
    incidence_asymptote_table,
    real_asymptote_table,
    torus_scan,
)
from .cache import ResultCache, cache_key
from .combinatorics import Infeasible, OutOfDomain, Partition, catalan, feasibility
from .counts import (
    catalan_substitution,
    cubic_ci_real,
    incidence_complex,
    incidence_real,
    linear_factors,
    plane_count,
    root_poly,
)
from .schur import numeric_schur_coefficient, schur_coefficient, schur_polynomial

USAGE_EXIT = 64
INFEASIBLE_EXIT = 2
INTERNAL_EXIT = 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2; the contract is 64
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise OutOfDomain(f"not a comma-separated integer list: {text!r}") from None


def _partition(text: str) -> Partition:
    try:
        return Partition(tuple(_int_list(text)))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad partition {text!r}: {exc}") from None


def usable_cores() -> int:
    """The CPUs this process may run on (its affinity set where the OS reports one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _thread_count(text: str) -> int:
    value, cores = int(text), usable_cores()
    if not 1 <= value <= cores:
        raise argparse.ArgumentTypeError(f"must be between 1 and the {cores} available cores, got {value}")
    return value


def _arg(*flags, **options) -> tuple:
    return flags, options


REGIME = _arg("--regime", required=True, choices=["complex", "real"])
D = _arg("-d", type=int, required=True, help="hypersurface degree")
K = _arg("-k", type=int, required=True, help="rank parameter (half-rank in the real regime)")
ALPHA = _arg("--alpha", type=_partition, required=True, help="comma-separated partition")


def _count(args) -> tuple[dict, int]:
    report = plane_count(args.regime, args.d, args.k)
    body = {"regime": args.regime, "d": args.d, "k": args.k, "m": report.m}
    if report.feasible:
        body["value"] = str(report.value)
    body["feasible"] = report.feasible
    o = report.orientability
    body["orientable_grassmannian"] = o.grassmannian if o else None
    body["sym_power_orientable"] = o.sym_power if o else None
    body["euler_number_defined"] = o.euler_defined if o else None
    if args.dump_poly and report.feasible:
        body["poly"] = root_poly(args.regime, args.d, args.k).poly.to_text()
    return body, (0 if report.feasible else INFEASIBLE_EXIT)


def _incidence(args) -> tuple[dict, int]:
    value = incidence_complex(args.n) if args.regime == "complex" else incidence_real(args.n)
    body = {"regime": args.regime, "n": args.n, "value": str(value)}
    if args.regime == "real":
        body["catalan"] = str(catalan(args.n))
    return body, 0


def _cubic_ci(args) -> tuple[dict, int]:
    report = cubic_ci_real(args.r)
    body = {
        "regime": "real",
        "degrees": [3] * args.r,
        "k": 2,
        "m": report.m,
        "value": str(report.value),
        "catalan_substitution": str(catalan_substitution(args.r)),
        "feasible": True,
    }
    return body, 0


def _schur(args) -> tuple[dict, int]:
    poly = schur_polynomial(args.regime, args.alpha)
    body = {
        "regime": args.regime,
        "alpha": list(args.alpha.parts),
        "k": poly.variables,
        "degree": poly.degree(),
        "poly": poly.poly.to_text(),
    }
    return body, 0


def _lambda(args) -> tuple[dict, int]:
    value = schur_coefficient(args.regime, linear_factors(args.regime, args.d, args.k), args.alpha)
    # orientation conventions pin a real coefficient only up to a global sign
    sign_certain = args.regime == "complex"
    body = {
        "regime": args.regime,
        "d": args.d,
        "k": args.k,
        "alpha": list(args.alpha.parts),
        "value": str(value),
        "sign_certain": sign_certain,
    }
    if args.numeric:
        num = numeric_schur_coefficient(root_poly(args.regime, args.d, args.k), args.alpha, grid=args.grid)
        signs = (1,) if sign_certain else (1, -1)
        err = min(abs(num - s * value) for s in signs)
        body["numeric"] = [num.real, num.imag]
        body["numeric_backend"] = "numpy"
        body["numeric_matches"] = bool(err <= 1e-6 * max(1.0, abs(value)))
    return body, 0


def _scan(args) -> tuple[dict, int]:
    sample = torus_scan(args.d, args.grid)
    # the kernels have one (numpy) implementation; the field stays so that bodies keep their shape
    body = {
        "d": args.d,
        "grid": args.grid,
        "backend": "numpy",
        "min_modulus": sample.min_modulus,
        "max_modulus": sample.max_modulus,
        "sign_constant": sample.sign_constant,
        "argmax_count": len(sample.argmax_angles),
        "argmax_angles": sample.argmax_angles[:8].tolist(),
    }
    return body, 0


def _rows_to_dicts(rows) -> list[dict]:
    return [
        {
            "parameter": r.parameter,
            "exact_log": r.exact_log,
            "exact_log10": r.exact_log / 2.302585092994046,
            "prediction": r.prediction,
            "ratio": r.ratio,
            "degenerate": r.degenerate,
        }
        for r in rows
    ]


def _asymptote(args) -> tuple[dict, int]:
    flag = "ns" if args.family == "incidence" else "ds"
    text = getattr(args, flag)
    if not text:
        raise OutOfDomain(f"--{flag} is required for the {args.family} family")
    values = _int_list(text)
    if args.family == "incidence":
        tables = incidence_asymptote_table(values)
    elif args.family == "real":
        tables = {"real": real_asymptote_table(values)}
    else:
        tables = {"complex": complex_asymptote_table(values, args.k)}
    return {"family": args.family, "tables": {name: _rows_to_dicts(rows) for name, rows in tables.items()}}, 0


def _feasibility(args) -> tuple[dict, int]:
    last = args.d if args.d_max is None else args.d_max
    if last < args.d:
        raise OutOfDomain(f"--d-max {last} is below -d {args.d}")
    rows = []
    for d in range(args.d, last + 1):
        f = feasibility(d, args.k, args.regime)
        rows.append(
            {
                "regime": f.regime,
                "d": f.d,
                "k": f.k,
                "feasible": f.feasible,
                "m": f.m,
                "odd_degree": f.odd_degree,
            }
        )
    if args.d_max is None:
        return rows[0], (0 if rows[0]["feasible"] else INFEASIBLE_EXIT)
    return {"rows": rows}, 0


def _feasibility_rows(body: dict) -> list[dict]:
    if "rows" not in body:
        raise OutOfDomain("CSV feasibility output needs --d-max (tables only)")
    return body["rows"]


@dataclass(frozen=True)
class Command:
    """One CLI command: its own flags, its cache parameters and its body.

    `compute(args)` returns the body, without `command` and
    `engine_version`, and the exit code.  `cache` names the arguments that
    key the result cache; `uncached_if` names a flag that keeps a run out of
    the cache.  A command with a `csv_header` can print its table rows,
    `csv_rows(body)`, as CSV.
    """

    help: str
    arguments: tuple
    compute: Callable[[argparse.Namespace], tuple[dict, int]]
    cache: tuple
    uncached_if: Optional[str] = None
    csv_header: tuple = ()
    csv_rows: Optional[Callable[[dict], list]] = None


COMMANDS = {
    "count": Command(
        "complex or real plane count",
        (REGIME, D, K, _arg("--dump-poly", action="store_true", help="include the root polynomial")),
        _count, cache=("regime", "d", "k", "dump_poly"),
    ),
    "incidence": Command(
        "3-planes meeting 2n large subspaces along lines",
        (REGIME, _arg("-n", type=int, required=True)),
        _incidence, cache=("regime", "n"),
    ),
    "cubic-ci": Command(
        "real 3-planes on an intersection of r cubics",
        (_arg("-r", type=int, required=True),),
        _cubic_ci, cache=("r",),
    ),
    "schur": Command(
        "print a (real) Schur polynomial",
        (_arg("--regime", default="complex", choices=["complex", "real"]), ALPHA),
        _schur, cache=("regime", "alpha"),
    ),
    # --numeric reruns the quadrature oracle, whose purpose is to recompute: never served from the cache
    "lambda": Command(
        "Schur coefficient of a degree-d root polynomial",
        (REGIME, D, K, ALPHA,
         _arg("--numeric", action="store_true", help="also run the quadrature oracle"),
         _arg("--grid", type=int, default=None, help="quadrature nodes per axis"),
         _arg("--threads", type=_thread_count, default=1, help="kept for existing command lines; does nothing")),
        _lambda, cache=("regime", "d", "k", "alpha"), uncached_if="numeric",
    ),
    "scan": Command(
        "torus grid scan of F_d",
        (D, _arg("--grid", type=int, default=360, help="grid points per torus axis")),
        _scan, cache=("d", "grid"),
    ),
    "asymptote": Command(
        "log-scale asymptote tables",
        (_arg("--family", required=True, choices=["real", "complex", "incidence"]),
         _arg("--ds", default="", help="comma-separated degrees (real/complex family)"),
         _arg("--ns", default="", help="comma-separated n values (incidence family)"),
         _arg("-k", type=int, default=4, help="rank for the complex family")),
        _asymptote, cache=("family", "ds", "ns", "k"),
        csv_header=("family", "parameter", "exact_log", "exact_log10", "prediction", "ratio", "degenerate"),
        csv_rows=lambda body: [dict(r, family=name) for name, rows in body["tables"].items() for r in rows],
    ),
    "feasibility": Command(
        "dimension-condition check",
        (REGIME, D, K, _arg("--d-max", type=int, default=None, help="tabulate degrees d..d-max")),
        _feasibility, cache=("regime", "d", "k", "d_max"),
        csv_header=("regime", "d", "k", "feasible", "m", "odd_degree"), csv_rows=_feasibility_rows,
    ),
}


def build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["json", "csv"], default="json")
    common.add_argument("--cache-dir", default=None)
    common.add_argument("--no-cache", action="store_true")

    parser = _Parser(prog="schubertcount", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", required=True, parser_class=_Parser)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=command.help)
        for flags, options in command.arguments:
            p.add_argument(*flags, **options)
    return parser


def _cache_text(value):
    return ",".join(map(str, value.parts)) if isinstance(value, Partition) else value


def _emit(command: Command, args) -> int:
    """Fetch or compute a body, print it as JSON or CSV, return the exit code.

    The body is serialized once, with `command` and `engine_version` first;
    only exit-code-0 bodies are stored, and a hit re-emits the stored bytes.
    A failed cache write costs a warning, never the result.
    """
    if args.format == "csv" and not command.csv_header:
        raise OutOfDomain(f"CSV output is only available for tables, not `{args.command}`")
    start = time.perf_counter()
    directory = args.cache_dir or os.environ.get("SCHUBERT_CACHE")
    use_cache = directory and not args.no_cache and not (command.uncached_if and getattr(args, command.uncached_if))
    cache = ResultCache(directory) if use_cache else None
    key = cache_key(args.command, {n: _cache_text(getattr(args, n)) for n in command.cache}, __version__)
    text = cache.lookup(key) if cache else None
    cached, code = text is not None, 0
    if text is None:
        body, code = command.compute(args)
        text = json.dumps({"command": args.command, "engine_version": __version__, **body})
        if cache and code == 0:
            try:
                cache.store(key, text, __version__)
            except OSError as exc:
                print(f"warning: result not cached: {exc}", file=sys.stderr)
    body = json.loads(text)
    if args.format == "csv":
        rows = command.csv_rows(body)
        writer = csv.writer(sys.stdout)
        writer.writerow(command.csv_header)
        writer.writerows([["" if row[c] is None else row[c] for c in command.csv_header] for row in rows])
        return code
    body["cached"] = cached
    body["elapsed_ms"] = int((time.perf_counter() - start) * 1000)
    print(json.dumps(body))
    return code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _emit(COMMANDS[args.command], args)
    except SystemExit as exc:  # from argparse: --help exits 0, a usage error USAGE_EXIT
        return exc.code or 0
    except Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return INFEASIBLE_EXIT
    except OutOfDomain as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except Exception as exc:  # pragma: no cover - internal failures
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL_EXIT


if __name__ == "__main__":
    sys.exit(main())
