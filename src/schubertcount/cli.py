"""Command-line front end: a table of commands and one emitter.

Commands: count, incidence, cubic-ci, schur, lambda, scan, asymptote,
feasibility.  Big integers of any length are emitted as decimal strings
inside JSON; CSV is reserved for tables.  Exit codes: 0 ok, 1 internal
error, 2 infeasible parameters, 64 usage.

Caching is enabled by --cache-dir or the SCHUBERT_CACHE environment
variable and bypassed by --no-cache.  The cached payload is the JSON body
without the timing fields, so a cache hit re-emits byte-identical bytes for
everything except `cached` and `elapsed_ms`.  A hit prints its stored text
and `_dumps` writes a computed body: only a CSV cache hit imports `json`.

A plainly spelled command line (each flag spelled out, each value the next
token, every value valid) is read straight from the command table.
Anything else, help and usage errors among it, goes to argparse, which is
imported only then and writes every usage, help and error text.
"""

import os
import sys
import time
from collections import namedtuple
from types import SimpleNamespace

from . import __version__
from .cache import ResultCache, cache_key
from .combinatorics import REGIMES, Infeasible, OutOfDomain, Partition, catalan, feasibility, rank

USAGE_EXIT = 64
INFEASIBLE_EXIT = 2
INTERNAL_EXIT = 1
# the most rows one `feasibility --d-max` table holds: 100,000 rows print about 9 MB
MAX_FEASIBILITY_ROWS = 100_000
# the most bits, summed over a table's rows, of combinatorics.MAX_BINOMIAL_BITS's per-row bound:
# rows at k = 150001 took 0.41 s for d = 1..2000 at 3.6e7 and 3.7 s for d = 99990..100000 at 2.0e7
MAX_FEASIBILITY_BITS = 10**7
# the subcommand and the flags every command shares: they never change what a body holds
FRONT_END = ("command", "format", "cache_dir", "no_cache")


def _int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise OutOfDomain(f"not a comma-separated integer list: {text!r}") from None


def _partition(text: str) -> Partition:
    try:
        return Partition(tuple(_int_list(text)))
    except ValueError as exc:
        from argparse import ArgumentTypeError

        raise ArgumentTypeError(f"bad partition {text!r}: {exc}") from None


def usable_cores() -> int:
    """The CPUs this process may run on (its affinity set where the OS reports one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _thread_count(text: str) -> int:
    value, cores = int(text), usable_cores()
    if not 1 <= value <= cores:
        from argparse import ArgumentTypeError

        raise ArgumentTypeError(f"must be between 1 and the {cores} available cores, got {value}")
    return value


def _arg(*flags, **options) -> tuple:
    return flags, options


REGIME = _arg("--regime", required=True, choices=REGIMES)
D = _arg("-d", type=int, required=True, help="hypersurface degree")
K = _arg("-k", type=int, required=True, help="rank parameter (half-rank in the real regime)")
ALPHA = _arg("--alpha", type=_partition, required=True, help="comma-separated partition")
# the flags every command shares
SHARED = (
    _arg("--format", choices=["json", "csv"], default="json"),
    _arg("--cache-dir", default=None),
    _arg("--no-cache", action="store_true"),
)


# each handler imports its engine functions when it runs, so that a cache hit
# loads no engine module and a command loads only the modules it uses
def _count(args) -> tuple[dict, int]:
    from .counts import plane_count, root_poly

    # the dumped open box is priced and expanded before the count; an infeasible or even real degree has none
    feas = feasibility(args.d, args.k, args.regime)
    dump = args.dump_poly and feas.feasible and feas.odd_degree is not False
    poly = root_poly(args.regime, args.d, args.k).poly.to_text() if dump else None
    report = plane_count(args.regime, args.d, args.k)
    body = {"regime": args.regime, "d": args.d, "k": args.k, "m": report.m}
    if report.feasible:
        body["value"] = str(report.value)
    body["feasible"] = report.feasible
    o = report.orientability
    body["orientable_grassmannian"] = o.grassmannian if o else None
    body["sym_power_orientable"] = o.sym_power if o else None
    body["euler_number_defined"] = o.euler_defined if o else None
    if dump:
        body["poly"] = poly
    return body, (0 if report.feasible else INFEASIBLE_EXIT)


def _incidence(args) -> tuple[dict, int]:
    from .counts import incidence

    body = {"regime": args.regime, "n": args.n, "value": str(incidence(args.regime, args.n))}
    if args.regime == "real":
        body["catalan"] = str(catalan(args.n))
    return body, 0


def _cubic_ci(args) -> tuple[dict, int]:
    from .counts import catalan_substitution, cubic_ci_real

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
    from .schur import schur_polynomial

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
    from .counts import linear_factors
    from .schur import numeric_schur_coefficient, schur_coefficient

    factors = linear_factors(args.regime, args.d, args.k)
    # the oracle, which refuses its grid and its price before it builds f, runs before the count
    num = numeric_schur_coefficient(args.regime, factors, args.alpha, grid=args.grid) if args.numeric else None
    value = schur_coefficient(args.regime, factors, args.alpha)
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
        signs = (1,) if sign_certain else (1, -1)
        err = min(abs(num - s * value) for s in signs)
        body["numeric"] = [num.real, num.imag]
        # "numeric_backend": "numpy" is a fixed label of the body schema, kept so that bodies do not change;
        # it no longer names the implementation, which is plain Python
        body["numeric_backend"] = "numpy"
        body["numeric_matches"] = bool(err <= 1e-6 * max(1.0, abs(value)))
    return body, 0


def _scan(args) -> tuple[dict, int]:
    from .asymptotics import torus_scan

    sample = torus_scan(args.d, args.grid)
    # "backend": "numpy" is a fixed label of the body schema, kept so that bodies do not change;
    # it no longer names the implementation, which is plain Python
    body = {
        "d": args.d,
        "grid": args.grid,
        "backend": "numpy",
        "min_modulus": sample.min_modulus,
        "max_modulus": sample.max_modulus,
        "sign_constant": sample.sign_constant,
        "argmax_count": args.grid * len(sample.argmax_residues),
        "argmax_angles": sample.argmax_head(8),
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
    from .asymptotics import asymptote_table

    flag = "ns" if args.family == "incidence" else "ds"
    params = _int_list(getattr(args, flag))
    if not params:
        raise OutOfDomain(f"--{flag} is required for the {args.family} family")
    tables = asymptote_table(args.family, params, args.k)
    return {"family": args.family, "tables": {name: _rows_to_dicts(rows) for name, rows in tables.items()}}, 0


def _feasibility(args) -> tuple[dict, int]:
    last = args.d if args.d_max is None else args.d_max
    if last < args.d:
        raise OutOfDomain(f"--d-max {last} is below -d {args.d}")
    if last - args.d + 1 > MAX_FEASIBILITY_ROWS:
        raise OutOfDomain(f"-d {args.d} --d-max {last} spans more than {MAX_FEASIBILITY_ROWS} degrees")
    r = rank(args.regime, args.k)
    bits = sum(min(d, r - 1) * (d + r - 1).bit_length() for d in range(args.d, last + 1))
    if args.d_max is not None and bits > MAX_FEASIBILITY_BITS:  # feasibility() bounds a single row
        raise OutOfDomain(f"the binomials of -d {args.d} --d-max {last} at k = {args.k} may have {bits} bits "
                          f"in all, above {MAX_FEASIBILITY_BITS}")
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


class Command(namedtuple("Command", "help arguments compute uncached_if csv_header csv_rows",
                         defaults=(None, (), None))):
    """One CLI command: its own flags and its body.

    `compute(args)` returns the body, without `command` and
    `engine_version`, and the exit code.  Every one of the command's own
    `arguments` keys the result cache; `uncached_if` names a flag that keeps
    a run out of the cache.  A command with a `csv_header` can print its
    table rows, `csv_rows(body)`, as CSV.
    """

    __slots__ = ()


COMMANDS = {
    "count": Command(
        "complex or real plane count",
        (REGIME, D, K, _arg("--dump-poly", action="store_true", help="include the root polynomial")),
        _count,
    ),
    "incidence": Command(
        "3-planes meeting 2n large subspaces along lines",
        (REGIME, _arg("-n", type=int, required=True)),
        _incidence,
    ),
    "cubic-ci": Command(
        "real 3-planes on an intersection of r cubics",
        (_arg("-r", type=int, required=True),),
        _cubic_ci,
    ),
    "schur": Command(
        "print a (real) Schur polynomial",
        (_arg("--regime", default="complex", choices=REGIMES), ALPHA),
        _schur,
    ),
    # --numeric reruns the quadrature oracle, whose purpose is to recompute: never served from the cache
    "lambda": Command(
        "Schur coefficient of a degree-d root polynomial",
        (REGIME, D, K, ALPHA,
         _arg("--numeric", action="store_true", help="also run the quadrature oracle"),
         _arg("--grid", type=int, default=None, help="quadrature nodes per axis"),
         _arg("--threads", type=_thread_count, default=1, help="kept for existing command lines; does nothing")),
        _lambda, uncached_if="numeric",
    ),
    "scan": Command(
        "torus grid scan of F_d",
        (D, _arg("--grid", type=int, default=360, help="grid points per torus axis")),
        _scan,
    ),
    "asymptote": Command(
        "log-scale asymptote tables",
        (_arg("--family", required=True, choices=["real", "complex", "incidence"]),
         _arg("--ds", default="", help="comma-separated degrees (real/complex family)"),
         _arg("--ns", default="", help="comma-separated n values (incidence family)"),
         _arg("-k", type=int, default=4, help="rank for the complex family")),
        _asymptote,
        csv_header=("family", "parameter", "exact_log", "exact_log10", "prediction", "ratio", "degenerate"),
        csv_rows=lambda body: [dict(r, family=name) for name, rows in body["tables"].items() for r in rows],
    ),
    "feasibility": Command(
        "dimension-condition check",
        (REGIME, D, K, _arg("--d-max", type=int, default=None, help="tabulate degrees d..d-max")),
        _feasibility,
        csv_header=("regime", "d", "k", "feasible", "m", "odd_degree"), csv_rows=_feasibility_rows,
    ),
}


def build_parser():
    """The argparse parser of every command, for the help, usage and error
    texts of a command line that `parse_plain` does not read."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):  # argparse default exits with 2; the contract is 64
            self.print_usage(sys.stderr)
            self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")

    common = argparse.ArgumentParser(add_help=False)
    for flags, options in SHARED:
        common.add_argument(*flags, **options)

    # the docstring's last paragraph tells how a command line is parsed: it is for readers of the code, not of --help
    parser = _Parser(prog="schubertcount", description=__doc__.rsplit("\n\n", 1)[0])
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", required=True, parser_class=_Parser)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=command.help)
        for flags, options in command.arguments:
            p.add_argument(*flags, **options)
    return parser


def parse_plain(argv: list) -> SimpleNamespace | None:
    """The namespace argparse gives for a plainly spelled `argv`, read from
    the command table, or None for any other command line.

    Plain means: argv[0] is a command; every other token is the exact
    spelling of one of its flags or of a shared one; a value is the next
    token, does not start with `-`, and passes the flag's type and choices;
    every required flag is there.  A repeated flag keeps its last value.
    Help, abbreviations, `--flag=value`, `-d5`, negative numbers, missing or
    bad values are None, left to argparse with its texts and exit codes.
    """
    command = COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    spec = {flags[0]: options for flags, options in command.arguments + SHARED}
    dest = {flag: flag.lstrip("-").replace("-", "_") for flag in spec}
    values = {"command": argv[0]}
    for flag, options in spec.items():
        values[dest[flag]] = options.get("default", False if options.get("action") == "store_true" else None)
    missing = {flag for flag, options in spec.items() if options.get("required")}
    tokens = iter(argv[1:])
    for flag in tokens:
        options = spec.get(flag)
        if options is None:
            return None
        missing.discard(flag)
        if options.get("action") == "store_true":
            values[dest[flag]] = True
            continue
        text = next(tokens, "-")
        if text.startswith("-"):
            return None
        try:
            value = options["type"](text) if "type" in options else text
        except Exception:  # argparse reports the error, or raises it, itself
            return None
        if "choices" in options and value not in options["choices"]:
            return None
        values[dest[flag]] = value
    return None if missing else SimpleNamespace(**values)


def _unserializable(value):
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _dumps(value) -> str:
    """json.dumps(value), byte for byte, without importing `json`: CPython's `_json.make_encoder`, the C
    encoder json.dumps runs, called positionally with json.dumps's defaults and its TypeError text.
    Without `_json`, or where make_encoder takes other arguments, json.dumps itself runs."""
    try:
        from _json import encode_basestring_ascii, make_encoder

        encoder = make_encoder({}, _unserializable, encode_basestring_ascii, None, ": ", ", ", False, False, True)
    except (ImportError, TypeError):
        from json import dumps

        return dumps(value)
    return "".join(encoder(value, 0))


def _cache_text(value):
    return ",".join(map(str, value.parts)) if isinstance(value, Partition) else value


def _emit(command: Command, args) -> int:
    """Fetch or compute a body, print it as JSON or CSV, return the exit code.

    The key holds every argument of the command's own subparser.  A computed
    body is serialized once, `command` and `engine_version` first; only
    exit-code-0 bodies are stored, and a hit prints the stored text.  The
    runtime fields are appended to it, never stored.  A failed cache write
    costs a warning, never the result.
    """
    if args.format == "csv" and not command.csv_header:
        raise OutOfDomain(f"CSV output is only available for tables, not `{args.command}`")
    start = time.perf_counter()
    directory = args.cache_dir or os.environ.get("SCHUBERT_CACHE")
    use_cache = directory and not args.no_cache and not (command.uncached_if and getattr(args, command.uncached_if))
    cache = ResultCache(directory) if use_cache else None
    key = cache_key(args.command, {n: _cache_text(v) for n, v in vars(args).items() if n not in FRONT_END}, __version__)
    text = cache.lookup(key) if cache else None
    cached, code = text is not None, 0
    if not cached:
        body, code = command.compute(args)
        text = _dumps({"command": args.command, "engine_version": __version__, **body})
        if cache and code == 0:
            try:
                cache.store(key, text)
            except OSError as exc:
                print(f"warning: result not cached: {exc}", file=sys.stderr)
    if args.format == "csv":
        import csv  # loaded by CSV runs only, to keep start-up short

        if cached:
            import json  # a hit's rows are decoded from its stored text

            body = json.loads(text)
        rows = command.csv_rows(body)
        writer = csv.writer(sys.stdout)
        writer.writerow(command.csv_header)
        writer.writerows([["" if row[c] is None else row[c] for c in command.csv_header] for row in rows])
        return code
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    print(f'{text[:-1]}, "cached": {"true" if cached else "false"}, "elapsed_ms": {elapsed_ms}}}')
    return code


def main(argv=None) -> int:
    # emitted integers and --dump-poly text may pass Python's int<->str digit
    # limit (3.10.7 and later); it is lifted for the run and then restored
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parse_plain(argv) or build_parser().parse_args(argv)
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
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
