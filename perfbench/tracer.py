"""Traced runner: run one schubertcount query in this process and record spans.

Usage: python perfbench/tracer.py SPANS.json ARGV...

Times `import schubertcount.cli`, wraps the public functions of each module
listed in LAYERS (at every module that binds them, since `from .x import f`
copies the name), then calls `schubertcount.cli.main(ARGV)`.  Spans are kept
in memory and written to SPANS.json when the query ends; stdout and the exit
code are the query's own.  A wrapped name missing from the package is listed
under "absent" instead of failing the query.

Only `sys`, `time` and `_thread` are imported before the import span, so the
span covers everything `python -m schubertcount` would import.
"""

import _thread
import sys
import time

T_BEGIN = time.perf_counter_ns()

# layer -> [(module, attribute, span group)]; "Class.method" patches the class
LAYERS = {
    "cli": [("cli", "build_parser", "cli.parse")],
    "cache": [
        ("cache", "ResultCache.lookup", "cache.lookup"),
        ("cache", "ResultCache.store", "cache.store"),
    ],
    "counts": [
        ("counts", name, "counts.call")
        for name in (
            "complex_count", "real_count", "cubic_ci_real", "incidence_real", "incidence_complex",
            "complex_root_poly", "real_square_poly", "real_root_poly", "factored_real_root_poly",
            "catalan_substitution",
        )
    ],
    "combinatorics": [("combinatorics", "compositions", "combinatorics.compositions")],
    "polynomial": [
        ("polynomial", "product_of_linear_forms", "polynomial.product"),
        ("polynomial", "exact_sqrt", "polynomial.sqrt"),
        ("polynomial", "SparsePoly.__pow__", "polynomial.pow"),
    ],
    "schur": [
        ("schur", "is_symmetric", "schur.validate"),
        ("schur", "in_euler_pontryagin", "schur.validate"),
        ("schur", "schur_coefficient", "schur.extract"),
        ("schur", "real_schur_coefficient", "schur.extract"),
        ("schur", "schur_polynomial", "schur.polynomial"),
        ("schur", "real_schur_polynomial", "schur.polynomial"),
        ("schur", "numeric_schur_coefficient", "schur.quadrature"),
    ],
    "kernels": [
        ("kernels", "quadrature_slab", "kernels.slab"),
        ("kernels", "torus_grid_eval", "kernels.grid_eval"),
    ],
    "asymptotics": [
        ("asymptotics", "torus_scan", "asymptotics.scan"),
        ("asymptotics", "real_asymptote_table", "asymptotics.table"),
        ("asymptotics", "complex_asymptote_table", "asymptotics.table"),
        ("asymptotics", "incidence_asymptote_table", "asymptotics.table"),
    ],
}


class Recorder:
    """Spans as [group, start_ns, end_ns, parent_index] plus work counters.

    Each thread keeps its own stack of open spans.  A span opened on a
    worker thread with an empty stack takes the innermost open span of the
    main thread as its parent: that is the call that handed out the work.
    """

    def __init__(self):
        self.spans = []
        self.counters = {}
        self.stacks = {}
        self.main = _thread.get_ident()
        self.lock = _thread.allocate_lock()

    def open(self, group):
        tid = _thread.get_ident()
        with self.lock:
            stack = self.stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                main_stack = self.stacks.get(self.main) if tid != self.main else None
                parent = main_stack[-1] if main_stack else None
            index = len(self.spans)
            self.spans.append([group, time.perf_counter_ns(), None, parent])
        stack.append(index)
        return index

    def close(self, index):
        self.spans[index][2] = time.perf_counter_ns()
        self.stacks[_thread.get_ident()].pop()

    def add(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    def maximum(self, name, value):
        self.counters[name] = max(self.counters.get(name, 0), value)


def _coeff_bits(poly):
    terms = getattr(poly, "terms", None)
    if not terms:
        return 0
    return max(abs(c).bit_length() for c in terms.values())


def _work(rec, group, args, result):
    """Work counters, taken in a span of their own after the call's span has
    closed, so counting is charged to the trace and not to the caller."""
    if group == "combinatorics.compositions":
        rec.add("combinatorics.factors", len(result))
    elif group == "polynomial.product":
        rec.add("polynomial.product_terms", len(result))
        rec.maximum("polynomial.coeff_bits_max", _coeff_bits(result))
    elif group in ("polynomial.sqrt", "polynomial.pow"):
        rec.maximum("polynomial.coeff_bits_max", _coeff_bits(result))
    elif group == "cache.lookup":
        rec.add("cache.hits", result is not None)
    elif group == "kernels.slab":
        fvals = args[0]
        rec.add("schur.quadrature_nodes", len(fvals))
        rec.add("kernels.slab_bytes_computed", sum(getattr(a, "nbytes", 0) for a in args))
    elif group == "kernels.grid_eval":
        rec.add("kernels.grid_points", int(args[3]) ** 2)


def _wrap(rec, group, fn, functools):
    def traced(*args, **kwargs):
        index = rec.open(group)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(index)
        index = rec.open("trace.work")
        try:
            _work(rec, group, args, result)
        finally:
            rec.close(index)
        return result

    functools.update_wrapper(traced, fn)
    return traced


def _wrap_parse_args(rec, build_parser):
    """build_parser's parser gets a traced parse_args, grouped with it."""

    def traced_build(*args, **kwargs):
        parser = build_parser(*args, **kwargs)
        parse_args = parser.parse_args

        def traced_parse(*a, **kw):
            index = rec.open("cli.parse")
            try:
                return parse_args(*a, **kw)
            finally:
                rec.close(index)

        parser.parse_args = traced_parse
        return parser

    return traced_build


def install(rec, package):
    """Wrap every name in LAYERS; return the names that are absent."""
    import functools
    import importlib

    modules = {}
    for module_name in sorted({entry[0] for entries in LAYERS.values() for entry in entries}):
        try:  # a module the package imports lazily is imported here, untimed
            modules[module_name] = importlib.import_module(f"{package}.{module_name}")
        except ImportError:
            pass
    bindings = [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == package or name.startswith(package + "."))]
    absent = []
    for entries in LAYERS.values():
        for module_name, attr, group in entries:
            module = modules.get(module_name)
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, method, None) if owner is not None else None
            if original is None or not callable(original):
                absent.append(f"{module_name}.{attr}")
                continue
            if owner_name:
                setattr(owner, method, _wrap(rec, group, original, functools))
                continue
            traced = _wrap(rec, group, original, functools)
            if group == "cli.parse":
                traced = _wrap_parse_args(rec, traced)
            for mod in bindings:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, traced)
    return absent


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    rec = Recorder()
    index = rec.open("startup.import")
    import schubertcount.cli
    rec.close(index)
    absent = install(rec, "schubertcount")
    code = 1
    try:
        index = rec.open("cli.main")
        try:
            code = schubertcount.cli.main(argv)
        finally:
            rec.close(index)
    finally:
        sys.stdout.flush()
        import json

        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"t_begin": T_BEGIN, "t_end": time.perf_counter_ns(), "spans": rec.spans,
                       "counters": rec.counters, "absent": absent}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
