"""The import boundary: no command loads numpy.

Every command computes in plain Python, the float paths too: the torus
quadrature of `lambda --numeric` and the torus scan.  Each case runs
`cli.main` in a fresh interpreter and reports whether numpy ended up in
`sys.modules`; `--no-numpy` first makes any import of numpy fail.

The same probe guards the start-up cost of every command: no run loads
`__future__`, `dataclasses` (nor `inspect`, which it pulls in) or
`hashlib`, and `csv` loads only for `--format csv`.  A plainly spelled
command line is parsed from the command table, so `argparse` (and
`gettext` and `locale`, which it pulls in) loads only for help and usage
errors.  A run imports only the engine modules its command uses, and a
cache hit none of them: a computed `count` loads no `asymptotics`, and a
computed `scan` none of the exact engine (`counts`, `polynomial`,
`schur`).  No JSON run loads `json`, computed or served from the cache:
only a CSV cache hit does, to decode its rows.  The probe
reports every module that importing and running schubertcount added to
`sys.modules`; the cases that check `tempfile` and `typing` run under
`python -S`, because `site` may import them: no computed run and no cache
hit loads `typing` (the named tuples are `collections.namedtuple`s).

`python -m schubertcount` ends with `os._exit`, which skips the
interpreter's teardown, so a run must leave nothing for that teardown to
do: the probe also reports the atexit callbacks and the running threads
before and after the run, and no run may add either.
"""

import json
import os
import subprocess
import sys

import pytest

import schubertcount
from schubertcount.cli import main

FLOAT_MODULES = ["numpy"]
STARTUP_MODULES = ["__future__", "csv", "dataclasses", "hashlib", "inspect"]
PARSER_MODULES = ["argparse", "gettext", "locale"]
ENGINE_MODULES = ["schubertcount.polynomial", "schubertcount.schur", "schubertcount.counts",
                  "schubertcount.asymptotics"]

# `--import MODULE` imports MODULE instead of running a command; a leading
# `--no-numpy` sets sys.modules["numpy"] = None, so that importing it raises
PROBE = f"""
import _thread, atexit, contextlib, io, sys
argv = sys.argv[1:]
if argv[:1] == ["--no-numpy"]:
    sys.modules["numpy"] = None
    argv = argv[1:]
before = set(sys.modules)
callbacks, threads = atexit._ncallbacks(), _thread._count()
out = io.StringIO()
if argv[:1] == ["--import"]:
    __import__(argv[1])
    code = 0
else:
    from schubertcount.cli import main
    with contextlib.redirect_stdout(out):
        code = main(argv)
loaded = [m for m in {FLOAT_MODULES!r} if sys.modules.get(m) is not None]
added = sorted(set(sys.modules) - before)
import json  # after the snapshot, so that a run that loads json shows it
print(json.dumps({{"code": code, "stdout": out.getvalue(), "loaded": loaded, "added": added,
                  "callbacks": [callbacks, atexit._ncallbacks()], "threads": [threads, _thread._count()]}}))
"""

EXACT_ARGVS = [
    "count --regime complex -d 3 -k 2",
    "count --regime complex -d 3 -k 2 --dump-poly",
    "count --regime real -d 3 -k 2",
    "count --regime real -d 3 -k 2 --dump-poly",
    "incidence --regime complex -n 2",
    "incidence --regime real -n 2",
    "cubic-ci -r 2",
    "schur --regime real --alpha 7,7,3,3",
    "lambda --regime complex -d 3 -k 2 --alpha 2,2",
    "lambda --regime real -d 3 -k 2 --alpha 5,5,5,5",
    "asymptote --family real --ds 3,5",
    "asymptote --family complex --ds 3 -k 2",
    "asymptote --family incidence --ns 1,2 --format csv",
    "feasibility --regime real -d 3 -k 2",
    "feasibility --regime real -d 3 -k 2 --d-max 7 --format csv",
]


def probe(argv, flags=()):
    src = os.path.dirname(os.path.dirname(os.path.abspath(schubertcount.__file__)))
    env = {k: v for k, v in os.environ.items() if k != "SCHUBERT_CACHE"}
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, *flags, "-c", PROBE, *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return dict(json.loads(proc.stdout.splitlines()[-1]), stderr=proc.stderr)


def added(result, modules):
    return [m for m in modules if m in result["added"]]


def assert_no_teardown_work(result):
    """The run registered no atexit callback and left no thread running."""
    assert result["callbacks"][1] == result["callbacks"][0]
    assert result["threads"][1] == result["threads"][0]


def test_bare_package_import_skips_numpy():
    result = probe(["--import", "schubertcount"])
    assert result["loaded"] == []
    assert result["added"] == ["schubertcount"]


@pytest.mark.parametrize("argv", EXACT_ARGVS)
def test_exact_commands_skip_numpy(argv):
    result = probe(argv.split() + ["--no-cache"])
    assert result["code"] == 0
    assert result["loaded"] == []
    assert added(result, STARTUP_MODULES) == (["csv"] if "--format csv" in argv else [])
    assert added(result, PARSER_MODULES) == []
    assert added(result, ["json"]) == []
    assert_no_teardown_work(result)


@pytest.mark.parametrize("argv", EXACT_ARGVS)
def test_exact_commands_under_python_S_skip_typing(argv):
    result = probe(argv.split() + ["--no-cache"], flags=["-S"])
    assert result["code"] == 0
    assert added(result, ["typing"]) == []


def test_usage_error_loads_argparse_for_its_texts():
    result = probe(["count", "--regime", "bad", "-d", "3", "-k", "2"])
    assert result["code"] == 64
    assert result["stderr"].startswith("usage: schubertcount count [-h]")
    assert "error: argument --regime: invalid choice: 'bad'" in result["stderr"]
    assert added(result, ["argparse"]) == ["argparse"]


def test_cache_directory_adds_no_startup_module(tmp_path):
    result = probe(["count", "--regime", "complex", "-d", "3", "-k", "2", "--cache-dir", str(tmp_path)])
    assert result["code"] == 0
    assert added(result, STARTUP_MODULES) == []
    assert json.loads(result["stdout"])["cached"] is False  # the run stored its entry
    assert_no_teardown_work(result)


def test_cache_module_skips_tempfile():
    result = probe(["--import", "schubertcount.cache"], flags=["-S"])
    assert added(result, ["tempfile", "shutil", "random", "hashlib"]) == []


def test_cache_hit_loads_no_engine_module(tmp_path, capsys):
    argv = ["count", "--regime", "complex", "-d", "3", "-k", "2", "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    capsys.readouterr()
    result = probe(argv, flags=["-S"])
    assert result["code"] == 0
    assert json.loads(result["stdout"])["cached"] is True
    assert added(result, ENGINE_MODULES + ["hashlib", "tempfile", "json", "typing"] + PARSER_MODULES) == []


def test_only_a_csv_cache_hit_loads_json(tmp_path):
    # a JSON run writes its body with json.dumps's own encoder and prints a hit as stored; a CSV hit
    # decodes its stored body into rows
    argv = ["asymptote", "--family", "incidence", "--ns", "1,2", "--format", "csv", "--cache-dir", str(tmp_path)]
    computed, hit = probe(argv), probe(argv)
    assert computed["code"] == hit["code"] == 0
    assert computed["stdout"] == hit["stdout"]
    assert added(computed, ["json"]) == []
    assert added(hit, ["json"]) == ["json"]


def test_computed_count_skips_asymptotics():
    result = probe(["count", "--regime", "complex", "-d", "3", "-k", "2", "--no-cache"])
    assert result["code"] == 0
    assert "schubertcount.counts" in result["added"]
    assert "schubertcount.asymptotics" not in result["added"]


def test_scan_served_from_cache_skips_numpy(tmp_path, capsys):
    argv = ["scan", "-d", "3", "--grid", "64", "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    capsys.readouterr()
    result = probe(argv)
    assert result["code"] == 0
    assert json.loads(result["stdout"])["cached"] is True
    assert result["loaded"] == []


def test_computed_scan_skips_the_exact_engine():
    # a scan reads the factor rows from combinatorics and takes its floats in asymptotics
    result = probe(["scan", "-d", "3", "--grid", "64", "--no-cache"])
    assert result["code"] == 0
    assert "schubertcount.asymptotics" in result["added"]
    assert added(result, ["schubertcount.counts", "schubertcount.polynomial", "schubertcount.schur"]) == []


def test_computed_scan_skips_numpy():
    result = probe(["scan", "-d", "3", "--no-cache"])
    assert result["code"] == 0
    assert json.loads(result["stdout"])["cached"] is False
    assert result["loaded"] == []


NUMERIC_ARGVS = [
    "lambda --regime complex -d 3 -k 2 --alpha 2,2 --numeric",
    "lambda --regime real -d 3 -k 2 --alpha 5,5,5,5 --numeric",
]


@pytest.mark.parametrize("argv", NUMERIC_ARGVS[:1])
def test_numeric_lambda_skips_numpy(argv):
    result = probe(argv.split() + ["--no-cache"])
    assert result["code"] == 0
    assert json.loads(result["stdout"])["numeric_matches"] is True
    assert result["loaded"] == []


@pytest.mark.parametrize("argv", NUMERIC_ARGVS)
def test_numeric_lambda_runs_without_numpy(argv):
    result = probe(["--no-numpy"] + argv.split() + ["--no-cache"])
    assert result["code"] == 0
    assert json.loads(result["stdout"])["numeric_matches"] is True
