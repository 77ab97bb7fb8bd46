"""The import boundary: no command loads numpy.

Every command computes in plain Python, the float paths too: the torus
quadrature of `lambda --numeric` and the torus scan.  Each case runs
`cli.main` in a fresh interpreter and reports whether numpy ended up in
`sys.modules`; `--no-numpy` first makes any import of numpy fail.

The same probe guards the start-up cost of every command: no run loads
`dataclasses` (nor `inspect`, which it pulls in) or `hashlib`, and `csv`
loads only for `--format csv`.  A run imports only the engine modules its
command uses, and a cache hit none of them.  The probe reports every module
that importing and running schubertcount added to `sys.modules`; the cases
that check `tempfile` run under `python -S`, because `site` may import it.
"""

import json
import os
import subprocess
import sys

import pytest

import schubertcount
from schubertcount.cli import main

FLOAT_MODULES = ["numpy"]
STARTUP_MODULES = ["csv", "dataclasses", "hashlib", "inspect"]
ENGINE_MODULES = ["schubertcount.polynomial", "schubertcount.schur", "schubertcount.counts",
                  "schubertcount.asymptotics"]

# `--import MODULE` imports MODULE instead of running a command; a leading
# `--no-numpy` sets sys.modules["numpy"] = None, so that importing it raises
PROBE = f"""
import contextlib, io, json, sys
argv = sys.argv[1:]
if argv[:1] == ["--no-numpy"]:
    sys.modules["numpy"] = None
    argv = argv[1:]
before = set(sys.modules)
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
print(json.dumps({{"code": code, "stdout": out.getvalue(), "loaded": loaded, "added": added}}))
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
    return json.loads(proc.stdout.splitlines()[-1])


def added(result, modules):
    return [m for m in modules if m in result["added"]]


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


def test_cache_directory_adds_no_startup_module(tmp_path):
    result = probe(["count", "--regime", "complex", "-d", "3", "-k", "2", "--cache-dir", str(tmp_path)])
    assert result["code"] == 0
    assert added(result, STARTUP_MODULES) == []


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
    assert added(result, ENGINE_MODULES + ["hashlib", "tempfile"]) == []


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
