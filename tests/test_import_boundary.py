"""The import boundary: exact commands never load numpy.

`kernels` is the only module that imports numpy, and only the float paths
(`lambda --numeric` and a `scan` that computes) import `kernels`.  Each case
runs `cli.main` in a fresh interpreter and reports which of the two modules
ended up in `sys.modules`.

The same probe guards the start-up cost of every command: no run loads
`dataclasses` (nor `inspect`, which it pulls in), `hashlib` loads only when a
cache directory is used, and `csv` only for `--format csv`.  The probe
reports which of these modules importing and running schubertcount added to
`sys.modules`.
"""

import json
import os
import subprocess
import sys

import pytest

import schubertcount
from schubertcount.cli import main

FLOAT_MODULES = ["numpy", "schubertcount.kernels"]
STARTUP_MODULES = ["csv", "dataclasses", "hashlib", "inspect"]

# an empty argv imports the bare package instead of running a command
PROBE = f"""
import contextlib, io, json, sys
before = set(sys.modules)
argv = sys.argv[1:]
out = io.StringIO()
if argv:
    from schubertcount.cli import main
    with contextlib.redirect_stdout(out):
        code = main(argv)
else:
    import schubertcount
    code = 0
loaded = [m for m in {FLOAT_MODULES!r} if m in sys.modules]
added = [m for m in {STARTUP_MODULES!r} if m in sys.modules and m not in before]
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


def probe(argv):
    src = os.path.dirname(os.path.dirname(os.path.abspath(schubertcount.__file__)))
    env = {k: v for k, v in os.environ.items() if k != "SCHUBERT_CACHE"}
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_bare_package_import_skips_numpy():
    assert probe([])["loaded"] == []


@pytest.mark.parametrize("argv", EXACT_ARGVS)
def test_exact_commands_skip_numpy(argv):
    result = probe(argv.split() + ["--no-cache"])
    assert result["code"] == 0
    assert result["loaded"] == []
    assert result["added"] == (["csv"] if "--format csv" in argv else [])


def test_cache_directory_loads_hashlib(tmp_path):
    result = probe(["count", "--regime", "complex", "-d", "3", "-k", "2", "--cache-dir", str(tmp_path)])
    assert result["code"] == 0
    assert result["added"] == ["hashlib"]


def test_scan_served_from_cache_skips_numpy(tmp_path, capsys):
    argv = ["scan", "-d", "3", "--grid", "64", "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    capsys.readouterr()
    result = probe(argv)
    assert result["code"] == 0
    assert json.loads(result["stdout"])["cached"] is True
    assert result["loaded"] == []


@pytest.mark.parametrize("argv", [
    "scan -d 3",
    "lambda --regime complex -d 3 -k 2 --alpha 2,2 --numeric",
])
def test_float_paths_load_numpy(argv):
    result = probe(argv.split() + ["--no-cache"])
    assert result["code"] == 0
    assert result["loaded"] == FLOAT_MODULES
