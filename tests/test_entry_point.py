"""`python -m schubertcount` and the console script end with `os._exit`: they must say and exit exactly
what `sys.exit(main())` does.

Each case runs the module, the console script's call (`sys.exit(run())`
with `run` from `schubertcount.__main__`, as the script that
`[project.scripts]` installs does) and the plain entry
`python -c "import sys; from schubertcount.cli import main; sys.exit(main())"`
with the same arguments and compares exit code, stdout (with `elapsed_ms`
masked) and stderr byte for byte.  PYTHONUNBUFFERED is removed from the
environment: with it set, every write goes straight to the file, so a
missing flush before `os._exit` would not show.
"""

import os
import re
import subprocess
import sys

import pytest

import schubertcount

ENTRIES = {
    "module": ["-m", "schubertcount"],
    "script": ["-c", "import sys; from schubertcount.__main__ import run; sys.exit(run())"],
    "main": ["-c", "import sys; from schubertcount.cli import main; sys.exit(main())"],
}
ELAPSED = re.compile(rb'"elapsed_ms": \d+')


def env():
    src = os.path.dirname(os.path.dirname(os.path.abspath(schubertcount.__file__)))
    out = {k: v for k, v in os.environ.items() if k not in ("SCHUBERT_CACHE", "PYTHONUNBUFFERED")}
    out["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [out.get("PYTHONPATH")] if p])
    return out


def run(entry, argv, **kwargs):
    kwargs.setdefault("stdout", subprocess.PIPE)
    proc = subprocess.run([sys.executable, *ENTRIES[entry], *argv], stderr=subprocess.PIPE,
                          env=env(), timeout=300, **kwargs)
    return proc.returncode, ELAPSED.sub(b'"elapsed_ms": 0', proc.stdout or b""), proc.stderr


def every(argv, **kwargs):
    """The one result that every entry gives for `argv`."""
    results = {entry: run(entry, argv, **kwargs) for entry in ENTRIES}
    assert results["module"] == results["script"] == results["main"]
    return results["module"]


@pytest.mark.parametrize("argv, code, stdout_bytes", [
    # a --dump-poly body of some 380 KB and a CSV of some 89 KB pass many buffer flushes
    ("count --regime real -d 21 -k 2 --dump-poly --no-cache", 0, 300_000),
    ("feasibility --regime real -d 3 -k 2 --d-max 3000 --format csv --no-cache", 0, 80_000),
    ("count --regime complex -d 4 -k 2 --no-cache", 2, 0),
    ("--bogus", 64, 0),
    ("--help", 0, 500),
])
def test_same_output_and_exit(argv, code, stdout_bytes):
    exit_code, out, err = every(argv.split())
    assert exit_code == code
    assert len(out) >= stdout_bytes and out[-1:] in (b"", b"\n")
    assert out or err


def test_store_then_hit(tmp_path):
    argv = "count --regime complex -d 3 -k 2 --cache-dir".split()
    results = {}
    for entry in ENTRIES:
        cache = str(tmp_path / entry)
        results[entry] = [run(entry, argv + [cache]) for _ in range(2)]
    assert results["module"] == results["script"] == results["main"]
    store, hit = results["module"]
    assert b'"cached": false' in store[1] and b'"cached": true' in hit[1]
    assert store[0] == hit[0] == 0


def test_cache_dir_that_is_a_file_warns(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, out, err = every(["count", "--regime", "complex", "-d", "3", "-k", "2", "--cache-dir", str(blocker)])
    assert code == 0 and b'"value": "27"' in out
    assert err.startswith(b"warning: result not cached:")


def test_stdout_pipe_with_its_reader_gone():
    # the body fits the stdout buffer, so the failure comes at the final flush: every entry exits 120
    argv = "count --regime complex -d 3 -k 2 --no-cache".split()
    results = {}
    for entry in ENTRIES:
        read, write = os.pipe()
        os.close(read)
        try:
            results[entry] = run(entry, argv, stdout=write)
        finally:
            os.close(write)
    assert results["module"] == results["script"] == results["main"]
    code, _, err = results["module"]
    assert code == 120
    assert b"BrokenPipeError" in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_stdout_on_a_full_disk():
    # the final flush fails with ENOSPC: every entry reports it and exits 120
    with open("/dev/full", "wb") as full:
        code, _, err = every("count --regime complex -d 3 -k 2 --no-cache".split(), stdout=full)
    assert code == 120
    assert b"No space left on device" in err


def test_closed_stdout():
    # with file descriptor 1 closed, sys.stdout is None: nothing is written and every entry exits 0
    argv = "count --regime complex -d 3 -k 2 --no-cache".split()
    assert every(argv, preexec_fn=lambda: os.close(1)) == (0, b"", b"")
