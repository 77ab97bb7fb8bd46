import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from schubertcount import __version__
from schubertcount import cache, cli
from schubertcount.cache import ResultCache, cache_key
from schubertcount.cli import COMMANDS, build_parser, main, usable_cores
from schubertcount.combinatorics import Partition
from schubertcount.schur import _alternant_exponents


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv, expect_code=0):
    code, out, err = run(capsys, argv)
    assert code == expect_code, (code, out, err)
    return json.loads(out)


def test_count_complex_small(capsys):
    body = run_json(capsys, ["count", "--regime", "complex", "-d", "3", "-k", "2"])
    assert body["value"] == "27"
    assert body["feasible"] is True
    assert body["m"] == 2
    assert body["command"] == "count"
    assert body["cached"] is False
    assert "engine_version" in body
    for key in ("orientable_grassmannian", "sym_power_orientable", "euler_number_defined"):
        assert key in body
    assert isinstance(body["elapsed_ms"], int)


def test_count_real(capsys):
    body = run_json(capsys, ["count", "--regime", "real", "-d", "3", "-k", "2"])
    assert body["value"] == "189"
    assert body["m"] == 5
    assert body["euler_number_defined"] is True
    assert body["orientable_grassmannian"] is False


def test_count_even_degree_exits_2(capsys):
    code, out, err = run(capsys, ["count", "--regime", "real", "-d", "2", "-k", "2"])
    assert code == 2
    assert "even" in err.lower()


def test_count_infeasible_exits_2(capsys):
    code, out, err = run(capsys, ["count", "--regime", "real", "-d", "3", "-k", "3"])
    assert code == 2
    body = json.loads(out)
    assert body["feasible"] is False
    assert "value" not in body


def test_count_dump_poly(capsys):
    body = run_json(capsys, ["count", "--regime", "complex", "-d", "3", "-k", "2", "--dump-poly"])
    assert body["poly"] == "18*x1^3*x2^1 + 45*x1^2*x2^2 + 18*x1^1*x2^3"


def test_usage_errors(capsys):
    code, out, err = run(capsys, ["count", "--regime", "complex", "-d", "3"])
    assert code == 64
    code, out, err = run(capsys, ["count", "--bogus-flag"])
    assert code == 64
    assert "usage" in err.lower() or "error" in err.lower()
    code, out, err = run(capsys, ["frobnicate"])
    assert code == 64
    code, out, err = run(capsys, [])
    assert code == 64


def test_csv_rejected_for_counts(capsys):
    code, out, err = run(capsys, ["count", "--regime", "complex", "-d", "3", "-k", "2",
                                  "--format", "csv"])
    assert code == 64
    assert "csv" in err.lower()


def test_incidence(capsys):
    body = run_json(capsys, ["incidence", "--regime", "real", "-n", "5"])
    assert body["value"] == "42"
    assert body["catalan"] == "42"
    body = run_json(capsys, ["incidence", "--regime", "complex", "-n", "1"])
    assert body["value"] == "1"


def test_cubic_ci(capsys):
    body = run_json(capsys, ["cubic-ci", "-r", "2"])
    assert body["value"] == "37017"
    assert body["catalan_substitution"] == "37017"
    assert body["m"] == 10


def test_schur_command(capsys):
    body = run_json(capsys, ["schur", "--alpha", "2,0"])
    assert body["poly"] == "1*x1^2*x2^0 + 1*x1^1*x2^1 + 1*x1^0*x2^2"
    body = run_json(capsys, ["schur", "--regime", "real", "--alpha", "7,7,3,3"])
    assert body["poly"] == "1*x1^7*x2^3 + 1*x1^5*x2^5 + 1*x1^3*x2^7"
    assert body["k"] == 2
    code, out, err = run(capsys, ["schur", "--alpha", "1,2"])
    assert code == 64


def test_lambda_command(capsys):
    body = run_json(capsys, ["lambda", "--regime", "complex", "-d", "3", "-k", "2",
                             "--alpha", "2,2"])
    assert body["value"] == "27"
    assert body["sign_certain"] is True
    body = run_json(capsys, ["lambda", "--regime", "real", "-d", "3", "-k", "2",
                             "--alpha", "5,5,5,5", "--numeric"])
    assert body["value"] == "-189"
    assert body["sign_certain"] is False
    assert body["numeric_matches"] is True
    assert body["numeric_backend"] == "numpy"


def test_numeric_match_keeps_a_certain_sign(capsys, monkeypatch):
    # an oracle that returns the negated value matches only where the sign is uncertain
    from schubertcount import schur
    oracle = schur.numeric_schur_coefficient
    monkeypatch.setattr(schur, "numeric_schur_coefficient", lambda *a, **kw: -oracle(*a, **kw))
    body = run_json(capsys, ["lambda", "--regime", "complex", "-d", "3", "-k", "2",
                             "--alpha", "2,2", "--numeric"])
    assert body["sign_certain"] is True
    assert body["numeric"][0] == pytest.approx(-27.0)
    assert body["numeric_matches"] is False
    body = run_json(capsys, ["lambda", "--regime", "real", "-d", "3", "-k", "2",
                             "--alpha", "5,5,5,5", "--numeric"])
    assert body["sign_certain"] is False
    assert body["numeric_matches"] is True


@pytest.mark.skipif(usable_cores() < 2, reason="--threads 2 needs two usable cores")
def test_numeric_ignores_threads(capsys):
    argv = "lambda --regime complex -d 3 -k 4 --alpha 5,5,5,5 --numeric --grid 61 --no-cache --threads".split()
    one = run_json(capsys, argv + ["1"])
    two = run_json(capsys, argv + ["2"])
    assert one["numeric_matches"] is True
    assert one["numeric"] == two["numeric"]


def test_numeric_complex_5_4(capsys):
    argv = "lambda --regime complex -d 5 -k 4 --alpha 14,14,14,14 --numeric --no-cache".split()
    assert run_json(capsys, argv)["numeric_matches"] is True


@pytest.mark.parametrize("regime,parts", [("complex", 8), ("real", 16)])
def test_numeric_at_eight_variables_ends(regime, parts):
    # the oracle sums over the 8! terms of V_b, not the 8!^2 pairs of terms of V_a and V_b; the run is a
    # subprocess, so that a return to the pairs fails on the timeout instead of holding the suite
    src = str(Path(cli.__file__).parents[1])
    env = {k: v for k, v in os.environ.items() if k != "SCHUBERT_CACHE"}
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    argv = f"lambda --regime {regime} -d 1 -k 8 --alpha {','.join(['1'] * parts)} --numeric --no-cache".split()
    proc = subprocess.run([sys.executable, "-m", "schubertcount", *argv], capture_output=True, text=True,
                          timeout=30, env=env)
    assert proc.returncode == 0, proc.stderr
    assert '"numeric_matches": true' in proc.stdout


def test_scan_command(capsys):
    body = run_json(capsys, ["scan", "-d", "3", "--grid", "64"])
    assert body["max_modulus"] == pytest.approx(225.0, abs=1e-6)
    assert body["sign_constant"] is True
    assert body["argmax_count"] >= 2
    assert len(body["argmax_angles"]) <= 8


def test_asymptote_json_and_csv(capsys):
    body = run_json(capsys, ["asymptote", "--family", "real", "--ds", "3,5"])
    rows = body["tables"]["real"]
    assert rows[0]["ratio"] == pytest.approx(2.1205, abs=1e-3)
    code, out, err = run(capsys, ["asymptote", "--family", "incidence", "--ns", "1,2,3",
                                  "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("family,parameter,exact_log")
    assert len(lines) == 1 + 6
    code, out, err = run(capsys, ["asymptote", "--family", "real"])
    assert code == 64


def test_feasibility_command(capsys):
    body = run_json(capsys, ["feasibility", "--regime", "real", "-d", "5", "-k", "2"])
    assert body["feasible"] is True and body["m"] == 14
    code, out, err = run(capsys, ["feasibility", "--regime", "real", "-d", "3", "-k", "3"])
    assert code == 2
    body = run_json(capsys, ["feasibility", "--regime", "real", "-d", "3", "-k", "2",
                             "--d-max", "9"])
    assert len(body["rows"]) == 7
    code, out, err = run(capsys, ["feasibility", "--regime", "real", "-d", "3", "-k", "2",
                                  "--d-max", "9", "--format", "csv"])
    assert code == 0
    assert out.splitlines()[0] == "regime,d,k,feasible,m,odd_degree"


def _strip_runtime(body: dict) -> dict:
    out = dict(body)
    out.pop("cached", None)
    out.pop("elapsed_ms", None)
    return out


def test_cache_round_trip(tmp_path, capsys):
    argv = ["count", "--regime", "real", "-d", "3", "-k", "2",
            "--cache-dir", str(tmp_path)]
    first = run_json(capsys, argv)
    assert first["cached"] is False
    files = list(tmp_path.iterdir())
    assert len(files) == 1
    second = run_json(capsys, argv)
    assert second["cached"] is True
    assert _strip_runtime(first) == _strip_runtime(second)
    assert first["value"] == second["value"]


# the key is stored as plain text: a newline, a carriage return or a lone surrogate (a byte of the command
# line that is not UTF-8; --ns is ignored by the real family) is written and read back as it is
@pytest.mark.parametrize("ds, ns", [("3,\n5", ""), ("3,\r5", ""), ("3", "\udcff")],
                         ids=["newline", "carriage return", "lone surrogate"])
def test_cache_key_is_stored_as_plain_text(tmp_path, capsys, ds, ns):
    argv = ["asymptote", "--family", "real", "--ds", ds, "--ns", ns, "--cache-dir", str(tmp_path)]
    first = run_json(capsys, argv)
    assert first["cached"] is False
    (entry,) = tmp_path.iterdir()
    assert f" asymptote ds={ds} family=real k=4 ns={ns} v=" in entry.read_bytes().decode("utf-8", "surrogatepass")
    second = run_json(capsys, argv)
    assert second["cached"] is True
    assert _strip_runtime(first) == _strip_runtime(second)


def test_cache_corrupted_entry_recomputed(tmp_path, capsys):
    argv = ["count", "--regime", "complex", "-d", "3", "-k", "2",
            "--cache-dir", str(tmp_path)]
    first = run_json(capsys, argv)
    entry = next(tmp_path.iterdir())
    entry.write_text("{not json")
    again = run_json(capsys, argv)
    assert again["cached"] is False
    assert again["value"] == first["value"]
    third = run_json(capsys, argv)
    assert third["cached"] is True


@pytest.mark.parametrize("corrupt", [
    lambda key, body: f"{key}\n{body[: len(body) // 2]}",
    lambda key, body: f"{key}\n[1,2]",
    lambda key, body: f"{key}\n{{}}",
    lambda key, body: f"{key}\n" + body.replace('"command": "count"', '"command": "lambda"'),
    lambda key, body: f"{key}\n" + body.replace(f'"engine_version": "{__version__}"', '"engine_version": "0.0.0"'),
    # text[:-1] of a body that does not end in its closing brace would print a broken line
    lambda key, body: f"{key}\n{body}\n",
    lambda key, body: f"{key}\n{body} ",
    lambda key, body: json.dumps({"key": key.partition(" ")[2], "created": "2026-01-01T00:00:00Z",
                                  "engine_version": __version__, "body": body}),
    # the JSON-quoted key line of earlier versions, with the body as stored
    lambda key, body: f"{json.dumps(key.partition(' ')[2])}\n{body}",
    # same length, same first bytes, same closing brace: only the checksum tells
    lambda key, body: f"{key}\n" + body.replace('"value": "27"', '"value": "28"'),
], ids=["truncated JSON", "not a JSON object", "empty object", "another command", "another engine version",
        "trailing newline", "trailing space", "JSON wrapper of earlier versions", "key line of earlier versions",
        "digit edited in place"])
def test_cache_corrupted_body_recomputed(tmp_path, capsys, corrupt):
    argv = ["count", "--regime", "complex", "-d", "3", "-k", "2",
            "--cache-dir", str(tmp_path)]
    first = run_json(capsys, argv)
    entry = next(tmp_path.iterdir())
    stored = entry.read_text()
    key, body = stored.split("\n")
    entry.write_text(corrupt(key, body))
    again = run_json(capsys, argv)
    assert again["cached"] is False
    assert _strip_runtime(again) == _strip_runtime(first)
    assert entry.read_text() == stored
    assert run_json(capsys, argv)["cached"] is True


def test_cache_hit_prints_the_stored_text(tmp_path, capsys, monkeypatch):
    argv = ["count", "--regime", "complex", "-d", "3", "-k", "2", "--cache-dir", str(tmp_path)]
    first = run_json(capsys, argv)
    entry = next(tmp_path.iterdir())
    head, body = entry.read_text().split("\n")
    key, spaced = head.partition(" ")[2], body.replace(", ", " ,  ")
    ResultCache(str(tmp_path)).store(key, spaced)
    dumped, dumps = [], json.dumps
    monkeypatch.setattr(json, "dumps", lambda obj, **kw: dumped.append(obj) or dumps(obj, **kw))
    code, out, err = run(capsys, argv)
    monkeypatch.undo()
    assert dumped == []  # the body is printed as stored and the runtime suffix is literal text
    assert code == 0, err
    assert out.startswith(spaced[:-1] + ', "cached": true, "elapsed_ms": ')
    assert _strip_runtime(json.loads(out)) == _strip_runtime(first)


# one cheap command line per command; a command missing here fails the key test
KEY_ARGVS = {
    "count": "count --regime complex -d 3 -k 2",
    "incidence": "incidence --regime real -n 2",
    "cubic-ci": "cubic-ci -r 1",
    "schur": "schur --alpha 2,1",
    "lambda": "lambda --regime complex -d 3 -k 2 --alpha 2,2",
    "scan": "scan -d 3 --grid 64",
    "asymptote": "asymptote --family real --ds 3",
    "feasibility": "feasibility --regime real -d 3 -k 2",
}


@pytest.mark.parametrize("name", COMMANDS)
def test_cache_key_names_every_argument_of_the_command(tmp_path, capsys, monkeypatch, name):
    keys = []

    def recorded_key(*key_args):
        keys.append(cache_key(*key_args))
        return keys[-1]

    monkeypatch.setattr(cli, "cache_key", recorded_key)
    subparser = build_parser()._subparsers._group_actions[0].choices[name]
    own = [a.dest for a in subparser._actions if a.dest not in ("help", "format", "cache_dir", "no_cache")]
    assert len(own) == len(COMMANDS[name].arguments)
    argv = KEY_ARGVS[name].split()
    assert main(argv + ["--no-cache"]) == 0
    assert main(argv + ["--format", "json", "--cache-dir", str(tmp_path), "--no-cache"]) == 0
    capsys.readouterr()
    plain, with_front_end_flags = keys
    assert plain == with_front_end_flags
    assert [dest for dest in own if f" {dest}=" not in plain] == []


def test_cache_file_name_collision_misses(tmp_path, capsys):
    # file names are only buckets: request B finds request A's entry under its name and recomputes
    a = ["count", "--regime", "complex", "-d", "3", "-k", "2", "--cache-dir"]
    b = ["count", "--regime", "complex", "-d", "5", "-k", "2", "--cache-dir"]
    run_json(capsys, a + [str(tmp_path / "a")])
    run_json(capsys, b + [str(tmp_path / "b")])
    (entry_a,), (entry_b,) = (tmp_path / "a").iterdir(), (tmp_path / "b").iterdir()
    entry_a.rename(tmp_path / "a" / entry_b.name)
    again = run_json(capsys, b + [str(tmp_path / "a")])
    assert again["cached"] is False
    assert again["value"] == "2875"
    assert run_json(capsys, b + [str(tmp_path / "a")])["cached"] is True


def test_no_cache_bypasses(tmp_path, capsys):
    argv = ["count", "--regime", "complex", "-d", "3", "-k", "2",
            "--cache-dir", str(tmp_path), "--no-cache"]
    body = run_json(capsys, argv)
    assert body["cached"] is False
    assert list(tmp_path.iterdir()) == []


def test_numeric_lambda_reads_no_cache_entry(tmp_path, capsys, monkeypatch):
    # an entry planted under the very key of a --numeric run is never served: the oracle always recomputes
    argv = ["lambda", "--regime", "complex", "-d", "3", "-k", "2", "--alpha", "2,2", "--numeric",
            "--cache-dir", str(tmp_path)]
    params = {"regime": "complex", "d": 3, "k": 2, "alpha": "2,2", "numeric": True, "grid": None, "threads": 1}
    key = cache_key("lambda", params, __version__)
    planted = '{"command": "lambda", "value": "planted"}'
    ResultCache(str(tmp_path)).store(key, planted)
    (entry,) = tmp_path.iterdir()
    stored = entry.read_text()
    keys = []
    monkeypatch.setattr(cli, "cache_key", lambda *key_args: keys.append(cache_key(*key_args)) or keys[-1])
    body = run_json(capsys, argv)
    assert keys == [key]
    assert body["cached"] is False
    assert body["value"] == "27" and body["numeric_matches"] is True
    assert list(tmp_path.iterdir()) == [entry] and entry.read_text() == stored


def test_cache_env_variable(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SCHUBERT_CACHE", str(tmp_path))
    body = run_json(capsys, ["count", "--regime", "complex", "-d", "1", "-k", "2"])
    assert body["cached"] is False
    assert len(list(tmp_path.iterdir())) == 1
    body = run_json(capsys, ["count", "--regime", "complex", "-d", "1", "-k", "2"])
    assert body["cached"] is True


def test_cache_entry_of_another_body_schema_misses(tmp_path, capsys, monkeypatch):
    argv = ["count", "--regime", "complex", "-d", "3", "-k", "2", "--cache-dir", str(tmp_path)]
    params = {"regime": "complex", "d": 3, "k": 2, "dump_poly": False}
    current = cache_key("count", params, __version__)
    with monkeypatch.context() as patch:
        patch.setattr(cache, "BODY_SCHEMA", cache.BODY_SCHEMA + 1)
        stale = cache_key("count", params, __version__)
    assert stale != current
    ResultCache(str(tmp_path)).store(stale, '{"value": "stale"}')
    body = run_json(capsys, argv)
    assert body["cached"] is False
    assert body["value"] == "27"
    assert run_json(capsys, argv)["cached"] is True


def test_big_values_are_decimal_strings(capsys):
    body = run_json(capsys, ["count", "--regime", "real", "-d", "5", "-k", "2"])
    assert body["value"] == "37655727525"
    assert int(body["value"]) == 37655727525


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int<->str digit limit before 3.10.7")
def test_values_past_the_digit_limit_print(capsys, monkeypatch):
    from schubertcount import counts
    from schubertcount.counts import CountReport
    big = 10**5001 - 1  # 5,001 nines, past the default limit of 4,300 digits
    monkeypatch.setattr(counts, "plane_count", lambda regime, d, k: CountReport(regime, d, k, 5, big, True, None))
    limit = sys.get_int_max_str_digits()
    body = run_json(capsys, ["count", "--regime", "real", "-d", "3", "-k", "2", "--no-cache"])
    assert body["value"] == "9" * 5001
    assert sys.get_int_max_str_digits() == limit


# stdout of the README CLI examples: their bodies are a contract that refactors keep
README_BODIES = json.loads((Path(__file__).parent / "data" / "readme_bodies.json").read_text())


def _assert_same_json(got, want, where="body"):
    if isinstance(want, float):
        assert isinstance(got, float) and got == pytest.approx(want, rel=1e-9), where
    elif isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), where
        for key in want:
            _assert_same_json(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same_json(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, where


@pytest.mark.parametrize("example", README_BODIES, ids=[e["args"] for e in README_BODIES])
def test_readme_example_bodies_unchanged(capsys, example):
    code, out, err = run(capsys, example["args"].split() + ["--no-cache"])
    assert code == 0, err
    _assert_readme_stdout(out, example)


def _assert_readme_stdout(out, example):
    if "csv" in example["args"].split():
        assert out == example["stdout"]
    else:
        body = _strip_runtime(json.loads(out))
        _assert_same_json(body, _strip_runtime(json.loads(example["stdout"])))
        # the body, computed or served from the cache, is json.dumps's bytes
        assert out.startswith(json.dumps(body)[:-1] + ', "cached": ')


# any text: non-ASCII, control characters, quotes, backslashes and lone surrogates
JSON_TEXT = (st.text(st.characters(exclude_categories=()), max_size=12)
             | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\ud800"]))
JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.integers().map(lambda n: n * 10**40 + 1)
                | st.floats(allow_subnormal=True) | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324])
                | JSON_TEXT)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(JSON_TEXT, inner, max_size=4),
    max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_body_encoder_is_json_dumps(value):
    assert cli._dumps(value) == json.dumps(value)


def test_body_encoder_errors_and_fallback_are_json_dumps(monkeypatch):
    with pytest.raises(TypeError, match="^Object of type set is not JSON serializable$"):
        cli._dumps({"a": [1, {2}]})
    value = {"\u00e9": [1.5, math.nan, None, True, "\ud800"]}
    monkeypatch.setitem(sys.modules, "_json", None)  # an interpreter without json's C encoder
    assert cli._dumps(value) == json.dumps(value)


@pytest.mark.parametrize("example", README_BODIES, ids=[e["args"] for e in README_BODIES])
def test_readme_example_bodies_round_trip_the_cache(tmp_path, capsys, example):
    argv = example["args"].split() + ["--cache-dir", str(tmp_path)]
    stored = "--numeric" not in argv  # the quadrature oracle always recomputes
    code, out, err = run(capsys, argv)
    assert code == 0, err
    _assert_readme_stdout(out, example)
    entries = list(tmp_path.iterdir())
    assert len(entries) == (1 if stored else 0)
    inodes = [e.stat().st_ino for e in entries]
    code, out, err = run(capsys, argv)
    assert code == 0, err
    _assert_readme_stdout(out, example)
    if "csv" not in argv:
        assert json.loads(out)["cached"] is stored
    # a hit leaves its entry in place; a miss would have replaced it
    assert [e.stat().st_ino for e in tmp_path.iterdir()] == inodes


@pytest.mark.parametrize("argv,expect_code", [
    ("count --regime complex -d 0 -k 2", 64),
    ("count --regime complex -d 3 -k 0", 64),
    ("count --regime real -d 3 -k 0", 64),
    ("feasibility --regime real -d 0 -k 2", 64),
    ("scan -d 3 --grid 10", 64),
    ("scan -d 3 --grid 4097", 64),
    ("scan -d 15 --grid 64", 64),
    ("lambda --regime real -d 15 -k 2 --alpha 204,204,204,204 --numeric", 64),
    ("lambda --regime complex -d 3 -k 4 --alpha 5,5,5,5 --numeric --grid 4097", 64),
    ("lambda --regime complex -d 3 -k 2 --alpha 2,2 --numeric --grid 3", 64),
    ("lambda --regime complex -d 3 -k 0 --alpha 2,2", 64),
    ("lambda --regime complex -d 0 -k 2 --alpha 2,2", 64),
    ("asymptote --family incidence --ns 0", 64),
    ("asymptote --family complex --ds 4 -k 4", 2),
    ("lambda --regime complex -d 3 -k 2 --alpha 2,2 --numeric --threads 0", 64),
    ("lambda --regime complex -d 3 -k 2 --alpha 2,2 --numeric --threads -1", 64),
    ("count --regime real -d 0 -k 2", 64),
    ("scan -d 0", 64),
    ("asymptote --family real --ds 0", 64),
    ("asymptote --family real --ds ,,", 64),
    ("asymptote --family incidence --ns ,", 64),
    ("feasibility --regime real -d 5 -k 2 --d-max 3", 64),
    ("asymptote --family complex --ds 3 -k 5", 64),
    ("count --regime real -d 4 -k 2", 2),
    ("scan -d 4", 2),
    ("asymptote --family complex --ds 2 -k 3", 64),
    ("feasibility --regime real -d 1 -k 2 --d-max 100001", 64),
    ("feasibility --regime real -d 2 -k 2 --d-max 100000000", 64),
    ("asymptote --family real --ds 3,x", 64),
    ("feasibility --regime real -d 5 -k 2 --format csv", 64),
    ("cubic-ci -r -1", 64),
    ("lambda --regime complex -d 3 -k 2 --alpha 2,2,2", 64),
    pytest.param(f"lambda --regime complex -d 3 -k 2 --alpha 2,2 --numeric --threads {usable_cores() + 1}",
                 64, id="lambda --numeric --threads above the core count"),
    # ranks whose k!-term alternant is too slow, and an incidence count too large, are refused up front
    ("count --regime complex -d 1 -k 1000", 64),
    ("count --regime real -d 1 -k 300", 64),
    pytest.param("lambda --regime complex -d 1 -k 30 --alpha " + ",".join(["1"] * 30), 64,
                 id="lambda --regime complex -d 1 -k 30 --alpha 1,...,1"),
    ("schur --alpha 30,29,28,27,26,25,24,23,22,21", 64),
    # Schur polynomials whose division may touch more than schur.MAX_DIVISION_TERMS terms (39 s to hours)
    ("schur --alpha 7,6,5,4,3,2,1,0", 64),
    ("schur --alpha 8,7,6,5,4,3,2,1", 64),
    # a quotient whose C(b + k - 1, k - 1) terms are priced above polynomial.MAX_PEAK_BYTES at
    # schur.DIVISION_TERM_BYTES each (10^7 terms; 5 * 10^6 took 25 s and 1.6 GiB)
    ("schur --alpha 9999999,0", 64),
    # packed products priced above polynomial.MAX_WORK or MAX_PEAK_BYTES are refused before they are built,
    # however large the exponent of a factor: incidence and cubic counts pass one power per factor
    ("incidence --regime complex -n 100000", 64),
    ("incidence --regime complex -n 1000000000000", 64),
    ("incidence --regime real -n 1000000000000", 64),
    ("cubic-ci -r 10000", 64),
    ("cubic-ci -r 1000000", 64),
    ("cubic-ci -r 1000000000000", 64),
    ("count --regime complex -d 13 -k 4", 64),
    # an open box (the dumped or the oracle's root polynomial) is priced before the count runs
    ("count --regime complex -d 9 -k 4 --dump-poly", 64),
    ("lambda --regime complex -d 9 -k 4 --alpha 55,55,55,55 --numeric", 64),
    # the quadrature's sweep is priced before f is built: 231 shifts against f's 1,442,655 terms ran for minutes
    ("lambda --regime complex -d 3 -k 6 --alpha 5,5,5,5,5,5 --numeric", 64),
    # a grid out of range, or a leading coefficient past the float range, is refused from the factors before f
    # is built; each of these took 5-70 s while the checks waited for the built f
    ("lambda --regime complex -d 7 -k 4 --alpha 30,30,30,30 --numeric --grid 4097", 64),
    ("lambda --regime complex -d 7 -k 4 --alpha 30,30,30,30 --numeric --grid 57", 64),
    ("lambda --regime real -d 45 -k 2 --alpha 1,1,1,1 --numeric", 64),
    ("lambda --regime complex -d 30 -k 3 --alpha 60,60,60 --numeric", 64),
    # an even real degree is still reported before a rank too large for the alternant
    ("count --regime real -d 6 -k 10 --dump-poly", 2),
    # binomials past combinatorics.MAX_BINOMIAL_BITS (C(599999, 299999) took 2.5 s) are refused before they are taken
    ("feasibility --regime complex -d 1000000 -k 1000000", 64),
    # tables whose binomials pass cli.MAX_FEASIBILITY_BITS in all (d = 99990..100000 at k = 150001 took 3.7 s)
    ("feasibility --regime complex -d 1 --d-max 100000 -k 150001", 64),
    ("count --regime complex -d 300000 -k 300000", 64),
    # boxes whose packed state alone would take tens of GB
    ("count --regime complex -d 3 -k 8", 64),
    ("count --regime complex -d 5 -k 6", 64),
    ("count --regime complex -d 101 -k 3", 64),
    # degrees with more than combinatorics.MAX_COMPOSITIONS compositions are refused before they are enumerated
    ("count --regime real -d 2001 -k 2", 64),
    ("scan -d 2001", 64),
    ("asymptote --family real --ds 301", 64),
])
def test_bad_input_exit_codes(capsys, argv, expect_code):
    start = time.perf_counter()
    code, out, err = run(capsys, argv.split() + ["--no-cache"])
    assert time.perf_counter() - start < 1.0, "a refusal must come before any work of the input's size"
    assert code == expect_code, err
    assert out == ""
    assert "internal error" not in err


def _determinant(rows):
    """Exact determinant by fraction-free elimination (Bareiss)."""
    rows, sign, last = [list(r) for r in rows], 1, 1
    for i in range(len(rows)):
        pivot = next((r for r in range(i, len(rows)) if rows[r][i]), None)
        if pivot is None:
            return 0
        if pivot != i:
            rows[i], rows[pivot], sign = rows[pivot], rows[i], -sign
        for r in range(i + 1, len(rows)):
            rows[r] = [(rows[i][i] * rows[r][c] - rows[r][i] * rows[i][c]) // last for c in range(len(rows))]
        last = rows[i][i]
    return sign * rows[-1][-1] if rows else 1


# Schur polynomials that the division price admits: their division may touch at most
# schur.MAX_DIVISION_TERMS terms, and the old step count refused them
DIVISION_ROWS = [
    ("schur --alpha 5,4,3,2,1,0", 2932, "39b3340391294ae1"),
    ("schur --alpha 4,4,4,0,0,0,0", 7140, "21d8ccece776482f"),
    ("schur --alpha 2,2,2,2,1,1,1,0", 336, "49d1fac9568536d7"),
    ("schur --alpha 6,5,4,3,2,1,0", 36961, "82d90a3805cc1edd"),
    ("schur --regime real --alpha 10,10,6,6,4,4,2,2,0,0,0,0", 2376, "1cb4515e93ae0b1a"),
]


@pytest.mark.parametrize("argv,terms,digest", DIVISION_ROWS, ids=[row[0] for row in DIVISION_ROWS])
def test_schur_within_the_division_price(capsys, argv, terms, digest):
    body = run_json(capsys, argv.split() + ["--no-cache"])
    text = body["poly"]
    assert (text.count(" + ") + 1, hashlib.sha256(text.encode()).hexdigest()[:16]) == (terms, digest)
    # the bialternant identity s * V_ga = V_gb, at an integer point
    ga, gb = _alternant_exponents(body["regime"], Partition(tuple(body["alpha"])))
    x, s = (2, 3, 5, 7, 11, 13, 17, 19)[:body["k"]], 0
    for chunk in text.split(" + "):
        c, *powers = chunk.split("*")
        s += int(c) * math.prod(v ** int(p[p.index("^") + 1:]) for v, p in zip(x, powers))
    assert s * _determinant([[v**g for v in x] for g in ga]) == _determinant([[v**g for v in x] for g in gb])


def test_feasibility_table_at_the_row_cap(capsys):
    code, out, err = run(capsys, ["feasibility", "--regime", "real", "-d", "2", "-k", "2",
                                  "--d-max", str(cli.MAX_FEASIBILITY_ROWS + 1), "--format", "csv", "--no-cache"])
    assert code == 0, err
    lines = out.splitlines()
    assert len(lines) == 1 + cli.MAX_FEASIBILITY_ROWS
    assert lines[-1].startswith(f"real,{cli.MAX_FEASIBILITY_ROWS + 1},2,")


def test_cache_write_failure_keeps_the_result(tmp_path, capsys):
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    code, out, err = run(capsys, ["count", "--regime", "complex", "-d", "3", "-k", "2",
                                  "--cache-dir", str(not_a_dir)])
    assert code == 0
    assert json.loads(out)["value"] == "27"
    assert "warning" in err


@pytest.mark.parametrize("argv", [
    "count --regime complex -d 3 -k 2 --grid 64",
    "count --regime complex -d 3 -k 2 --threads 1",
    "scan -d 3 --dump-poly",
    "scan -d 3 --threads 1",
    "incidence --regime real -n 2 --grid 64",
])
def test_flags_only_on_commands_that_read_them(capsys, argv):
    code, out, err = run(capsys, argv.split())
    assert code == 64
    assert "unrecognized arguments" in err


def _parse_exit(parser, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    "", "--help", "-h", "bogus", "bogus --help", "--format json",
    *(f"{name} --help" for name in COMMANDS),
    *COMMANDS,
    "count --regime bad -d 3 -k 2",
    "count --regime complex -d 3 -k 2 --grid 64",
])
def test_one_subparser_keeps_help_and_errors(capsys, argv):
    # main leaves help and usage errors to argparse: its texts and exit codes are those of the parser of every command
    argv = argv.split()
    expected = _parse_exit(build_parser(), argv, capsys)
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == expected


# a value each flag accepts, so that generated command lines are often plain
GOOD_VALUES = {"--regime": "real", "-d": "3", "-k": "2", "-n": "2", "-r": "2", "--alpha": "2,2", "--grid": "64",
               "--threads": "1", "--family": "real", "--ds": "3,5", "--ns": "1,2", "--d-max": "7",
               "--format": "json", "--cache-dir": "cache"}
# any flag's value may also be one of these: negative numbers, bad types and choices, empty and dash-only tokens
OTHER_VALUES = ["3", "0", "-1", "-3", "x", "", "-", "1.5", "1,x", "5,5,5,5", "complex", "bad", "csv", "incidence"]
# tokens that are no flag of any command: help, an unknown flag, the end of options and a stray word
STRAY_TOKENS = ["-h", "--help", "--bogus", "--", "extra"]


@st.composite
def command_lines(draw):
    # at noise 0 every token is plain, at noise 10 every one is drawn from all the forms and values
    noise = draw(st.sampled_from([0, 1, 3, 10]))
    name = draw(st.sampled_from([*COMMANDS, "bogus", "coun", "-h"] if noise else list(COMMANDS)))
    arguments = COMMANDS[name].arguments if name in COMMANDS else ()
    tokens = []
    for flag in draw(st.permutations([flags[0] for flags, _ in arguments + cli.SHARED])):
        for _ in range(draw(st.sampled_from([1, 1, 1, 0, 2]))):  # given once, dropped, or repeated
            plain = draw(st.integers(0, 9)) >= noise
            value = GOOD_VALUES.get(flag, "") if plain else draw(st.sampled_from(OTHER_VALUES))
            form = "plain" if plain else draw(st.sampled_from(["plain", "equals", "joined", "abbreviated", "bare"]))
            spelling = flag[:-1] if form == "abbreviated" and flag.startswith("--") else flag
            if form == "equals":
                tokens.append(f"{flag}={value}")
            elif form == "joined":
                tokens.append(flag + value)
            else:
                takes_value = form != "bare" and flag not in ("--dump-poly", "--numeric", "--no-cache")
                tokens += [spelling, value] if takes_value else [spelling]
    for token in draw(st.lists(st.sampled_from(STRAY_TOKENS), max_size=1 if noise else 0)):
        tokens.insert(draw(st.integers(0, len(tokens))), token)
    return [name, *tokens]


def _argparse_vars(argv):
    """vars() of argparse's namespace for argv, or None where argparse exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(build_parser().parse_args(argv))
        except SystemExit:
            return None


@settings(max_examples=400, deadline=None)
@given(command_lines())
def test_plain_parser_agrees_with_argparse(argv):
    # where the table parser answers, argparse gives the same namespace; where argparse exits, it answers None
    plain = cli.parse_plain(argv)
    assert plain is None or vars(plain) == _argparse_vars(argv)


def _benchmark_argvs():
    path = Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up there
    spec.loader.exec_module(workloads)
    return {query.argv for name in workloads.WORKLOADS for query in workloads.queries(name, 1)}


@pytest.mark.parametrize("argv", sorted(_benchmark_argvs() | {tuple(e["args"].split()) for e in README_BODIES}),
                         ids=" ".join)
def test_benchmark_and_readme_command_lines_are_plain(argv):
    plain = cli.parse_plain(list(argv))
    assert plain is not None
    assert vars(plain) == _argparse_vars(list(argv))
