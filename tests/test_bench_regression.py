"""Input handling of the bench-regression gate
(``benchmarks/check_bench_regression.py``).

A malformed BENCH file is an input error: the gate must name the file
and the fault on one line and exit 2, never end in a traceback.
"""

import collections
import copy
import importlib.util
import json
import pathlib
import random

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _gate():
    spec = importlib.util.spec_from_file_location(
        "check_bench_regression",
        ROOT / "benchmarks" / "check_bench_regression.py",
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _valid_files(tmp_path, gate) -> dict[str, pathlib.Path]:
    """Minimal well-formed engine and soak BENCH files that pass."""
    engine = {
        "cpu_count": 1,
        "workloads": {
            "base": {
                "modes": {
                    mode: {"speedup_batch_vs_reference": 2.0}
                    for mode in gate.BATCH_MODES
                }
            }
        },
        "checks": {"all_vectors_identical": True},
    }
    soak = {
        "legs": {"sequential": {"scenarios_per_sec": 10.0}},
        "checks": dict.fromkeys(gate.SOAK_CHECKS, True),
    }
    files = {}
    for flag, payload in (
        ("--baseline", engine),
        ("--fresh", engine),
        ("--soak", soak),
    ):
        path = tmp_path / f"{flag.strip('-')}.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        files[flag] = path
    return files


def _argv(files):
    return [arg for flag, path in files.items() for arg in (flag, str(path))]


MALFORMED = {
    "empty": ("", "empty file"),
    "truncated": ("{", "not valid JSON"),
    "array": ("[]", "the top level is an array"),
    "workloads-array": ('{"workloads": []}', "'workloads' is an array"),
}


@pytest.mark.parametrize("role", ["--baseline", "--fresh", "--soak"])
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_bench_file_exits_2(tmp_path, capsys, case, role):
    gate = _gate()
    files = _valid_files(tmp_path, gate)
    text, fault = MALFORMED[case]
    bad = tmp_path / "BENCH_bad.json"
    bad.write_text(text, encoding="utf-8")
    files[role] = bad
    assert gate.main(_argv(files)) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert str(bad) in err
    assert fault in err


def test_well_formed_files_pass(tmp_path, capsys):
    gate = _gate()
    assert gate.main(_argv(_valid_files(tmp_path, gate))) == 0
    assert "bench-regression gate passed" in capsys.readouterr().out


# Wrong-typed values for each JSON type a gated field may have.
WRONG_VALUES = {
    "an object": ("x", [], 1, None),
    "a number": ("x", None, True, [], {}),
    "an integer": ("x", 1.5, None, True, []),
    "a boolean": ("x", 1, None, []),
    "an integer or null": ("two", 1.5, True, []),
    "an object or null": ("x", [], 3, False),
}


_DELETE = object()


def _set(payload, trail, value):
    node = payload
    for key in trail[:-1]:
        node = node[key]
    if value is _DELETE:
        del node[trail[-1]]
    else:
        node[trail[-1]] = value


def _fuzz_cases(gate):
    """``(role, text, expected fault)`` over the committed BENCH files:
    every gated field present set to each wrong-typed value, every
    required field deleted, and the files truncated at random points
    (down to empty)."""
    rng = random.Random(0)
    committed = {
        kind: (ROOT / f"BENCH_{kind}.json").read_text(encoding="utf-8")
        for kind in ("engine", "soak")
    }
    for role, kind in (
        ("--baseline", "engine"),
        ("--fresh", "engine"),
        ("--soak", "soak"),
    ):
        payload = json.loads(committed[kind])
        for dotted, expected, required in gate.BENCH_FIELDS:
            for trail, value in gate._fields(payload, dotted.split(".")):
                name = ".".join(trail)
                if value is gate._ABSENT:
                    continue
                for wrong in WRONG_VALUES[expected]:
                    mutated = copy.deepcopy(payload)
                    _set(mutated, trail, wrong)
                    yield role, json.dumps(mutated), f"field {name!r} is"
            if kind in required:
                mutated = copy.deepcopy(payload)
                _set(mutated, dotted.split("."), _DELETE)
                yield role, json.dumps(mutated), f"missing field {dotted!r}"
        text = committed[kind]
        for cut in [0, *rng.sample(range(1, len(text) - 1), 12)]:
            fault = "empty file" if cut == 0 else "not valid JSON"
            yield role, text[:cut], fault


def test_fuzz_reaches_every_gated_field():
    # The fuzz mutates the fields present in the committed files, so
    # every BENCH_FIELDS row must match at least one of them.
    gate = _gate()
    payloads = [
        json.loads((ROOT / f"BENCH_{kind}.json").read_text(encoding="utf-8"))
        for kind in ("engine", "soak")
    ]
    for dotted, _expected, _required in gate.BENCH_FIELDS:
        assert any(
            value is not gate._ABSENT
            for payload in payloads
            for _trail, value in gate._fields(payload, dotted.split("."))
        ), dotted


def test_fuzzed_bench_files_exit_2(tmp_path, capsys):
    # Wrong-typed fields used to end in a traceback (exit 1): a string
    # speedup in a format string, a string cpu_count or
    # speedup_batch_vs_reference in a comparison, a null soak rate.
    gate = _gate()
    committed = {
        "--baseline": ROOT / "BENCH_engine.json",
        "--fresh": ROOT / "BENCH_engine.json",
        "--soak": ROOT / "BENCH_soak.json",
    }
    assert gate.main(_argv(committed)) in (0, 1)  # a verdict, not an error
    capsys.readouterr()
    bad = tmp_path / "BENCH_bad.json"
    seen = collections.Counter()
    for role, text, fault in _fuzz_cases(gate):
        bad.write_text(text, encoding="utf-8")
        files = {**committed, role: bad}
        assert gate.main(_argv(files)) == 2, (role, fault)
        captured = capsys.readouterr()
        assert captured.out == "", (role, fault)
        assert captured.err.count("\n") == 1, (role, fault, captured.err)
        assert str(bad) in captured.err and fault in captured.err, (
            role, fault, captured.err,
        )
        seen[fault.split(" ")[0]] += 1
    # Wrong-type, missing-field, truncated and empty inputs all ran.
    assert {"field", "missing", "not", "empty"} <= set(seen), seen
