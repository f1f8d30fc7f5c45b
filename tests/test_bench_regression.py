"""Input handling of the bench-regression gate
(``benchmarks/check_bench_regression.py``).

A malformed BENCH file is an input error: the gate must name the file
and the fault on one line and exit 2, never end in a traceback.
"""

import importlib.util
import json
import pathlib

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
