"""Self-tests of the benchmark itself.

Run with ``python3 -m pytest perfbench/selftest.py -q`` from the
repository root (the file name keeps it out of the default test
collection).  They smoke every workload at the tiny geometry, prove
traced and untraced runs produce identical simulated outputs,
cross-check the tiny goldens against the ``reference`` engine, and
check the command's failure modes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from layers import LayerTrace  # noqa: E402

from repro.analysis.coverage import run_campaign  # noqa: E402

TINY = checks.load_goldens("tiny")


@pytest.mark.parametrize("name", list(workloads.SCALES["full"]))
def test_tiny_smoke_matches_goldens(name):
    state = workloads.setup(name, workloads.DEFAULT_SEED, "tiny")
    records = workloads.run_once(state).records
    assert checks.check_invariants(name, records) == []
    assert workloads.summarize(name, records) == TINY[name]


@pytest.mark.parametrize("name", list(workloads.SCALES["full"]))
def test_traced_and_untraced_outputs_identical(name):
    state = workloads.setup(name, 7, "tiny")
    untraced = workloads.run_once(state).records
    trace = LayerTrace()
    assert workloads.run_once(state, trace).records == untraced
    assert trace.seconds  # the tracer saw layer calls
    if name == "soak":
        assert workloads.run_once(state, jobs=2).records == untraced


@pytest.mark.parametrize("name", ["compare_full", "compare_wide", "session"])
def test_tiny_goldens_match_reference_engine(name):
    state = workloads.setup(name, workloads.DEFAULT_SEED, "tiny")
    universe = state.inputs["universe"]
    for flow, golden in zip(state.inputs["flows"], TINY[name], strict=True):
        report = run_campaign(flow, universe, engine="reference")
        record = workloads.campaign_record(report)
        assert record["classes"] == golden["classes"]
        assert workloads.digest(record["missed"]) == golden["missed_sha"]


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(run.WORKLOADS) == list(workloads.SCALES["full"])
    for section, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in spec[section]} == table


def _copy_benchmark(target: Path, with_program: bool) -> None:
    shutil.copytree(HERE, target / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", target)
    if with_program:
        shutil.copytree(ROOT / "src", target / "src", ignore=shutil.ignore_patterns("__pycache__"))


def _run(cwd: Path, workload: str = "compare_full"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(workloads.DEFAULT_SEED), "--seconds", "0.1", "--trace", "0"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_corrupted_golden_exits_nonzero(tmp_path):
    _copy_benchmark(tmp_path, with_program=True)
    path = tmp_path / "perfbench" / "goldens.json"
    goldens = json.loads(path.read_text(encoding="utf-8"))
    goldens["full"]["compare_full"][0]["classes"]["SAF"][1] -= 1
    path.write_text(json.dumps(goldens), encoding="utf-8")
    done = _run(tmp_path)
    assert done.returncode == 1
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] > 0


def test_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    _copy_benchmark(tmp_path, with_program=False)
    done = _run(tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
