"""Output checks that make ``ok_ratio`` real.

Simulated statistics repeat exactly for a given seed, so the benchmark
can check them exactly:

* at the default seed, every operation's records must match the
  committed golden summary (``goldens.json``: per-class detected,
  stream and aliased counts, a hash of the kept-missed sample, the
  context counters, and a hash of the soak report list);
* at any seed, the records must satisfy the invariants below, the
  kept-missed sample must be missed by the ``reference`` engine too,
  and every repetition must reproduce the first one.
"""

from __future__ import annotations

import json
from pathlib import Path

from workloads import DEFAULT_SEED, summarize

from repro.engine import get_engine

GOLDENS = Path(__file__).resolve().parent / "goldens.json"
# Kept-missed faults per class replayed through the reference engine.
REFERENCE_SAMPLE = 2
REFERENCE_MAX_WORDS = 1024


def load_goldens(scale: str) -> dict:
    return json.loads(GOLDENS.read_text(encoding="utf-8"))[scale]


def check_golden(workload: str, seed: int, records: list, goldens: dict) -> list[str]:
    if seed != DEFAULT_SEED:
        return []
    expected = goldens.get(workload)
    actual = summarize(workload, records)
    if expected == actual:
        return []
    return [f"{workload}: records differ from the golden summary at seed {seed}"]


def check_invariants(workload: str, records: list) -> list[str]:
    errors = []
    if workload == "soak":
        for report in records:
            cycles = report["idle_cycles"] + report["busy_reads"] + report["busy_writes"]
            aborted = report["aborted_in_prediction"] + report["aborted_in_test"]
            if cycles != report["cycles"] or aborted != report["sessions_aborted"]:
                errors.append(f"{report['scenario']}: cycle or abort accounting broken")
        return errors
    for record in records:
        for name, (total, detected, stream, aliased) in record["classes"].items():
            if not 0 <= detected <= total:
                errors.append(f"{name}: detected {detected} of {total}")
            if aliased is not None and not 0 <= aliased <= stream <= total:
                errors.append(f"{name}: aliased {aliased}, stream {stream}")
    builds = [record["contexts"][0] for record in records]
    if builds != [1] + [0] * (len(records) - 1):
        errors.append(f"context builds per campaign {builds}, expected 1 then 0")
    if workload == "session":
        signature, aliasing = records
        for name, counts in signature["classes"].items():
            if counts[1] != aliasing["classes"][name][1]:
                errors.append(
                    f"{name}: signature campaign detected {counts[1]}, "
                    f"aliasing campaign's signature half {aliasing['classes'][name][1]}"
                )
    return errors


def check_reference(state, missed: dict) -> list[str]:
    """Replay part of each class's kept-missed sample (*missed*, class
    name -> faults of the first campaign) through the ``reference``
    engine: it must miss those faults too.  Skipped above
    ``REFERENCE_MAX_WORDS``, where one reference replay takes seconds."""
    if state.sizes["n_words"] > REFERENCE_MAX_WORDS:
        return []
    reference = get_engine("reference")
    flow = state.inputs["flows"][0]
    errors = []
    for name, faults in missed.items():
        sample = faults[:REFERENCE_SAMPLE]
        if state.workload == "session":
            verdicts = [
                signature
                for _stream, signature in reference.detect_aliasing_batch(
                    flow.test,
                    flow.prediction,
                    flow.n_words,
                    flow.width,
                    flow.words,
                    sample,
                    misr_width=flow.misr_width,
                    misr_seed=flow.misr_seed,
                )
            ]
        else:
            verdicts = reference.detect_batch(
                flow.test, flow.n_words, flow.width, flow.words, sample
            )
        if any(verdicts):
            errors.append(
                f"{name}: the reference engine detects a fault the campaign missed"
            )
    return errors
