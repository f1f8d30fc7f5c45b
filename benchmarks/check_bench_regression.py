"""Bench-regression gate: fail CI when the engine speedup collapses.

``BENCH_engine.json`` (repo root) is the tracked perf trajectory of the
engine subsystem.  This gate compares a freshly produced copy against
the committed baseline and fails when:

* any ``speedup_batch_vs_reference`` ratio — of **every** base-workload
  oracle leg: compare, signature, aliasing and aliasing_narrow — drops
  below ``--threshold`` (default 0.7) times its baseline value, i.e.
  the batch engine lost more than 30% of its relative advantage.
  Ratios are compared, not absolute seconds, so the gate is robust to
  slow or noisy CI hosts: both engines run on the same machine in the
  same job;
* the megaword workload's ``min_speedup_packed_vs_perfault`` falls
  below the absolute ``--megaword-floor`` (default 10x), its sampled
  verdicts disagree with the per-fault path, or its reference
  spot-checks disagree — the packed class kernels must both beat and
  bit-match per-fault dispatch at ``>= 2^20`` words.  Skipped with a
  note when the *baseline* has no megaword leg yet (first landing) or
  the fresh run used ``--skip-megaword``;
* with ``--soak BENCH_soak.json``, the soak-runtime trajectory: the
  sequential leg's ``scenarios_per_sec`` must stay at or above the
  absolute ``--soak-floor`` (default 3.0/s), and every recovery check
  (``deterministic``, ``reports_identical``, ``chaos_recovered``,
  ``checkpoint_resume_identical``) must be true.  Skipped with a note
  when ``--soak`` is not passed (pre-soak bench).

A BENCH file that is not a JSON object of the expected shape (empty,
truncated, a list, a ``workloads`` list, a wrong-typed or missing field
the gate reads, ...) is an input error, not a gate verdict: the gate
names the file and the field on one line and exits 2.

Usage::

    cp BENCH_engine.json /tmp/baseline.json
    python benchmarks/bench_engine_speedup.py
    python benchmarks/check_bench_regression.py \
        --baseline /tmp/baseline.json --fresh BENCH_engine.json
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

DEFAULT_THRESHOLD = 0.7
DEFAULT_MEGAWORD_FLOOR = 10.0
DEFAULT_SOAK_FLOOR = 3.0

# Every one of these must be true in BENCH_soak.json's checks block:
# they are the soak runtime's recovery guarantees, not perf numbers.
SOAK_CHECKS = (
    "deterministic",
    "reports_identical",
    "chaos_recovered",
    "checkpoint_resume_identical",
)

# The batch-vs-reference gate covers every oracle leg of the base
# workload — signature and aliasing included, not just compare.
BATCH_MODES = ("compare", "signature", "aliasing", "aliasing_narrow")


class BenchFileError(ValueError):
    """A BENCH JSON file the gate cannot read (one-line message)."""


# Every field the gate reads, with the JSON type it must have, in walk
# order (containers before their fields); ``*`` matches every key of an
# object.  The last column names the file kinds that must carry the
# field: an absent optional field is the gate's to report, a
# wrong-typed one is an input error.  (The soak checkpoint's
# ``_typed_fields`` does the same for report fields.)
BENCH_FIELDS = (
    ("workloads", "an object", {"engine"}),
    ("workloads.*", "an object", ()),
    ("workloads.*.modes", "an object", ()),
    ("workloads.*.modes.*", "an object", ()),
    ("workloads.*.modes.*.speedup_batch_vs_reference", "a number", ()),
    ("workloads.megaword.min_speedup_packed_vs_perfault", "a number", ()),
    ("workloads.megaword.sampled_verdicts_identical", "a boolean", ()),
    ("workloads.megaword.reference_spotcheck_identical", "a boolean", ()),
    ("cpu_count", "an integer or null", {"engine"}),
    ("checks", "an object", {"engine", "soak"}),
    *(
        (f"checks.{name}", "a boolean", ())
        for name in ("all_vectors_identical", *SOAK_CHECKS)
    ),
    ("legs", "an object", {"soak"}),
    ("legs.*", "an object", ()),
    ("legs.sequential.scenarios_per_sec", "a number", ()),
)

_JSON_TYPES = {
    "an object": dict,
    "an array": list,
    "a string": str,
    "an integer": int,
    "a number": (int, float),
    "a boolean": bool,
    "null": type(None),
}
_ABSENT = object()


def _describe(value) -> str:
    if isinstance(value, bool):
        return "a boolean"
    for name, types in _JSON_TYPES.items():
        if isinstance(value, types):
            return name
    return type(value).__name__


def _fields(node, parts: list[str], trail: tuple = ()):
    """``(trail, value)`` of every field *parts* names below *node*;
    an absent last field yields :data:`_ABSENT`, an absent or
    non-object container nothing."""
    if not parts:
        yield trail, node
        return
    if not isinstance(node, dict):
        return
    head, rest = parts[0], parts[1:]
    for key in node if head == "*" else (head,):
        if key in node:
            yield from _fields(node[key], rest, (*trail, key))
        elif not rest:
            yield (*trail, key), _ABSENT


def load_bench(path: pathlib.Path, kind: str = "engine") -> dict:
    """Parse one BENCH JSON file of *kind* (``engine`` or ``soak``)
    and check every field the gate reads against :data:`BENCH_FIELDS`;
    :class:`BenchFileError` names the file and the field otherwise."""
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise BenchFileError(f"{path}: cannot read ({exc})") from None
    if not text.strip():
        raise BenchFileError(f"{path}: empty file, expected a JSON object")
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise BenchFileError(
            f"{path}: not valid JSON ({exc.msg} at line {exc.lineno} "
            f"column {exc.colno})"
        ) from None
    if not isinstance(payload, dict):
        raise BenchFileError(
            f"{path}: the top level is {_describe(payload)}, expected an object"
        )
    for dotted, expected, required in BENCH_FIELDS:
        types = tuple(_JSON_TYPES[name] for name in expected.split(" or "))
        for trail, value in _fields(payload, dotted.split(".")):
            name = ".".join(trail)
            if value is _ABSENT:
                if kind in required:
                    raise BenchFileError(f"{path}: missing field {name!r}")
                continue
            if not isinstance(value, types) or (
                isinstance(value, bool) and bool not in types
            ):
                raise BenchFileError(
                    f"{path}: field {name!r} is {_describe(value)}, "
                    f"expected {expected}"
                )
    return payload


def speedup_ratios(payload: dict, key: str) -> dict[str, float]:
    """``{workload/mode: ratio}`` for one speedup key of the payload."""
    ratios: dict[str, float] = {}
    for workload_name, workload in payload.get("workloads", {}).items():
        for mode_name, mode in workload.get("modes", {}).items():
            if key in mode:
                ratios[f"{workload_name}/{mode_name}"] = mode[key]
    return ratios


def check(
    baseline: dict,
    fresh: dict,
    threshold: float,
    megaword_floor: float = DEFAULT_MEGAWORD_FLOOR,
) -> tuple[list[str], list[str]]:
    """``(failures, notes)`` — failures empty when the gate passes."""
    failures: list[str] = []
    notes: list[str] = []
    if not fresh.get("checks", {}).get("all_vectors_identical", False):
        failures.append(
            "fresh benchmark reports non-identical coverage vectors "
            "(checks.all_vectors_identical is false)"
        )

    # -- batch vs reference: every oracle leg ---------------------------
    baseline_ratios = speedup_ratios(baseline, "speedup_batch_vs_reference")
    fresh_ratios = speedup_ratios(fresh, "speedup_batch_vs_reference")
    if not baseline_ratios:
        failures.append("baseline carries no speedup ratios to compare")
    gated_modes = {leg.split("/", 1)[1] for leg in baseline_ratios}
    missing_modes = [m for m in BATCH_MODES if m not in gated_modes]
    if missing_modes:
        failures.append(
            "baseline is missing batch-vs-reference legs for modes: "
            + ", ".join(missing_modes)
        )
    for leg, base_value in sorted(baseline_ratios.items()):
        fresh_value = fresh_ratios.get(leg)
        if fresh_value is None:
            failures.append(f"{leg}: ratio missing from fresh benchmark")
            continue
        floor = threshold * base_value
        if fresh_value < floor:
            failures.append(
                f"{leg}: speedup {fresh_value:.2f}x is below "
                f"{threshold:.0%} of baseline {base_value:.2f}x "
                f"(floor {floor:.2f}x)"
            )

    # -- megaword: packed class kernels vs per-fault dispatch -----------
    if baseline.get("workloads", {}).get("megaword") is None:
        notes.append(
            "baseline has no megaword workload yet: the packed-kernel "
            "assertions gate once a baseline with the leg is committed"
        )
    elif (mega := fresh.get("workloads", {}).get("megaword")) is None:
        notes.append(
            "fresh run skipped the megaword leg (--skip-megaword): "
            "packed-kernel assertions not gated"
        )
    else:
        value = mega.get("min_speedup_packed_vs_perfault")
        if value is None:
            failures.append(
                "megaword: min_speedup_packed_vs_perfault missing from "
                "fresh benchmark"
            )
        elif value < megaword_floor:
            failures.append(
                f"megaword: packed-kernel speedup {value:.2f}x is below "
                f"the {megaword_floor:.2f}x floor"
            )
        if not mega.get("sampled_verdicts_identical", False):
            failures.append(
                "megaword: sampled packed verdicts disagree with the "
                "per-fault dispatch path"
            )
        if not mega.get("reference_spotcheck_identical", False):
            failures.append(
                "megaword: reference interpreter spot-checks disagree "
                "with the packed verdicts"
            )
    return failures, notes


def check_soak(
    soak: dict, soak_floor: float = DEFAULT_SOAK_FLOOR
) -> list[str]:
    """Failures of the soak-runtime leg (``BENCH_soak.json``)."""
    failures: list[str] = []
    sequential = soak.get("legs", {}).get("sequential")
    if sequential is None:
        failures.append("soak: benchmark carries no sequential leg")
    else:
        value = sequential.get("scenarios_per_sec", 0.0)
        if value < soak_floor:
            failures.append(
                f"soak: sequential throughput {value:.2f} scenarios/s is "
                f"below the {soak_floor:.2f}/s floor"
            )
    checks = soak.get("checks", {})
    for name in SOAK_CHECKS:
        if not checks.get(name, False):
            failures.append(
                f"soak: checks.{name} is false — a recovery path is no "
                "longer bit-identical"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--baseline",
        type=pathlib.Path,
        required=True,
        help="committed BENCH_engine.json to compare against",
    )
    parser.add_argument(
        "--fresh",
        type=pathlib.Path,
        required=True,
        help="freshly produced BENCH_engine.json",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="minimum fresh/baseline batch-vs-reference ratio fraction "
        "(default %(default)s)",
    )
    parser.add_argument(
        "--megaword-floor",
        type=float,
        default=DEFAULT_MEGAWORD_FLOOR,
        help="absolute minimum packed-kernel vs per-fault speedup of "
        "the megaword workload (default %(default)s; skipped when the "
        "baseline has no megaword leg)",
    )
    parser.add_argument(
        "--soak",
        type=pathlib.Path,
        default=None,
        help="freshly produced BENCH_soak.json to gate alongside the "
        "engine trajectory (default: soak leg skipped with a note)",
    )
    parser.add_argument(
        "--soak-floor",
        type=float,
        default=DEFAULT_SOAK_FLOOR,
        help="absolute minimum sequential scenarios/second of the soak "
        "benchmark (default %(default)s)",
    )
    args = parser.parse_args(argv)

    try:
        baseline = load_bench(args.baseline)
        fresh = load_bench(args.fresh)
        soak = None if args.soak is None else load_bench(args.soak, "soak")
    except BenchFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failures, notes = check(baseline, fresh, args.threshold, args.megaword_floor)
    if soak is None:
        notes.append(
            "no --soak benchmark passed: soak-runtime assertions not "
            "gated (pre-soak bench?)"
        )
    else:
        failures.extend(check_soak(soak, args.soak_floor))

    # Ratios are host-relative: show which hosts are being compared.
    print(
        f"  cpu_count: baseline {baseline.get('cpu_count')} -> "
        f"fresh {fresh.get('cpu_count')}"
    )
    key = "speedup_batch_vs_reference"
    fresh_ratios = speedup_ratios(fresh, key)
    baseline_ratios = speedup_ratios(baseline, key)
    for leg in sorted(set(baseline_ratios) | set(fresh_ratios)):
        base_value = baseline_ratios.get(leg)
        fresh_value = fresh_ratios.get(leg)
        base_text = "-" if base_value is None else f"{base_value:.2f}x"
        fresh_text = "-" if fresh_value is None else f"{fresh_value:.2f}x"
        print(f"  {key} {leg}: baseline {base_text} -> fresh {fresh_text}")
    for payload, label in ((baseline, "baseline"), (fresh, "fresh")):
        mega = payload.get("workloads", {}).get("megaword")
        if mega is not None:
            print(
                f"  min_speedup_packed_vs_perfault megaword ({label}): "
                f"{mega.get('min_speedup_packed_vs_perfault')}x"
            )
    if soak is not None:
        sequential = soak.get("legs", {}).get("sequential", {})
        soak_checks = soak.get("checks", {})
        print(
            "  soak (fresh): "
            f"{sequential.get('scenarios_per_sec', 0.0):.2f} scenarios/s "
            f"(floor {args.soak_floor:.2f}/s), "
            + " ".join(
                f"{name}={soak_checks.get(name)}" for name in SOAK_CHECKS
            )
        )
    for note in notes:
        print(f"note: {note}")

    if failures:
        print("bench-regression gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("bench-regression gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
