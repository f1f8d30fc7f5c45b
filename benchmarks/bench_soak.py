"""Soak-runtime benchmark: scenario throughput and recovery guarantees.

One scenario matrix (tests x geometries x arrival rates x fault mixes)
runs through four legs:

* **sequential** — ``jobs=1`` through :func:`repro.soak.run_soak_campaign`;
  the scenarios-per-second headline the CI gate floors.  The same leg
  runs twice and checks the two report lists are equal — the
  determinism contract every other leg's bit-identity claim rests on.
* **jobs** — the same matrix sharded across worker processes; reports
  must be bit-identical to the sequential leg.
* **chaos** — the jobs leg under an injected worker crash and a corrupt
  chunk (``repro.engine.chaos.FaultPlan``): the supervised runner must
  retry/respawn its way back to bit-identical reports, and the leg
  records the fault-tolerance accounting.
* **checkpoint** — the matrix run in two invocations (``max_batches=1``
  then a resume from the banked JSON checkpoint), simulating a killed
  and restarted soak; the stitched reports must again be bit-identical.

Results are written as machine-readable JSON to ``BENCH_soak.json`` at
the repository root (the tracked perf trajectory).

Usage::

    PYTHONPATH=src python benchmarks/bench_soak.py
    PYTHONPATH=src python benchmarks/bench_soak.py --cycles 40000 --jobs 4
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import tempfile
import time

from repro.engine import FaultPlan, RetryPolicy
from repro.soak import run_soak_campaign, scenario_matrix

ROOT_OUT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_soak.json"


def build_matrix(args):
    return scenario_matrix(
        tests=tuple(t.strip() for t in args.tests.split(",") if t.strip()),
        geometries=((8, 8), (16, 8)),
        rates=(2.0, 4.0),
        mixes=("mixed", "permanent"),
        cycles=args.cycles,
        seed=args.seed,
    )


def leg(campaign, n_scenarios: int) -> dict:
    seconds = max(campaign.seconds, 1e-9)
    return {
        "scenarios": campaign.scenarios,
        "seconds": round(seconds, 6),
        "scenarios_per_sec": round(n_scenarios / seconds, 2),
        "cycles_per_sec": round(
            sum(r.cycles for r in campaign.reports) / seconds, 1
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tests", default="March C-")
    parser.add_argument("--cycles", type=int, default=12_000,
                        help="simulated uptime per scenario")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=2,
                        help="sequential-leg repeats (best-of wall clock)")
    parser.add_argument(
        "--jobs", type=int, default=max(2, min(4, os.cpu_count() or 1)),
        help="worker processes for the sharded legs",
    )
    args = parser.parse_args(argv)

    matrix = build_matrix(args)
    n = len(matrix)
    payload = {
        "workload": "soak scenario matrix "
        "(tests x geometries x rates x mixes, Poisson arrivals)",
        "n_scenarios": n,
        "cycles_per_scenario": args.cycles,
        "seed": args.seed,
        "cpu_count": os.cpu_count(),
        "jobs": args.jobs,
        "legs": {},
        "checks": {},
    }

    # -- sequential: throughput headline + the determinism contract -----
    base = None
    best = None
    for _ in range(max(2, args.repeats)):
        campaign = run_soak_campaign(matrix, jobs=1)
        if best is None or campaign.seconds < best.seconds:
            best = campaign
        if base is None:
            base = campaign
    deterministic = best.reports == base.reports
    payload["legs"]["sequential"] = leg(best, n)

    # -- jobs: sharded sweep, bit-identical merge -----------------------
    par = run_soak_campaign(matrix, jobs=args.jobs)
    jobs_identical = par.reports == base.reports
    payload["legs"]["jobs"] = leg(par, n)
    payload["legs"]["jobs"]["reports_identical"] = jobs_identical

    # -- chaos: crash + corrupt recovery, bit-identical -----------------
    chaos = run_soak_campaign(
        matrix,
        jobs=args.jobs,
        chaos=FaultPlan.parse("crash:soak:0,corrupt:soak:1"),
        retry=RetryPolicy(max_attempts=3, base_delay=0.0),
    )
    ft = chaos.fault_tolerance
    chaos_recovered = (
        chaos.reports == base.reports
        and ft is not None
        and ft.crashes >= 1
        and ft.corrupt_chunks >= 1
        and ft.degraded_chunks == 0
    )
    payload["legs"]["chaos"] = leg(chaos, n)
    payload["legs"]["chaos"]["plan"] = "crash:soak:0,corrupt:soak:1"
    payload["legs"]["chaos"]["fault_tolerance"] = (
        ft.as_dict() if ft is not None else None
    )
    payload["legs"]["chaos"]["recovered_bit_identical"] = chaos_recovered

    # -- checkpoint: killed-and-resumed run, bit-identical --------------
    with tempfile.TemporaryDirectory() as tmp:
        bank = pathlib.Path(tmp) / "soak-checkpoint.json"
        started = time.perf_counter()
        partial = run_soak_campaign(
            matrix, jobs=1, checkpoint=bank, batch_size=max(1, n // 3),
            max_batches=1,
        )
        resumed = run_soak_campaign(
            matrix, jobs=1, checkpoint=bank, batch_size=max(1, n // 3)
        )
        checkpoint_seconds = time.perf_counter() - started
    resume_identical = (
        not partial.completed
        and resumed.completed
        and resumed.resumed_scenarios == partial.scenarios
        and resumed.reports == base.reports
    )
    payload["legs"]["checkpoint"] = {
        "seconds": round(checkpoint_seconds, 6),
        "banked_then_resumed": partial.scenarios,
        "resume_identical": resume_identical,
    }

    ok = deterministic and jobs_identical and chaos_recovered and (
        resume_identical
    )
    payload["checks"] = {
        "deterministic": deterministic,
        "reports_identical": jobs_identical,
        "chaos_recovered": chaos_recovered,
        "checkpoint_resume_identical": resume_identical,
        "single_core_note": (
            "jobs legs cannot exceed 1x on a single-CPU host"
            if (os.cpu_count() or 1) < 2
            else None
        ),
    }

    text = json.dumps(payload, indent=2) + "\n"
    ROOT_OUT.write_text(text, encoding="utf-8")
    print(text, end="")
    if not ok:
        print("ERROR: a soak recovery leg failed its bit-identity check")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
