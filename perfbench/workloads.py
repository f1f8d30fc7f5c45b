"""The four benchmark workloads: inputs from a seed, one timed operation,
and the deterministic record each operation must reproduce.

Every workload is a closed loop of one caller: the next operation starts
only after the previous one returns.  The seed is a benchmark argument;
the program only ever sees the inputs generated from it (initial memory
content, the sampled inter-word coupling pairs, the soak scenario seeds).

``SCALES["full"]`` holds the benchmarked input sizes, ``SCALES["tiny"]``
the geometries the self-tests smoke and cross-check against the
``reference`` engine.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field

from layers import LayerTrace, TracedEngine, timed_workload, traced_soak_names

from repro.analysis.coverage import (
    aliasing_flow,
    compare_flow,
    run_campaign,
    signature_flow,
)
from repro.core.twm import twm_transform
from repro.engine import CampaignRunner, compile_march, get_engine
from repro.library import catalog
from repro.memory.injection import FaultyMemory, standard_fault_universe
from repro.soak import run_soak_campaign, scenario_matrix
from repro.soak.arrivals import FaultTimeline
from repro.soak.scheduler import SoakScheduler, TestRung
from repro.soak.workload import LfsrWorkload

WIDTH = 8
TEST = "March C-"
MAX_INTER_PAIRS = 512
DEFAULT_SEED = 1

SCALES = {
    "full": {
        "compare_full": {"n_words": 256},
        "compare_wide": {"n_words": 1 << 16},
        "session": {"n_words": 32},
        "soak": {"geometries": ((64, 8), (16, 8)), "cycles": 20_000},
    },
    "tiny": {
        "compare_full": {"n_words": 6},
        "compare_wide": {"n_words": 8},
        "session": {"n_words": 4},
        "soak": {"geometries": ((8, 8), (4, 8)), "cycles": 3_000},
    },
}


def nproc() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    return len(os.sched_getaffinity(0))


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class State:
    """Generated inputs of one workload plus the set-up spans."""

    workload: str
    seed: int
    sizes: dict
    setup: LayerTrace
    inputs: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """What one operation group produced.

    ``records`` are the deterministic simulated outputs, one per
    operation (a campaign per oracle, or a scenario); ``faults`` and
    ``cycles`` are the verdicts and simulated memory cycles covered;
    ``extra`` carries run accounting that is checked but never hashed.
    """

    records: list
    faults: int
    cycles: int
    extra: dict = field(default_factory=dict)


def setup(workload: str, seed: int, scale: str = "full") -> State:
    """Generate the workload's inputs from *seed*.

    Soak's set-up is the matrix plus every scenario's preparation
    (:func:`prepare_scenario`): ``run_soak_campaign`` takes scenarios,
    so the timed passes repeat that preparation inside each scenario.
    """
    sizes = dict(SCALES[scale][workload])
    spans = LayerTrace()
    state = State(workload, seed, sizes, spans)
    if workload == "soak":
        state.inputs["matrix"] = scenario_matrix(
            tests=(TEST,),
            geometries=sizes["geometries"],
            rates=(2.0, 4.0),
            mixes=("mixed", "permanent"),
            cycles=sizes["cycles"],
            seed=seed,
        )
        for scenario in state.inputs["matrix"]:
            prepare_scenario(scenario, spans)
        sizes["scenarios"] = len(state.inputs["matrix"])
        sizes["jobs"] = min(2, nproc())
        return state

    n_words = sizes["n_words"]
    sizes["width"] = WIDTH
    with spans.span("core.transform"):
        result = twm_transform(catalog.get(TEST), WIDTH)
    with spans.span("core.compile"):
        compile_march(result.twmarch, WIDTH)
        compile_march(result.prediction, WIDTH)
    with spans.span("memory.universe"):
        universe = standard_fault_universe(
            n_words,
            WIDTH,
            max_inter_pairs=MAX_INTER_PAIRS,
            rng=random.Random(seed),
            include_rdf=True,
            include_af=workload != "compare_wide",
        )
    sizes["faults"] = sum(len(faults) for faults in universe.values())
    state.inputs["universe"] = universe
    state.inputs["labels"] = {id(f): name for name, f in universe.items()}
    if workload == "session":
        state.inputs["flows"] = [
            make(result.twmarch, result.prediction, n_words, WIDTH, seed=seed)
            for make in (signature_flow, aliasing_flow)
        ]
        ops = result.twmarch.op_count + result.prediction.op_count
    else:
        state.inputs["flows"] = [
            compare_flow(result.twmarch, n_words, WIDTH, seed=seed)
        ]
        ops = result.twmarch.op_count
    state.inputs["cycles_per_fault"] = ops * n_words
    return state


def campaign_record(report) -> dict:
    stats = report.context_stats
    return {
        "classes": {
            name: [c.total, c.detected, c.stream_detected, c.aliased]
            for name, c in report.classes.items()
        },
        "missed": {
            name: [fault.describe() for fault in faults]
            for name, faults in report.undetected.items()
        },
        "contexts": [stats.builds, stats.hits],
    }


def summarize(workload: str, records: list):
    """The golden form of one operation group's records."""
    if workload == "soak":
        return {"reports_sha": digest(records)}
    return [
        {
            "classes": record["classes"],
            "missed_sha": digest(record["missed"]),
            "contexts": record["contexts"],
        }
        for record in records
    ]


def run_once(
    state: State, trace: LayerTrace | None = None, jobs: int = 1
) -> Outcome:
    """One operation group: a campaign (both oracles for ``session``)
    or a pass over the soak matrix.  With *trace*, every layer call is
    timed; the records must not change.  *jobs* shards an untraced soak
    pass across that many worker processes."""
    if state.workload == "soak":
        return _run_soak(state, trace, jobs)
    batch = get_engine("batch")
    engine = (
        batch
        if trace is None
        else TracedEngine(batch, state.inputs["labels"], trace)
    )
    universe = state.inputs["universe"]
    flows = state.inputs["flows"]
    with CampaignRunner(engine, 1) as runner:
        reports = [
            run_campaign(
                flow,
                universe,
                flow_name=type(flow).__name__,
                runner=runner,
            )
            for flow in flows
        ]
    faults = state.sizes["faults"] * len(flows)
    return Outcome(
        [campaign_record(report) for report in reports],
        faults,
        faults * state.inputs["cycles_per_fault"],
        extra={"missed": reports[0].undetected},
    )


def _run_soak(state: State, trace: LayerTrace | None, jobs: int) -> Outcome:
    matrix = state.inputs["matrix"]
    if trace is None:
        campaign = run_soak_campaign(matrix, jobs=jobs)
        reports = campaign.reports
        extra = {"fault_tolerance": campaign.fault_tolerance.as_dict()}
    else:
        with traced_soak_names(trace):
            reports = [traced_scenario(scenario, trace) for scenario in matrix]
        extra = {}
    return Outcome(
        [report.as_dict() for report in reports],
        0,
        sum(report.cycles for report in reports),
        extra,
    )


def _rung(test_name: str, width: int) -> TestRung:
    result = twm_transform(catalog.get(test_name), width)
    return TestRung(test_name, result.twmarch, result.prediction)


def traced_scenario(scenario, trace: LayerTrace):
    """``repro.soak.run_scenario`` spelled out call by call so each
    layer can be timed; the benchmark checks its reports equal the
    untraced passes'."""
    scheduler, workload = prepare_scenario(scenario, trace)
    with trace.span("soak.scheduler"):
        return scheduler.run(timed_workload(workload, trace), scenario.cycles)


def prepare_scenario(scenario, trace: LayerTrace):
    """Everything ``run_scenario`` does before the scheduler runs:
    the rungs' transforms, initial content, arrival timeline, LFSR
    workload and scheduler.  Returns ``(scheduler, workload)``."""
    with trace.span("core.transform"):
        primary = _rung(scenario.test, scenario.width)
        fallback = (
            _rung(scenario.fallback_test, scenario.width)
            if scenario.fallback_test is not None
            and scenario.fallback_test != scenario.test
            else None
        )
    memory = FaultyMemory(scenario.n_words, scenario.width)
    memory.randomize(random.Random(scenario.sub_seed("content")))
    with trace.span("soak.arrivals"):
        timeline = FaultTimeline.generate(
            scenario.arrival,
            scenario.n_words,
            scenario.width,
            scenario.cycles,
            scenario.sub_seed("arrivals"),
        )
    workload = LfsrWorkload(
        scenario.n_words,
        scenario.width,
        idle_permille=scenario.idle_permille,
        write_permille=scenario.write_permille,
        seed=scenario.sub_seed("workload"),
    )
    scheduler = SoakScheduler(
        memory,
        primary,
        fallback,
        scenario.schedule,
        timeline,
        misr_width=scenario.misr_width,
        rng=random.Random(scenario.sub_seed("protocol")),
        diagnose=scenario.diagnose,
        scenario_name=scenario.name,
    )
    return scheduler, workload
