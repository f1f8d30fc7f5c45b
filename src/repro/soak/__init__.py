"""Soak runtime: long-horizon online-test scenarios.

Stochastic fault arrivals (:mod:`arrivals`), streaming LFSR traffic
(:mod:`workload`), degradation-aware periodic scheduling on top of the
BIST session stepper (:mod:`scheduler`), scenario specs and matrices
(:mod:`scenario`), and supervised, checkpointable scenario sweeps
through the engine's supervised worker map (:mod:`campaign`).
"""

from .arrivals import FLAVORS, ArrivalSpec, FaultEpisode, FaultTimeline
from .campaign import (
    SoakCampaignReport,
    SoakCheckpoint,
    matrix_fingerprint,
    run_soak_campaign,
)
from .scenario import (
    MIXES,
    SoakScenario,
    run_scenario,
    scenario_matrix,
    with_seed,
)
from .scheduler import (
    EpisodeOutcome,
    SoakReport,
    SoakSchedule,
    SoakScheduler,
    TestRung,
)
from .workload import LfsrWorkload

__all__ = [
    "FLAVORS",
    "MIXES",
    "ArrivalSpec",
    "EpisodeOutcome",
    "FaultEpisode",
    "FaultTimeline",
    "LfsrWorkload",
    "SoakCampaignReport",
    "SoakCheckpoint",
    "SoakReport",
    "SoakScenario",
    "SoakSchedule",
    "SoakScheduler",
    "TestRung",
    "matrix_fingerprint",
    "run_scenario",
    "run_soak_campaign",
    "scenario_matrix",
    "with_seed",
]
