"""Degradation-aware periodic scheduling for long-horizon soak runs.

This is the soak rewrite of :mod:`repro.bist.scheduler`: the same
cycle-based discrete-event simulation (workload owns busy cycles, the
BIST steals idle ones, a system write aborts the in-flight session),
grown into the paper's deployment story:

* faults **arrive over time** from a :class:`~repro.soak.arrivals.
  FaultTimeline` — permanent, transient (withdrawn after a window) and
  intermittent (duty-cycled) episodes toggle in and out of the
  :class:`~repro.memory.injection.FaultyMemory` mid-run;
* the transparent test runs **periodically under a budget**: each
  period grants at most ``budget`` BIST operations, the scheduler
  launches one session per period and resumes (restarts) it after
  interfering writes while budget remains;
* when the budget **starves** the test, the scheduler degrades down an
  explicit ladder — primary catalog test → shorter fallback test →
  fallback at 2x, 4x, ... the period — and climbs back after sustained
  healthy periods.  Periods that complete no session at the bottom
  rung are accounted as ``starved`` (mirroring the campaign runner's
  retry → degrade → fail-loudly contract);
* every completed session runs the MISR pair *and* the streaming
  alias-free checker (``track_stream=True``), so signature detections,
  aliasing escapes (stream mismatch, signatures equal) and detection
  latency per fault episode are all measured exactly;
* a signature detection triggers an offline diagnosis pass
  (:func:`~repro.analysis.diagnosis.diagnose_memory`) whose suspect
  cells attribute the detection to concrete fault episodes — the
  per-scenario diagnosis-accuracy figure.

The run is an exact event loop, not one iteration per cycle.  The
traffic never depends on memory, so it is built up front as a busy
list (block-parsed for :class:`~repro.soak.workload.LfsrWorkload`,
one call per cycle otherwise).  A busy read off the hot words only
counts.  The idle cycles up to the next stop (busy cycle, toggle,
period end, horizon) are one ``step(min(run * ops, budget_left))``:
nothing else touches the memory in between, and a session that
finishes in the run does so on cycle ``run_start + remaining // ops``,
the first one that would have been granted more ops than it had left.

Everything in the resulting :class:`SoakReport` is a pure function of
``(memory geometry, tests, schedule, timeline, workload seed)``: no
wall clock, no global RNG, no hash-ordered iteration — the property
the campaign layer's checkpoint/resume and chaos recovery rely on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, fields

from ..analysis.diagnosis import diagnose_memory
from ..bist.scheduler import SessionStepper, Workload
from ..core.march import MarchTest
from ..memory.faults import AddressDecoderFault
from ..memory.injection import FaultyMemory
from .arrivals import FaultTimeline
from .workload import LfsrWorkload


@dataclass(frozen=True)
class SoakSchedule:
    """Idle/duty-cycle budget of the periodic test.

    ``period`` is the nominal cycle count between session launches,
    ``budget`` the BIST operations granted per period (``None`` =
    unlimited), ``max_widen`` the largest period multiplier the
    degradation ladder may reach.  ``starvation_window`` consecutive
    zero-session periods trigger one rung down;
    ``recovery_window`` consecutive healthy periods climb one rung up.
    """

    period: int = 1500
    ops_per_idle_cycle: int = 8
    budget: int | None = None
    max_widen: int = 4
    starvation_window: int = 2
    recovery_window: int = 4

    def __post_init__(self) -> None:
        if self.period < 1:
            raise ValueError("period must be >= 1")
        if self.ops_per_idle_cycle < 1:
            raise ValueError("ops_per_idle_cycle must be >= 1")
        if self.budget is not None and self.budget < 1:
            raise ValueError("budget must be >= 1 (or None)")
        if self.max_widen < 1:
            raise ValueError("max_widen must be >= 1")
        if self.starvation_window < 1 or self.recovery_window < 1:
            raise ValueError("ladder windows must be >= 1")

    def as_dict(self) -> dict:
        return {
            "period": self.period,
            "ops_per_idle_cycle": self.ops_per_idle_cycle,
            "budget": self.budget,
            "max_widen": self.max_widen,
            "starvation_window": self.starvation_window,
            "recovery_window": self.recovery_window,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SoakSchedule":
        return cls(**payload)


@dataclass(frozen=True)
class TestRung:
    """One catalog test on the ladder: label + transparent test pair."""

    label: str
    test: MarchTest
    prediction: MarchTest

    def __post_init__(self) -> None:
        if not self.test.is_transparent_form:
            raise ValueError(f"rung {self.label!r} needs a transparent test")


@dataclass
class EpisodeOutcome:
    """One fault episode's fate in a finished scenario (JSON-safe)."""

    index: int
    flavor: str
    kind: str
    description: str
    start: int
    end: int | None
    detected_cycle: int | None = None
    attribution: str | None = None  # "suspects" | "window" | None

    @property
    def latency(self) -> int | None:
        if self.detected_cycle is None:
            return None
        return self.detected_cycle - self.start

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "flavor": self.flavor,
            "kind": self.kind,
            "description": self.description,
            "start": self.start,
            "end": self.end,
            "detected_cycle": self.detected_cycle,
            "attribution": self.attribution,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "EpisodeOutcome":
        return cls(**_typed_fields(cls, payload))


@dataclass
class SoakReport:
    """Everything one soak scenario measured.

    Deterministic and value-comparable: two runs of the same scenario
    spec and seed produce equal reports, which is what the campaign
    layer's chaos and checkpoint/resume guarantees are asserted
    against.
    """

    scenario: str
    cycles: int
    idle_cycles: int = 0
    busy_reads: int = 0
    busy_writes: int = 0
    bist_ops: int = 0
    diagnosis_ops: int = 0
    sessions_completed: int = 0
    sessions_aborted: int = 0
    aborted_in_prediction: int = 0
    aborted_in_test: int = 0
    sessions_detecting: int = 0
    aliasing_escapes: int = 0
    spurious_detections: int = 0
    periods: int = 0
    starved_periods: int = 0
    degradations: int = 0
    recoveries: int = 0
    final_step: str = ""
    diagnoses: int = 0
    diagnoses_correct: int = 0
    episodes: list[EpisodeOutcome] = field(default_factory=list)

    @property
    def arrivals(self) -> int:
        return len(self.episodes)

    @property
    def detections(self) -> int:
        return sum(1 for e in self.episodes if e.detected_cycle is not None)

    @property
    def detection_latencies(self) -> list[int]:
        return [e.latency for e in self.episodes if e.latency is not None]

    @property
    def missed(self) -> int:
        return sum(1 for e in self.episodes if e.detected_cycle is None)

    @property
    def missed_transient_windows(self) -> int:
        """Transient/intermittent episodes that came and went without a
        detecting session — the window was simply never tested."""
        return sum(
            1
            for e in self.episodes
            if e.detected_cycle is None and e.flavor != "permanent"
        )

    @property
    def diagnosis_accuracy(self) -> float | None:
        if not self.diagnoses:
            return None
        return self.diagnoses_correct / self.diagnoses

    def as_dict(self) -> dict:
        payload = {
            key: getattr(self, key)
            for key in (
                "scenario", "cycles", "idle_cycles", "busy_reads",
                "busy_writes", "bist_ops", "diagnosis_ops",
                "sessions_completed", "sessions_aborted",
                "aborted_in_prediction", "aborted_in_test",
                "sessions_detecting", "aliasing_escapes",
                "spurious_detections", "periods", "starved_periods",
                "degradations", "recoveries", "final_step",
                "diagnoses", "diagnoses_correct",
            )
        }
        payload["episodes"] = [e.as_dict() for e in self.episodes]
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "SoakReport":
        data = _typed_fields(cls, payload)
        data["episodes"] = [
            EpisodeOutcome.from_dict(e) for e in data["episodes"]
        ]
        return cls(**data)


# JSON type of every report field, by annotation (``bool`` is an
# ``int`` subclass, and no field is a flag).
_JSON_TYPES = {
    "int": int,
    "str": str,
    "int | None": (int, type(None)),
    "str | None": (str, type(None)),
    "list[EpisodeOutcome]": list,
}


def _typed_fields(cls, payload) -> dict:
    """A copy of *payload* once it holds every field of dataclass *cls*
    with its JSON type: :class:`KeyError` names a missing field,
    :class:`TypeError` a wrong-typed one."""
    if not isinstance(payload, dict):
        raise TypeError(f"{cls.__name__} is {type(payload).__name__}, expected object")
    for spec in fields(cls):
        value = payload[spec.name]
        if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[spec.type]):
            raise TypeError(
                f"{spec.name!r} is {type(value).__name__}, expected {spec.type}"
            )
    return dict(payload)


class SoakScheduler:
    """Runs the periodic transparent test through a fault timeline.

    ``primary`` is the full catalog test, ``fallback`` the shorter
    test the ladder degrades to (``None`` = widen the primary only).
    """

    def __init__(
        self,
        memory: FaultyMemory,
        primary: TestRung,
        fallback: TestRung | None,
        schedule: SoakSchedule,
        timeline: FaultTimeline,
        *,
        misr_width: int = 16,
        rng: random.Random | None = None,
        diagnose: bool = True,
        scenario_name: str = "soak",
    ) -> None:
        self.memory = memory
        self.schedule = schedule
        self.timeline = timeline
        self.misr_width = misr_width
        self.rng = rng if rng is not None else random.Random(0)
        self.diagnose = diagnose
        self.scenario_name = scenario_name
        self.steps: list[tuple[TestRung, int]] = [(primary, 1)]
        short = fallback if fallback is not None else primary
        if fallback is not None:
            self.steps.append((fallback, 1))
        widen = 2
        while widen <= schedule.max_widen:
            self.steps.append((short, widen))
            widen *= 2

    @staticmethod
    def step_label(rung: TestRung, widen: int) -> str:
        return rung.label if widen == 1 else f"{rung.label} x{widen}"

    def run(self, workload: Workload, cycles: int) -> SoakReport:
        report = SoakReport(scenario=self.scenario_name, cycles=cycles)
        outcomes = {
            ep.index: EpisodeOutcome(
                ep.index,
                ep.flavor,
                ep.fault.kind,
                ep.fault.describe(),
                ep.start,
                ep.end,
            )
            for ep in self.timeline
        }
        episodes = {ep.index: ep for ep in self.timeline}
        events = self.timeline.toggle_events(cycles)
        toggles = sorted(events) + [cycles]
        busy = workload.events(cycles) if isinstance(workload, LfsrWorkload) else [
            (cycle, event.kind, event.addr, event.value) for cycle in range(cycles)
            if (event := workload(cycle, self.rng)) is not None
        ]
        busy.append((cycles, "", 0, 0))
        injected: set[int] = set()
        memory = self.memory
        ops = self.schedule.ops_per_idle_cycle

        step = 0
        session: SessionStepper | None = None
        session_start = 0
        completed_this_period = 0
        starved_streak = healthy_streak = 0
        budget_left = self.schedule.budget
        period_end = self.schedule.period * self.steps[0][1]
        next_busy = next_toggle = 0  # indexes into busy / toggles

        cycle = 0
        while cycle < cycles:
            # -- period boundary: health accounting + ladder moves ----
            if cycle >= period_end:
                report.periods += 1
                if completed_this_period == 0:
                    starved_streak += 1
                    healthy_streak = 0
                    if step == len(self.steps) - 1:
                        report.starved_periods += 1
                else:
                    healthy_streak += 1
                    starved_streak = 0
                if (
                    starved_streak >= self.schedule.starvation_window
                    and step < len(self.steps) - 1
                ):
                    step += 1
                    report.degradations += 1
                    starved_streak = healthy_streak = 0
                    # The in-flight session belongs to the old rung;
                    # restart on the new one.
                    session = None
                elif (
                    healthy_streak >= self.schedule.recovery_window
                    and step > 0
                ):
                    step -= 1
                    report.recoveries += 1
                    starved_streak = healthy_streak = 0
                completed_this_period = 0
                budget_left = self.schedule.budget
                period_end = cycle + self.schedule.period * self.steps[step][1]

            # -- fault weather: episodes toggling in and out ----------
            if cycle == toggles[next_toggle]:
                next_toggle += 1
                for index, active in events[cycle]:
                    if active and index not in injected:
                        memory.inject(episodes[index].fault)
                        injected.add(index)
                    elif not active and index in injected:
                        memory.remove(episodes[index].fault)
                        injected.discard(index)

            # -- workload owns the memory this cycle? -----------------
            at, kind, addr, value = busy[next_busy]
            if at == cycle:
                next_busy += 1
                if kind == "w":
                    memory.write(addr, value)
                    report.busy_writes += 1
                    if session is not None:
                        report.sessions_aborted += 1
                        if session.phase == "prediction":
                            report.aborted_in_prediction += 1
                        else:
                            report.aborted_in_test += 1
                        session = None
                else:  # a read off the hot words has no side effect
                    if addr in memory._hot or memory._observers:
                        memory.read(addr)
                    else:
                        memory.read_count += 1
                    report.busy_reads += 1
                cycle += 1
                continue

            # -- idle run up to the next stop: advance (or launch) ----
            stop = min(at, toggles[next_toggle], period_end)
            report.idle_cycles += stop - cycle
            if (
                session is None
                and completed_this_period == 0
                and (budget_left is None or budget_left > 0)
            ):
                rung, _ = self.steps[step]
                session = SessionStepper(
                    memory,
                    rung.test,
                    rung.prediction,
                    self.misr_width,
                    track_stream=True,
                )
                session_start = cycle
            grant = (stop - cycle) * ops
            if budget_left is not None:
                grant = min(grant, budget_left)
            if session is not None and grant:
                done = session.step(grant)
                report.bist_ops += done
                if budget_left is not None:
                    budget_left -= done
                if session.finished:
                    finish = cycle + done // ops  # see the module docstring
                    report.sessions_completed += 1
                    completed_this_period += 1
                    if session.stream_detected and not session.detected:
                        report.aliasing_escapes += 1
                    if session.detected:
                        report.sessions_detecting += 1
                        self._attribute_detection(
                            report, outcomes, episodes, session_start, finish
                        )
                    session = None
            cycle = stop
        report.final_step = self.step_label(*self.steps[step])
        report.episodes = [outcomes[i] for i in sorted(outcomes)]
        return report

    def _attribute_detection(
        self,
        report: SoakReport,
        outcomes: dict[int, EpisodeOutcome],
        episodes: dict,
        session_start: int,
        cycle: int,
    ) -> None:
        """Map a detecting session onto the fault episodes it caught."""
        candidates = [
            index
            for index, outcome in sorted(outcomes.items())
            if outcome.detected_cycle is None
            and episodes[index].overlaps(session_start, cycle)
        ]
        matched: list[int] = []
        if self.diagnose and candidates:
            rung, _ = self.steps[0]
            diagnosis = diagnose_memory(rung.test, self.memory)
            report.diagnoses += 1
            report.diagnosis_ops += rung.test.op_count * self.memory.n_words
            suspects = diagnosis.suspect_cells()
            for index in candidates:
                fault = episodes[index].fault
                cells = {(c.addr, c.bit) for c in fault.cells}
                if cells & suspects:
                    matched.append(index)
                elif (
                    isinstance(fault, AddressDecoderFault)
                    and diagnosis.classification == "address-decoder"
                ):
                    matched.append(index)
            if matched:
                report.diagnoses_correct += 1
        targets = matched if matched else candidates
        attribution = "suspects" if matched else "window"
        if not targets:
            # Signature mismatch with no live episode in the session
            # window (e.g. the residue of a withdrawn transient that
            # flipped content between the two phases).
            report.spurious_detections += 1
            return
        for index in targets:
            outcomes[index].detected_cycle = cycle
            outcomes[index].attribution = attribution
