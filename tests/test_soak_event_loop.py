"""The soak scheduler's event loop against a per-cycle, per-op model.

``PerCycleScheduler.run`` is the scheduler's per-cycle loop as it stood
before the event loop: one workload call and one ``step(ops)`` per
cycle.  ``ModelStepper._run`` sends every session op through
``memory.read`` / ``memory.write``.  The event loop (block-parsed LFSR
traffic, skipped no-op reads, one ``step`` per idle run, direct-storage
session ops) must give the model's report, final memory content and
access counters on every scenario.
"""

import hashlib
import json
import random

import pytest

from repro.bist.scheduler import (
    _READ,
    _WRITE,
    SessionStepper,
    random_workload,
)
from repro.core.twm import twm_transform
from repro.library import catalog
from repro.memory.faults import (
    AddressDecoderFault,
    Cell,
    IdempotentCouplingFault,
    InversionCouplingFault,
    ReadDisturbFault,
    StateCouplingFault,
    StuckAtFault,
    TransitionFault,
)
from repro.memory.injection import FaultyMemory
from repro.soak import ArrivalSpec, FaultTimeline, LfsrWorkload, scenario_matrix
from repro.soak.arrivals import FaultEpisode
from repro.soak.scenario import run_scenario
from repro.soak.scheduler import (
    EpisodeOutcome,
    SoakReport,
    SoakSchedule,
    SoakScheduler,
    TestRung as SoakRung,
)


class ModelStepper(SessionStepper):
    """Every session op through ``memory.read`` / ``memory.write``."""

    def _run(self, misr, lo, hi, *, predicting):
        schedule = self._schedule
        addrs, kinds, masks = schedule.addrs, schedule.kinds, schedule.masks
        read, write = self.memory.read, self.memory.write
        track = self.track_stream
        expected = self._expected
        checked = self._checked
        raw = self._raw
        state, taps, mask, shift = misr.state, misr.taps, misr.mask, misr.width
        wide = self.memory.width > shift
        reads = 0
        for index in range(lo, hi):
            kind = kinds[index]
            if kind == _READ:
                value = raw = read(addrs[index])
                if predicting:
                    value ^= masks[index]
                    if track:
                        expected.append(value)
                elif track:
                    if checked >= len(expected) or expected[checked] != raw:
                        self.stream_mismatches += 1
                    checked += 1
                if wide:
                    folded = value & mask
                    value >>= shift
                    while value:
                        folded ^= value & mask
                        value >>= shift
                    value = folded
                state = (
                    ((state << 1) & mask) | ((state & taps).bit_count() & 1)
                ) ^ value
                reads += 1
            elif kind == _WRITE:
                write(addrs[index], masks[index])
            else:
                write(addrs[index], raw ^ masks[index])
        misr.state = state
        misr.absorbed += reads
        self._checked = checked
        self._raw = raw


class PerCycleScheduler(SoakScheduler):
    """One Python iteration, one workload call and at most one
    ``step(ops)`` per simulated cycle."""

    def run(self, workload, cycles):
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
        injected: set[int] = set()

        step = 0
        session = None
        session_start = 0
        completed_this_period = 0
        starved_streak = healthy_streak = 0
        budget_left = self.schedule.budget
        period_start = 0
        period_end = self.schedule.period * self.steps[0][1]

        for cycle in range(cycles):
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
                    if session is not None:
                        # The in-flight session belongs to the old
                        # rung; restart on the new one.
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
                period_start = cycle
                period_end = period_start + (
                    self.schedule.period * self.steps[step][1]
                )

            # -- fault weather: episodes toggling in and out ----------
            for index, active in events.get(cycle, ()):
                if active and index not in injected:
                    self.memory.inject(episodes[index].fault)
                    injected.add(index)
                elif not active and index in injected:
                    self.memory.remove(episodes[index].fault)
                    injected.discard(index)

            # -- workload owns the memory this cycle? -----------------
            access = workload(cycle, self.rng)
            if access is not None:
                if access.kind == "w":
                    self.memory.write(access.addr, access.value)
                    report.busy_writes += 1
                    if session is not None:
                        report.sessions_aborted += 1
                        if session.phase == "prediction":
                            report.aborted_in_prediction += 1
                        else:
                            report.aborted_in_test += 1
                        session = None
                else:
                    self.memory.read(access.addr)
                    report.busy_reads += 1
                continue

            # -- idle: advance (or launch) the periodic session -------
            report.idle_cycles += 1
            if session is None:
                if completed_this_period > 0:
                    continue  # this period's test already ran
                if budget_left is not None and budget_left <= 0:
                    continue  # budget starved: wait for the next period
                rung, _ = self.steps[step]
                session = ModelStepper(
                    self.memory,
                    rung.test,
                    rung.prediction,
                    self.misr_width,
                    track_stream=True,
                )
                session_start = cycle
            ops = self.schedule.ops_per_idle_cycle
            if budget_left is not None:
                ops = min(ops, budget_left)
                if ops == 0:
                    continue
            done = session.step(ops)
            report.bist_ops += done
            if budget_left is not None:
                budget_left -= done
            if session.finished:
                report.sessions_completed += 1
                completed_this_period += 1
                if session.stream_detected and not session.detected:
                    report.aliasing_escapes += 1
                if session.detected:
                    report.sessions_detecting += 1
                    self._attribute_detection(
                        report, outcomes, episodes, session_start, cycle
                    )
                session = None

        report.final_step = self.step_label(*self.steps[step])
        report.episodes = [outcomes[i] for i in sorted(outcomes)]
        return report


def rung(name, width):
    result = twm_transform(catalog.get(name), width)
    return SoakRung(name, result.twmarch, result.prediction)


def random_fault(rng, n_words, width, kinds):
    """One fault with its cells in the first three words, so faults
    overlap and CFst faults chain (one's victim is another's aggressor),
    while the other words stay fault-free."""

    def cell():
        return Cell(rng.randrange(3), rng.randrange(width))

    def cell_pair():
        aggressor = cell()
        victim = Cell((aggressor.addr + rng.randrange(1, 3)) % 3, rng.randrange(width))
        return aggressor, victim

    kind = rng.choice(kinds)
    if kind == "SAF":
        return StuckAtFault(cell(), rng.randrange(2))
    if kind == "TF":
        return TransitionFault(cell(), rising=rng.random() < 0.5)
    if kind == "RDF":
        return ReadDisturbFault(cell(), deceptive=rng.random() < 0.5)
    if kind == "CFst":
        return StateCouplingFault(*cell_pair(), rng.randrange(2), rng.randrange(2))
    if kind == "CFid":
        return IdempotentCouplingFault(*cell_pair(), rng.random() < 0.5, rng.randrange(2))
    if kind == "CFin":
        return InversionCouplingFault(*cell_pair(), rng.random() < 0.5)
    addr = rng.randrange(n_words)
    if kind == "AF-none":
        return AddressDecoderFault(addr, "none", float_value=rng.randrange(1 << width))
    other = (addr + rng.randrange(1, n_words)) % n_words
    return AddressDecoderFault(addr, kind[3:], other, wired_or=rng.random() < 0.5)


KINDS = ("SAF", "TF", "RDF", "CFst", "CFid", "CFin", "AF-none", "AF-other", "AF-multi")
# Removals and CFst chains leave the memory unsettled.
UNSETTLED_KINDS = 3 * ("CFst", "SAF") + ("RDF", "AF-other")


def chain_faults(rng, width):
    """Faults that keep the memory unsettled: a CFst chain ``a -> b ->
    c`` listed tail first, so one pass of the static conditions forces
    ``b`` but not yet ``c``; or a stuck-at cell that a CFst overrides
    (its removal leaves the forced value until the next write)."""
    a, b, c = (Cell(addr, rng.randrange(width)) for addr in rng.sample(range(3), 3))
    if rng.random() < 0.5:
        return [
            StateCouplingFault(b, c, 1, rng.randrange(2)),
            StateCouplingFault(a, b, rng.randrange(2), 1),
        ]
    value = rng.randrange(2)
    return [StuckAtFault(c, value), StateCouplingFault(a, c, rng.randrange(2), 1 - value)]


def random_timeline(rng, n_words, width, cycles):
    kinds = rng.choice((KINDS, UNSETTLED_KINDS))
    faults = [random_fault(rng, n_words, width, kinds) for _ in range(rng.randrange(0, 9))]
    if rng.random() < 0.5:
        faults += chain_faults(rng, width)
    starts = sorted(rng.randrange(cycles) for _ in faults)
    episodes = []
    for index, (start, fault) in enumerate(zip(starts, faults)):
        flavor = rng.choice(("permanent", "transient", "intermittent"))
        end = None if flavor == "permanent" else start + rng.randrange(1, cycles)
        duty_on = rng.randrange(1, 200) if flavor == "intermittent" else 0
        duty_off = rng.randrange(0, 300) if flavor == "intermittent" else 0
        episodes.append(FaultEpisode(index, flavor, fault, start, end, duty_on, duty_off))
    return FaultTimeline(tuple(episodes))


def random_scenario(seed):
    """Scheduler arguments plus a workload factory for one scenario."""
    rng = random.Random(seed)
    width = rng.choice((1, 2, 8))
    n_words = rng.randrange(4, 9)
    cycles = rng.randrange(500, 3000)
    primary = rung("March C-", width)
    fallback = rung("MATS+", width) if rng.random() < 0.5 else None
    session_ops = (primary.test.op_count + primary.prediction.op_count) * n_words
    budget = rng.choice((None, rng.randrange(1, 6), session_ops, rng.randrange(20, 400)))
    schedule = SoakSchedule(
        period=rng.randrange(20, 400),
        ops_per_idle_cycle=rng.choice((1, 3, 8)),
        budget=budget,
        max_widen=rng.choice((1, 2, 4)),
        starvation_window=rng.randrange(1, 4),
        recovery_window=rng.randrange(1, 5),
    )
    if width >= 2 and rng.random() < 0.3:
        spec = ArrivalSpec(
            rate=rng.choice((8.0, 40.0)),
            mix=(0.2, 0.4, 0.4),
            transient_mean=rng.choice((50.0, 500.0)),
            intermittent_mean=500.0,
            duty_on=rng.randrange(1, 100),
            duty_off=rng.randrange(0, 100),
            classes=("AF", "CFst-inter", "RDF", "SAF"),
        )
        timeline = FaultTimeline.generate(spec, n_words, width, cycles, seed)
    else:
        timeline = random_timeline(rng, n_words, width, cycles)
    idle = rng.choice((0, 1000, rng.randrange(300, 950)))
    writes = rng.choice((0, 1000, rng.randrange(0, 300)))
    if rng.random() < 0.25:
        idle_fraction, write_fraction = idle / 1000, writes / 1000

        def workload():
            return random_workload(
                n_words, width, idle_fraction=idle_fraction, write_fraction=write_fraction
            )
    else:
        lfsr_seed = rng.getrandbits(32)

        def workload():
            return LfsrWorkload(
                n_words, width, idle_permille=idle, write_permille=writes, seed=lfsr_seed
            )

    content = [rng.randrange(1 << width) for _ in range(n_words)]
    kwargs = dict(
        misr_width=rng.choice((1, 4, 16)),
        diagnose=rng.random() < 0.7,
        scenario_name=f"oracle-{seed}",
    )
    return n_words, width, content, (primary, fallback, schedule, timeline), kwargs, workload, cycles


def run_both(seed):
    n_words, width, content, args, kwargs, workload, cycles = random_scenario(seed)
    results = []
    for cls in (PerCycleScheduler, SoakScheduler):
        memory = FaultyMemory(n_words, width)
        memory.load(content)
        scheduler = cls(memory, *args, rng=random.Random(seed), **kwargs)
        report = scheduler.run(workload(), cycles)
        results.append(
            (report.as_dict(), memory.snapshot(), memory.read_count, memory.write_count)
        )
    return results


@pytest.mark.parametrize("block", range(8))
def test_event_loop_matches_per_cycle_model(block):
    sessions = detections = 0
    for seed in range(block * 25, (block + 1) * 25):
        model, fast = run_both(seed)
        assert fast == model, f"scenario seed {seed}"
        sessions += model[0]["sessions_completed"]
        detections += model[0]["sessions_detecting"]
    # The scenarios reach completed and detecting sessions.
    assert sessions and detections


def stepper_state(stepper):
    memory = stepper.memory
    return (
        stepper.phase,
        stepper.finished,
        stepper.detected,
        stepper.stream_mismatches,
        stepper.predict_misr.state,
        stepper.test_misr.state,
        memory.snapshot(),
        memory.read_count,
        memory.write_count,
    )


def test_direct_storage_stepper_on_unsettled_memory():
    """Chained CFst faults, and a withdrawn CFst that overrode a
    stuck-at cell, leave the memory unsettled: a write to any word must
    then re-establish the static conditions."""
    differing = 0
    for seed in range(300):
        rng = random.Random(seed)
        width, n_words = rng.choice((1, 2, 8)), rng.randrange(4, 9)
        faults = chain_faults(rng, width)
        withdraw = rng.random() < 0.5
        content = [rng.randrange(1 << width) for _ in range(n_words)]
        pair = rung(rng.choice(("March C-", "MATS+")), width)
        steppers = []
        for cls in (ModelStepper, SessionStepper):
            memory = FaultyMemory(n_words, width, faults)
            memory.load(content)
            if withdraw:
                memory.remove(faults[-1])
            steppers.append(cls(memory, pair.test, pair.prediction, 4, track_stream=True))
        model, fast = steppers
        while not model.finished:
            max_ops = rng.randrange(1, 12)
            assert fast.step(max_ops) == model.step(max_ops)
            assert stepper_state(fast) == stepper_state(model), f"seed {seed}"
        # The static conditions change what the session reads.
        differing += model.stream_mismatches > 0
    assert differing


class TestLfsrBlocks:
    @pytest.mark.parametrize("width", [1, 8, 33, 64])
    @pytest.mark.parametrize("cycles", [0, 1, 4000])
    @pytest.mark.parametrize("lfsr_width", [8, 32, 64])
    def test_block_matches_per_cycle_calls(self, width, cycles, lfsr_width):
        for idle, writes in ((700, 250), (0, 1000), (1000, 0), (300, 0)):
            kwargs = dict(idle_permille=idle, write_permille=writes, seed=width + cycles, lfsr_width=lfsr_width)
            block = LfsrWorkload(37, width, **kwargs)
            calls = LfsrWorkload(37, width, **kwargs)
            expected = [
                (cycle, event.kind, event.addr, event.value)
                for cycle in range(cycles)
                if (event := calls(cycle)) is not None
            ]
            assert block.events(cycles) == expected
            assert block.state == calls.state
            # A second block continues the same stream.
            assert block.events(50) == [
                (cycle, event.kind, event.addr, event.value)
                for cycle in range(50)
                if (event := calls(cycle)) is not None
            ]
            assert block.state == calls.state


# perfbench's soak matrix at seeds 1 and 7 (sha256 of the reports'
# compact sorted-key JSON, first 16 hex digits), recorded with the
# per-cycle scheduler.
MATRIX_DIGESTS = {1: "11fbe0d1f68a87e0", 7: "1b0166d6f7004200"}


@pytest.mark.parametrize("seed", sorted(MATRIX_DIGESTS))
def test_perfbench_matrix_reports_are_unchanged(seed):
    matrix = scenario_matrix(
        tests=("March C-",),
        geometries=((64, 8), (16, 8)),
        rates=(2.0, 4.0),
        mixes=("mixed", "permanent"),
        cycles=20_000,
        seed=seed,
    )
    reports = [run_scenario(scenario).as_dict() for scenario in matrix]
    text = json.dumps(reports, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == MATRIX_DIGESTS[seed]
