"""Tests for the online (idle-time) test scheduler."""

import random

import pytest

from repro.bist.misr import Misr
from repro.bist.scheduler import (
    OnlineTestScheduler,
    SessionStepper,
    random_workload,
)
from repro.core.notation import parse_march
from repro.core.signature import prediction_test
from repro.core.transparent import to_transparent
from repro.core.twm import twm_transform
from repro.library import catalog
from repro.memory.faults import (
    AddressDecoderFault,
    Cell,
    ReadDisturbFault,
    StateCouplingFault,
    StuckAtFault,
)
from repro.memory.injection import FaultyMemory
from repro.memory.model import Memory
from repro.memory.traces import AccessEvent


def make_scheduler(memory, name="March C-", width=8, **kwargs):
    result = twm_transform(catalog.get(name), width)
    return OnlineTestScheduler(
        memory, result.twmarch, result.prediction, **kwargs
    )


def idle_workload(cycle, rng):
    return None


class TestIdleOnlyOperation:
    def test_sessions_complete_and_stay_silent(self):
        memory = Memory(4, 8)
        memory.randomize(random.Random(0))
        sched = make_scheduler(memory, ops_per_idle_cycle=8)
        cycles = sched.session_ops * 3 // 8 + 10
        report = sched.run(idle_workload, cycles)
        assert report.sessions_completed >= 2
        assert report.detections == []
        assert report.sessions_aborted == 0
        assert report.idle_cycles == cycles

    def test_memory_unchanged_after_sessions(self):
        memory = Memory(4, 8)
        memory.randomize(random.Random(1))
        before = memory.snapshot()
        sched = make_scheduler(memory, ops_per_idle_cycle=16)
        sched.run(idle_workload, sched.session_ops)
        assert memory.snapshot() == before

    def test_session_ops_accounting(self):
        memory = Memory(4, 8)
        result = twm_transform(catalog.get("March C-"), 8)
        sched = OnlineTestScheduler(memory, result.twmarch, result.prediction)
        assert sched.session_ops == (result.tcm + result.tcp) * 4


class TestWorkloadInterference:
    def test_system_write_aborts_session(self):
        memory = Memory(4, 8)
        sched = make_scheduler(memory, ops_per_idle_cycle=1)

        def mostly_idle_with_one_write(cycle, rng):
            if cycle == 5:
                return AccessEvent("w", 0, 0xAA)
            return None

        report = sched.run(mostly_idle_with_one_write, 10)
        assert report.sessions_aborted == 1

    def test_system_read_does_not_abort(self):
        memory = Memory(4, 8)
        sched = make_scheduler(memory, ops_per_idle_cycle=1)

        def reads_only(cycle, rng):
            return AccessEvent("r", 1, 0) if cycle % 3 == 0 else None

        report = sched.run(reads_only, 30)
        assert report.sessions_aborted == 0

    def test_busy_system_starves_testing(self):
        memory = Memory(4, 8)
        sched = make_scheduler(memory)

        def always_busy(cycle, rng):
            return AccessEvent("r", 0, 0)

        report = sched.run(always_busy, 50)
        assert report.sessions_completed == 0
        assert report.idle_cycles == 0

    def test_random_workload_mix(self):
        memory = Memory(2, 8)
        memory.randomize(random.Random(2))
        sched = make_scheduler(memory, ops_per_idle_cycle=8)
        workload = random_workload(2, 8, idle_fraction=0.9, write_fraction=0.05)
        report = sched.run(workload, 4000)
        assert report.sessions_completed > 0
        # No fault injected: completed sessions must not fire.
        assert report.detections == []

    def test_shorter_tests_interfere_less(self):
        # The paper's motivation: a shorter transparent test has a higher
        # chance of fitting between system writes.  Compare TWM against
        # the much longer Scheme 1 test under the same hostile workload.
        from repro.baselines.scheme1 import scheme1_transform

        completed = {}
        for label, factory in {
            "twm": lambda: twm_transform(catalog.get("March C-"), 32),
            "s1": lambda: scheme1_transform(catalog.get("March C-"), 32),
        }.items():
            result = factory()
            memory = Memory(2, 32)
            memory.randomize(random.Random(5))
            sched = OnlineTestScheduler(
                memory,
                result.twmarch if label == "twm" else result.transparent,
                result.prediction,
                ops_per_idle_cycle=4,
                rng=random.Random(9),
            )
            workload = random_workload(2, 32, idle_fraction=0.9, write_fraction=0.1)
            completed[label] = sched.run(workload, 6000).sessions_completed
        assert completed["twm"] >= completed["s1"]
        assert completed["twm"] > 0


class TestFaultDetection:
    def test_detection_latency_measured(self):
        memory = FaultyMemory(4, 8)
        memory.randomize(random.Random(3))
        sched = make_scheduler(memory, ops_per_idle_cycle=8)
        inject_cycle = sched.session_ops // 8 // 2

        def inject(mem):
            mem.inject(StuckAtFault(Cell(2, 3), 1))

        cycles = sched.session_ops * 4
        report = sched.run(idle_workload, cycles, fault_at=(inject_cycle, inject))
        assert report.fault_cycle == inject_cycle
        assert report.detections, "fault never detected"
        assert report.detection_latency is not None
        assert report.detection_latency >= 0

    def test_latency_none_when_no_fault(self):
        memory = Memory(4, 8)
        sched = make_scheduler(memory, ops_per_idle_cycle=4)
        report = sched.run(idle_workload, 100)
        assert report.detection_latency is None

    def test_more_idle_time_means_lower_latency(self):
        latencies = {}
        for ops_per_cycle in (1, 8):
            memory = FaultyMemory(4, 8)
            memory.randomize(random.Random(4))
            sched = make_scheduler(memory, ops_per_idle_cycle=ops_per_cycle)

            def inject(mem):
                mem.inject(StuckAtFault(Cell(1, 1), 0))

            report = sched.run(
                idle_workload,
                sched.session_ops * 6,
                fault_at=(3, inject),
            )
            latencies[ops_per_cycle] = report.detection_latency
        assert latencies[8] is not None
        assert latencies[1] is None or latencies[8] <= latencies[1]


class TestSessionEdgeCases:
    def test_abort_lands_mid_prediction_phase(self):
        memory = Memory(4, 8)
        memory.randomize(random.Random(7))
        sched = make_scheduler(memory, ops_per_idle_cycle=1)
        seen_phases = []

        def write_during_prediction(cycle, rng):
            session = sched._session
            if session is not None and session.phase == "prediction":
                seen_phases.append(session.phase)
                return AccessEvent("w", 1, 0x55)
            return None

        report = sched.run(write_during_prediction, 6)
        assert seen_phases and all(p == "prediction" for p in seen_phases)
        assert report.sessions_aborted == len(seen_phases)
        assert report.sessions_completed == 0

    def test_zero_idle_period_never_starts_a_session(self):
        memory = Memory(4, 8)
        memory.randomize(random.Random(8))
        sched = make_scheduler(memory)

        def write_storm(cycle, rng):
            return AccessEvent("w", cycle % 4, cycle & 0xFF)

        report = sched.run(write_storm, 64)
        assert report.idle_cycles == 0
        assert report.sessions_completed == 0
        # A write with no session in flight has nothing to abort.
        assert report.sessions_aborted == 0

    def test_fault_at_cycle_zero_detected_by_first_session(self):
        memory = FaultyMemory(4, 8)
        memory.randomize(random.Random(9))
        sched = make_scheduler(memory, ops_per_idle_cycle=8)

        def inject(mem):
            mem.inject(StuckAtFault(Cell(0, 0), 1))

        report = sched.run(
            idle_workload, sched.session_ops, fault_at=(0, inject)
        )
        assert report.fault_cycle == 0
        assert report.sessions_completed >= 1
        assert report.detections
        assert report.detection_latency == report.detections[0]

    def test_back_to_back_sessions_use_fresh_misrs(self):
        memory = FaultyMemory(4, 8)
        memory.randomize(random.Random(10))
        sched = make_scheduler(memory, ops_per_idle_cycle=16)

        def inject(mem):
            mem.inject(StuckAtFault(Cell(3, 2), 0))

        report = sched.run(
            idle_workload, sched.session_ops, fault_at=(0, inject)
        )
        assert report.sessions_completed >= 2
        # Every session seeds a fresh MISR pair: each one must detect the
        # persistent fault on its own, with no signature state carried
        # over from the session before it.
        assert len(report.detections) == report.sessions_completed
        assert report.detections == sorted(report.detections)


class GeneratorStepper:
    """Oracle: the session stepper as a per-op generator, resumed once
    per operation, as the scheduler ran it before the flat schedule."""

    def __init__(self, memory, test, prediction, misr_width, *, track_stream=False):
        self.memory = memory
        self.predict_misr = Misr(misr_width)
        self.test_misr = Misr(misr_width)
        self.phase = "prediction"
        self.track_stream = track_stream
        self.stream_mismatches = 0
        self._expected = []
        self._cursor = 0
        self._ops = self._session(test, prediction)
        self.finished = False
        self.detected = False

    def _phase(self, test, predicting):
        width = self.memory.width
        for element in test.elements:
            resolved = [(op, op.data.mask.resolve(width)) for op in element.ops]
            for addr in element.order.addresses(self.memory.n_words):
                last_raw = last_mask = None
                for op, mask_value in resolved:
                    if op.is_read:
                        raw = self.memory.read(addr)
                        if predicting:
                            self.predict_misr.absorb(raw ^ mask_value)
                            if self.track_stream:
                                self._expected.append(raw ^ mask_value)
                        else:
                            self.test_misr.absorb(raw)
                            if self.track_stream:
                                if (
                                    self._cursor >= len(self._expected)
                                    or self._expected[self._cursor] != raw
                                ):
                                    self.stream_mismatches += 1
                                self._cursor += 1
                        last_raw, last_mask = raw, mask_value
                    else:
                        if op.is_relative:
                            value = last_raw ^ last_mask ^ mask_value
                        else:
                            value = mask_value
                        self.memory.write(addr, value)
                    yield None

    def _session(self, test, prediction):
        yield from self._phase(prediction, predicting=True)
        self.phase = "test"
        yield from self._phase(test, predicting=False)

    def step(self, max_ops):
        done = 0
        for _ in range(max_ops):
            try:
                next(self._ops)
            except StopIteration:
                self.finished = True
                self.phase = "done"
                self.detected = (
                    self.predict_misr.signature != self.test_misr.signature
                )
                self._expected.clear()
                break
            done += 1
        return done


def session_pairs(width):
    """(test, prediction) pairs: March C- and MATS+ in transparent form
    (TWM at power-of-two widths, the bit-level transform otherwise) and
    a hand-written test with absolute ops that is its own prediction."""
    pairs = []
    for name in ("March C-", "MATS+"):
        if width & (width - 1) == 0:
            result = twm_transform(catalog.get(name), width)
            pairs.append((result.twmarch, result.prediction))
        else:
            test = to_transparent(catalog.get(name)).transparent
            pairs.append((test, prediction_test(test)))
    own = parse_march("⇑(rc,w~c,r~c,wc);⇕(w0,r0,w1);⇓(r1,wc)", name="own")
    pairs.append((own, own))
    return pairs


FAULT_SETS = {
    "none": [],
    "SAF": [StuckAtFault(Cell(1, 0), 1)],
    "CFst": [StateCouplingFault(Cell(0, 0), Cell(3, 0), 1, 0)],
    "RDF": [
        ReadDisturbFault(Cell(2, 0), deceptive=False),
        ReadDisturbFault(Cell(4, 0), deceptive=True),
    ],
    "AF": [
        AddressDecoderFault(1, "other", 3),
        AddressDecoderFault(4, "multi", 0, wired_or=True),
    ],
    "mixed": [
        StuckAtFault(Cell(2, 0), 0),
        StateCouplingFault(Cell(4, 0), Cell(1, 0), 0, 1),
        ReadDisturbFault(Cell(3, 0), deceptive=True),
        AddressDecoderFault(0, "none", float_value=1),
    ],
}


def call_sizes(pattern, total):
    """The ``max_ops`` sequence of one stepping pattern."""
    if pattern == "exact":
        # Exactly consume the rest: the session finishes one call late.
        yield 3
        yield total - 3
        while True:
            yield 1
    while True:
        yield total + 5 if pattern == "overshoot" else pattern


def stepper_state(stepper):
    return (
        stepper.phase,
        stepper.finished,
        stepper.detected,
        stepper.stream_mismatches,
        stepper.predict_misr.state,
        stepper.predict_misr.absorbed,
        stepper.test_misr.state,
        stepper.test_misr.absorbed,
        stepper.memory.snapshot(),
    )


class TestSessionStepperEquivalence:
    """The flat-schedule stepper against the generator oracle, after
    every ``step`` call."""

    @pytest.mark.parametrize("width", [1, 8, 33])
    @pytest.mark.parametrize("misr_width", [1, 16])
    @pytest.mark.parametrize("faults", sorted(FAULT_SETS))
    def test_matches_generator_after_every_step(self, width, misr_width, faults):
        n_words = 5
        for index, (test, prediction) in enumerate(session_pairs(width)):
            total = (prediction.op_count + test.op_count) * n_words
            content = random.Random(index).getrandbits(width * n_words)
            words = [(content >> (width * a)) % (1 << width) for a in range(n_words)]
            for pattern in (1, 7, 8, "exact", "overshoot"):
                steppers = []
                for cls in (SessionStepper, GeneratorStepper):
                    memory = FaultyMemory(n_words, width, FAULT_SETS[faults])
                    memory.load(words)
                    steppers.append(
                        cls(memory, test, prediction, misr_width, track_stream=True)
                    )
                fast, oracle = steppers
                calls = 0
                for max_ops in call_sizes(pattern, total):
                    assert fast.step(max_ops) == oracle.step(max_ops)
                    assert stepper_state(fast) == stepper_state(oracle)
                    calls += 1
                    if oracle.finished:
                        break
                if pattern == "exact":
                    assert calls == 3  # 3 ops, the rest, then the finish
                assert fast._expected == []

    def test_phase_turns_test_only_after_first_test_op(self):
        result = twm_transform(catalog.get("MATS+"), 8)
        memory = Memory(4, 8)
        split = result.prediction.op_count * 4
        stepper = SessionStepper(memory, result.twmarch, result.prediction, 16)
        assert stepper.step(split) == split
        assert stepper.phase == "prediction"
        assert stepper.step(1) == 1
        assert stepper.phase == "test"

    def test_relative_write_needs_a_read_in_its_element(self):
        test = parse_march("⇑(rc);⇑(w~c,rc)", name="blind")
        with pytest.raises(ValueError, match="relative write before any read"):
            SessionStepper(Memory(2, 4), test, test, 4)

    def test_untracked_stream_keeps_no_buffer(self):
        result = twm_transform(catalog.get("March C-"), 8)
        memory = FaultyMemory(4, 8, [StuckAtFault(Cell(0, 0), 1)])
        memory.randomize(random.Random(3))
        stepper = SessionStepper(memory, result.twmarch, result.prediction, 16)
        while not stepper.finished:
            stepper.step(5)
        assert stepper.detected
        assert stepper.stream_mismatches == 0 and stepper._expected == []


class TestWorkloadFactory:
    def test_idle_fraction_bounds(self):
        with pytest.raises(ValueError):
            random_workload(4, 8, idle_fraction=1.5)
        with pytest.raises(ValueError):
            random_workload(4, 8, write_fraction=-0.1)

    def test_workload_event_shape(self):
        workload = random_workload(4, 8, idle_fraction=0.0, write_fraction=1.0)
        event = workload(0, random.Random(0))
        assert event is not None
        assert event.kind == "w"
        assert 0 <= event.addr < 4
        assert 0 <= event.value < 256

    def test_rejects_solid_test(self):
        with pytest.raises(ValueError):
            OnlineTestScheduler(Memory(4, 8), catalog.get("March C-"))
