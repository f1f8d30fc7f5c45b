"""Periodic transparent testing in system idle time.

Transparent tests run non-concurrently: the BIST borrows the memory
during idle cycles and must leave the content intact.  This module
models that life-time scenario as a cycle-based discrete-event
simulation:

* each cycle the *workload* either accesses the memory (busy) or leaves
  it idle; the BIST executes a bounded number of test operations per
  idle cycle;
* a system **write** during an active session invalidates the predicted
  signature (the content the prediction pass hashed has changed), so
  the session aborts and restarts — this is why the paper stresses that
  *shorter tests reduce the probability of interference*;
* permanent faults can be injected mid-simulation; the report records
  the detection latency (fault injection to first failing session).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from ..core.march import MarchTest
from ..core.signature import prediction_test
from ..memory.model import Memory
from ..memory.traces import AccessEvent
from .misr import Misr


@dataclass
class SchedulerReport:
    """Outcome of an online-testing simulation."""

    cycles: int = 0
    idle_cycles: int = 0
    sessions_completed: int = 0
    sessions_aborted: int = 0
    detections: list[int] = field(default_factory=list)
    fault_cycle: int | None = None

    @property
    def detection_latency(self) -> int | None:
        """Cycles from fault injection to the first detecting session."""
        if self.fault_cycle is None:
            return None
        later = [c for c in self.detections if c >= self.fault_cycle]
        return (later[0] - self.fault_cycle) if later else None


Workload = Callable[[int, random.Random], AccessEvent | None]


def random_workload(
    n_words: int,
    width: int,
    *,
    idle_fraction: float = 0.5,
    write_fraction: float = 0.3,
) -> Workload:
    """A memoryless workload: idle with probability *idle_fraction*,
    otherwise a uniformly random read or write."""
    if not 0.0 <= idle_fraction <= 1.0:
        raise ValueError("idle_fraction must be in [0, 1]")
    if not 0.0 <= write_fraction <= 1.0:
        raise ValueError("write_fraction must be in [0, 1]")

    def workload(cycle: int, rng: random.Random) -> AccessEvent | None:
        if rng.random() < idle_fraction:
            return None
        addr = rng.randrange(n_words)
        if rng.random() < write_fraction:
            return AccessEvent("w", addr, rng.randrange(1 << width))
        return AccessEvent("r", addr, 0)

    return workload


_READ, _WRITE, _WRITE_RELATIVE = 0, 1, 2


class _Schedule:
    """One session's flat op schedule: the prediction ops, then the
    test ops, as parallel lists indexed by op position.

    ``masks[i]`` is the resolved data mask of a read or an absolute
    write; for a relative write it is the mask of the element's last
    read XOR its own, so the written value is ``last_raw ^ masks[i]``.
    ``split`` is the number of prediction ops.
    """

    __slots__ = ("addrs", "kinds", "masks", "split", "total")

    def __init__(
        self, prediction: MarchTest, test: MarchTest, n_words: int, width: int
    ) -> None:
        self.addrs: list[int] = []
        self.kinds: list[int] = []
        self.masks: list[int] = []
        self._extend(prediction, n_words, width)
        self.split = len(self.addrs)
        self._extend(test, n_words, width)
        self.total = len(self.addrs)

    def _extend(self, test: MarchTest, n_words: int, width: int) -> None:
        for element in test.elements:
            resolved = []
            last_read = None
            for op in element.ops:
                mask = op.data.mask.resolve(width)
                if op.is_read:
                    resolved.append((_READ, mask))
                    last_read = mask
                elif not op.is_relative:
                    resolved.append((_WRITE, mask))
                elif last_read is None:
                    raise ValueError(
                        f"{test.name}: relative write before any read in its element"
                    )
                else:
                    resolved.append((_WRITE_RELATIVE, last_read ^ mask))
            for addr in element.order.addresses(n_words):
                for kind, mask in resolved:
                    self.addrs.append(addr)
                    self.kinds.append(kind)
                    self.masks.append(mask)


# Schedules keyed by the identity of the (prediction, test) pair plus the
# geometry.  Each entry holds its test objects, so an id cannot be reused
# while its entry lives; a launch costs one small-int tuple hash instead
# of hashing two march tests.  A soak run alternates between at most two
# rungs, so a handful of entries is enough; the cache is dropped when full.
_SCHEDULES: dict[tuple[int, int, int, int], tuple] = {}
_SCHEDULE_CACHE_SIZE = 4


def _session_schedule(
    test: MarchTest, prediction: MarchTest, n_words: int, width: int
) -> _Schedule:
    key = (id(prediction), id(test), n_words, width)
    entry = _SCHEDULES.get(key)
    if entry is None:
        if len(_SCHEDULES) >= _SCHEDULE_CACHE_SIZE:
            _SCHEDULES.clear()
        entry = _SCHEDULES[key] = (
            prediction,
            test,
            _Schedule(prediction, test, n_words, width),
        )
    return entry[2]


class SessionStepper:
    """Incremental two-phase BIST session (prediction then test).

    The session is a flat op schedule (the prediction pass, then the
    test pass), compiled once per (test pair, geometry) and walked by
    an index; :meth:`step` runs a plain loop over it with the MISR
    pair's shift, feedback and fold inlined.  Expected values and
    prediction corrections refer to the memory content at session
    start.  ``phase`` reports which phase the last operation belonged
    to (``"prediction"`` until the first test op has run, then
    ``"test"``, and ``"done"`` once finished), so a scheduler aborting
    on an interfering write can attribute the abort to the phase it
    hit.  A session finishes on the :meth:`step` call that tries to
    run past its last op: a call that exactly consumes the remaining
    ops leaves it unfinished until the next one.

    With ``track_stream=True`` the stepper also runs the alias-free
    checker next to the MISRs: the prediction phase's expected read
    stream is kept (bounded by one session, discarded at session end)
    and every test-phase read is compared against it on the fly, so a
    finished session reports ``stream_detected`` — the ground truth
    that exposes aliasing escapes (stream mismatch, signatures equal).
    """

    def __init__(
        self,
        memory: Memory,
        test: MarchTest,
        prediction: MarchTest,
        misr_width: int,
        *,
        track_stream: bool = False,
    ) -> None:
        self.memory = memory
        self.predict_misr = Misr(misr_width)
        self.test_misr = Misr(misr_width)
        self.phase = "prediction"
        self.track_stream = track_stream
        self.stream_mismatches = 0
        self.finished = False
        self.detected = False
        self._schedule = _session_schedule(
            test, prediction, memory.n_words, memory.width
        )
        self._next = 0  # schedule index of the next op
        self._raw = 0  # value of the last read (relative writes use it)
        self._expected: list[int] = []
        self._checked = 0  # test-phase reads compared so far

    @property
    def stream_detected(self) -> bool:
        """Whether the alias-free elementwise compare saw a mismatch
        (only meaningful with ``track_stream=True``)."""
        return self.stream_mismatches > 0

    def step(self, max_ops: int) -> int:
        """Execute up to *max_ops* operations; returns ops executed."""
        schedule = self._schedule
        start = self._next
        end = min(start + max_ops, schedule.total)
        split = schedule.split
        if start < min(end, split):
            self._run(self.predict_misr, start, min(end, split), predicting=True)
        if max(start, split) < end:
            self._run(self.test_misr, max(start, split), end, predicting=False)
            self.phase = "test"
        self._next = end
        done = end - start
        if done < max_ops:
            self.finished = True
            self.phase = "done"
            self.detected = self.predict_misr.signature != self.test_misr.signature
            self._expected.clear()
        return done

    def _run(self, misr: Misr, lo: int, hi: int, *, predicting: bool) -> None:
        """Execute schedule ops ``lo .. hi-1`` of one phase, absorbing
        its reads into *misr* (``Misr.absorb`` inlined)."""
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


class OnlineTestScheduler:
    """Schedules transparent BIST sessions into workload idle time."""

    def __init__(
        self,
        memory: Memory,
        test: MarchTest,
        prediction: MarchTest | None = None,
        *,
        misr_width: int = 16,
        ops_per_idle_cycle: int = 1,
        rng: random.Random | None = None,
    ) -> None:
        if not test.is_transparent_form:
            raise ValueError("online testing requires a transparent test")
        self.memory = memory
        self.test = test
        self.prediction = (
            prediction if prediction is not None else prediction_test(test)
        )
        self.misr_width = misr_width
        self.ops_per_idle_cycle = ops_per_idle_cycle
        self.rng = rng if rng is not None else random.Random(0)
        self._session: SessionStepper | None = None

    @property
    def session_ops(self) -> int:
        """Total BIST operations in one full session (TCP + TCM)."""
        return (self.prediction.op_count + self.test.op_count) * self.memory.n_words

    def run(
        self,
        workload: Workload,
        cycles: int,
        *,
        fault_at: tuple[int, Callable[[Memory], None]] | None = None,
    ) -> SchedulerReport:
        """Simulate *cycles* cycles of interleaved workload and testing.

        ``fault_at = (cycle, injector)`` calls ``injector(memory)`` at
        the given cycle (e.g. injecting a stuck-at into a
        :class:`~repro.memory.injection.FaultyMemory`).
        """
        report = SchedulerReport(cycles=cycles)
        for cycle in range(cycles):
            if fault_at is not None and cycle == fault_at[0]:
                fault_at[1](self.memory)
                report.fault_cycle = cycle

            access = workload(cycle, self.rng)
            if access is not None:
                # System owns the memory this cycle.
                if access.kind == "w":
                    self.memory.write(access.addr, access.value)
                    if self._session is not None:
                        # Content changed under the session: predicted
                        # signature is stale. Abort and retry later.
                        self._session = None
                        report.sessions_aborted += 1
                else:
                    self.memory.read(access.addr)
                continue

            report.idle_cycles += 1
            if self._session is None:
                self._session = SessionStepper(
                    self.memory, self.test, self.prediction, self.misr_width
                )
            self._session.step(self.ops_per_idle_cycle)
            if self._session.finished:
                report.sessions_completed += 1
                if self._session.detected:
                    report.detections.append(cycle)
                self._session = None
        return report
