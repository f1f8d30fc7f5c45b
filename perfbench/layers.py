"""Per-layer tracing from the benchmark's own files.

Nothing here patches a private name.  Campaign workloads trace through
:class:`TracedEngine`, a delegating :class:`repro.engine.Engine` handed
to ``run_campaign`` / ``CampaignRunner`` through their public
``engine=`` parameter.  The soak workload traces through
:func:`traced_soak_names`, which swaps the public ``SessionStepper`` and
``diagnose_memory`` names that :mod:`repro.soak.scheduler` imports for
timed wrappers and restores them on exit, plus a timed wrapper around
the workload callable the benchmark itself hands to
``SoakScheduler.run``.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

import repro.soak.scheduler as soak_scheduler
from repro.bist.scheduler import SessionStepper
from repro.engine import Engine


class LayerTrace:
    """Seconds, work counts and calls accumulated per layer name."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)

    def add(self, name: str, seconds: float, count: int = 0) -> None:
        self.seconds[name] += seconds
        self.counts[name] += count
        self.calls[name] += 1

    @contextmanager
    def span(self, name: str, count: int = 0):
        started = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - started, count)


class TracedEngine(Engine):
    """Delegates to *inner* and times every context build and class
    kernel call into *trace*.

    Kernel spans are keyed ``engine.kernel.<oracle>.<class>``; the class
    label comes from *labels*, which maps ``id()`` of each universe
    class sequence to its name (streaming classes reach the engine
    unchanged, so identity names them).
    """

    def __init__(self, inner: Engine, labels: dict[int, str], trace: LayerTrace):
        self.inner = inner
        self.name = f"traced-{inner.name}"
        self.labels = labels
        self.trace = trace

    def run(self, *args, **kwargs):
        return self.inner.run(*args, **kwargs)

    def build_compare_context(self, *args, **kwargs):
        with self.trace.span("engine.context.build", 1):
            return self.inner.build_compare_context(*args, **kwargs)

    def build_session_context(self, *args, **kwargs):
        with self.trace.span("engine.context.build", 1):
            return self.inner.build_session_context(*args, **kwargs)

    def _kernel(self, oracle: str, method, faults, args, kwargs):
        label = self.labels.get(id(faults), type(faults).__name__)
        with self.trace.span(f"engine.kernel.{oracle}.{label}", len(faults)):
            return method(*args, **kwargs)

    def detect_class_batch(self, test, n_words, width, words, faults, **kwargs):
        return self._kernel(
            "compare",
            self.inner.detect_class_batch,
            faults,
            (test, n_words, width, words, faults),
            kwargs,
        )

    def detect_class_signature_batch(
        self, test, prediction, n_words, width, words, faults, **kwargs
    ):
        return self._kernel(
            "signature",
            self.inner.detect_class_signature_batch,
            faults,
            (test, prediction, n_words, width, words, faults),
            kwargs,
        )

    def detect_class_aliasing_batch(
        self, test, prediction, n_words, width, words, faults, **kwargs
    ):
        return self._kernel(
            "aliasing",
            self.inner.detect_class_aliasing_batch,
            faults,
            (test, prediction, n_words, width, words, faults),
            kwargs,
        )


def timed_workload(workload, trace: LayerTrace):
    """The workload callable, timing every call as ``soak.workload``."""

    def call(cycle, rng):
        started = time.perf_counter()
        event = workload(cycle, rng)
        trace.add("soak.workload", time.perf_counter() - started, 1)
        return event

    return call


@contextmanager
def traced_soak_names(trace: LayerTrace):
    """Swap the scheduler's ``SessionStepper`` / ``diagnose_memory``
    names for timed wrappers for the duration of the block."""
    diagnose = soak_scheduler.diagnose_memory

    class TimedStepper(SessionStepper):
        def __init__(self, *args, **kwargs):
            started = time.perf_counter()
            super().__init__(*args, **kwargs)
            trace.add("bist.session_step", time.perf_counter() - started)

        def step(self, max_ops):
            started = time.perf_counter()
            done = super().step(max_ops)
            trace.add("bist.session_step", time.perf_counter() - started, done)
            return done

    def timed_diagnose(*args, **kwargs):
        with trace.span("soak.diagnosis", 1):
            return diagnose(*args, **kwargs)

    saved = soak_scheduler.SessionStepper, soak_scheduler.diagnose_memory
    soak_scheduler.SessionStepper = TimedStepper
    soak_scheduler.diagnose_memory = timed_diagnose
    try:
        yield
    finally:
        soak_scheduler.SessionStepper, soak_scheduler.diagnose_memory = saved
