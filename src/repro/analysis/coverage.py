"""Fault-simulation campaigns and coverage reporting.

A *flow* is a callable that, given a single fault, builds a fresh
faulty memory, runs a detection procedure, and reports whether the
fault was detected.  Campaigns sweep a fault universe (grouped by
class) through a flow and tabulate per-class coverage — the instrument
behind the paper's Section 5 coverage-equality theorem (benchmark E7).

Campaigns can be executed through a pluggable simulation engine
(``run_campaign(..., engine="batch")``): when the flow is a
structure-carrying :class:`CompareFlow`, :class:`SignatureFlow` or
:class:`AliasingFlow` — frozen values that are their own work units —
the whole per-class fault sweep is handed to the engine's packed class
oracle (:meth:`repro.engine.Engine.detect_class_batch` /
:meth:`~repro.engine.Engine.detect_class_signature_batch` /
:meth:`~repro.engine.Engine.detect_class_aliasing_batch`), which the
vectorized batch backend evaluates word-parallel instead of op-by-op.
With ``jobs=N`` the per-class sweeps are additionally sharded across
worker processes (:class:`repro.engine.CampaignRunner`) and merged
back deterministically — ``jobs=1`` and ``jobs=N`` produce
bit-identical reports.  Every engine is equivalence-tested to produce
bit-identical coverage vectors (see ``tests/test_engine.py``).

An :class:`AliasingFlow` campaign counts *pair verdicts*: each fault
reports ``(stream_detected, signature_detected)``, so the per-class
coverage additionally carries how many faults the ideal compare oracle
saw and how many of those *aliased* in the MISR (stream-detected but
signature-missed) — the Section 5 quantity of interest.  Verdicts are
normalized strictly: a bare callable flow must return real booleans,
and anything else (notably a tuple, which is always truthy) raises
``TypeError`` instead of silently counting as detected.
"""

from __future__ import annotations

import random
import time
from dataclasses import KW_ONLY, dataclass, field
from functools import cached_property
from typing import Callable, Sequence

from ..bist.controller import TransparentBist
from ..bist.executor import run_march
from ..core.march import MarchTest
from ..engine import (
    CampaignRunner,
    ContextStats,
    Engine,
    FaultPlan,
    FaultToleranceStats,
    PlaneVerdicts,
    RetryPolicy,
    get_engine,
)
from ..memory.faults import Fault
from ..memory.injection import FaultyMemory

Flow = Callable[[Fault], bool]
PairVerdict = tuple[bool, bool]


@dataclass(frozen=True)
class ClassCoverage:
    """Detection statistics for one fault class.

    ``detected`` counts the campaign's primary oracle (the signature
    verdict for a pair-verdict aliasing campaign).  Pair-verdict
    campaigns additionally fill ``stream_detected`` (faults the ideal
    alias-free compare oracle saw) and ``aliased`` (stream-detected but
    signature-missed); both stay ``None`` for single-verdict flows.
    """

    name: str
    total: int
    detected: int
    stream_detected: int | None = None
    aliased: int | None = None

    @property
    def missed(self) -> int:
        return self.total - self.detected

    @property
    def percent(self) -> float:
        return 100.0 * self.detected / self.total if self.total else 100.0

    @property
    def aliased_percent(self) -> float:
        """Aliasing rate of the class (0.0 for single-verdict flows)."""
        if not self.aliased or not self.total:
            return 0.0
        return 100.0 * self.aliased / self.total

    def render(self) -> str:
        line = f"{self.name}: {self.detected}/{self.total} ({self.percent:.2f}%)"
        if self.aliased is not None:
            line += (
                f", stream {self.stream_detected}/{self.total}"
                f", aliased {self.aliased} ({self.aliased_percent:.2f}%)"
            )
        return line


@dataclass(frozen=True)
class ClassStats:
    """Execution statistics for one fault class of a campaign."""

    name: str
    total: int
    seconds: float
    engine: str


@dataclass
class CampaignReport:
    """Per-class coverage of one campaign."""

    flow_name: str
    classes: dict[str, ClassCoverage] = field(default_factory=dict)
    undetected: dict[str, list[Fault]] = field(default_factory=dict)
    stats: dict[str, ClassStats] = field(default_factory=dict)
    engine: str | None = None
    jobs: int = 1
    # Campaign-context cache counters of the run (None for bare
    # callable flows, which bypass the engine's batch paths entirely):
    # how many contexts were built, how long the builds took, and how
    # many chunk/class evaluations hit a warm context instead.
    context_stats: ContextStats | None = None
    # What the supervised runner had to do to keep the campaign alive
    # (retries, respawns, degraded chunks, wall-clock lost) — all zero
    # on an undisturbed run, None for bare callable flows.
    fault_tolerance: FaultToleranceStats | None = None

    @property
    def total(self) -> int:
        return sum(c.total for c in self.classes.values())

    @property
    def detected(self) -> int:
        return sum(c.detected for c in self.classes.values())

    @property
    def percent(self) -> float:
        return 100.0 * self.detected / self.total if self.total else 100.0

    @property
    def has_pair_verdicts(self) -> bool:
        """True when at least one class carries aliasing statistics."""
        return any(c.aliased is not None for c in self.classes.values())

    @property
    def stream_detected(self) -> int:
        return sum(c.stream_detected or 0 for c in self.classes.values())

    @property
    def aliased(self) -> int:
        return sum(c.aliased or 0 for c in self.classes.values())

    @property
    def aliased_percent(self) -> float:
        """Overall aliasing rate over the pair-verdict classes."""
        total = sum(
            c.total for c in self.classes.values() if c.aliased is not None
        )
        return 100.0 * self.aliased / total if total else 0.0

    @property
    def seconds(self) -> float:
        return sum(s.seconds for s in self.stats.values())

    def coverage_vector(self) -> dict[str, float]:
        return {name: c.percent for name, c in self.classes.items()}

    def aliasing_vector(self) -> dict[str, float]:
        """Per-class aliasing rates of the pair-verdict classes."""
        return {
            name: c.aliased_percent
            for name, c in self.classes.items()
            if c.aliased is not None
        }

    def render(self) -> str:
        lines = [f"campaign: {self.flow_name}"]
        for name in sorted(self.classes):
            lines.append("  " + self.classes[name].render())
        lines.append(
            f"  overall: {self.detected}/{self.total} ({self.percent:.2f}%)"
        )
        if self.has_pair_verdicts:
            lines.append(
                f"  aliased: {self.aliased}/{self.total} "
                f"({self.aliased_percent:.2f}%)"
            )
        if self.context_stats is not None:
            lines.append(f"  contexts: {self.context_stats.render()}")
        if self.fault_tolerance is not None and self.fault_tolerance.any:
            lines.append(f"  faults: {self.fault_tolerance.render()}")
        return "\n".join(lines)


ProgressCallback = Callable[[ClassCoverage, ClassStats], None]


def _verdict_as_bool(verdict, flow_name: str) -> bool:
    """Strictly normalize one detection verdict.

    Any non-empty tuple — e.g. the ``(stream, signature)`` pair of an
    aliasing flow — is truthy, so counting truthiness would silently
    report 100% coverage even when every fault is missed.  Anything
    but a real bool is rejected loudly instead.
    """
    if isinstance(verdict, bool):
        return verdict
    raise TypeError(
        f"flow {flow_name!r} returned {verdict!r} "
        f"({type(verdict).__name__}) instead of a bool verdict; "
        "pair-verdict (stream, signature) flows must be structured "
        "AliasingFlow instances so run_campaign counts aliasing "
        "instead of tuple truthiness"
    )


def _verdict_as_pair(verdict, flow_name: str) -> PairVerdict:
    """Strictly normalize one ``(stream, signature)`` pair verdict."""
    if (
        isinstance(verdict, tuple)
        and len(verdict) == 2
        and isinstance(verdict[0], bool)
        and isinstance(verdict[1], bool)
    ):
        return verdict
    raise TypeError(
        f"aliasing flow {flow_name!r} returned {verdict!r}; expected a "
        "(stream_detected, signature_detected) pair of bools"
    )


def run_campaign(
    flow: Flow,
    universe: dict[str, Sequence[Fault]],
    *,
    flow_name: str = "flow",
    keep_undetected: int = 16,
    engine: str | Engine | None = None,
    jobs: int = 1,
    runner: CampaignRunner | None = None,
    retry: RetryPolicy | None = None,
    chaos: FaultPlan | None = None,
    degrade: bool = True,
    progress: ProgressCallback | None = None,
) -> CampaignReport:
    """Simulate every fault in *universe* through *flow*.

    With ``engine`` set and a structure-carrying flow, each class is
    evaluated through the engine's batch path —
    :meth:`Engine.detect_batch` for :class:`CompareFlow`,
    :meth:`Engine.detect_signature_batch` for :class:`SignatureFlow`,
    :meth:`Engine.detect_aliasing_batch` for :class:`AliasingFlow`
    (the ``"batch"`` engine vectorizes all three); any other flow falls
    back to per-fault calls regardless of the engine.  ``jobs > 1``
    additionally shards each class across that many worker processes
    with a deterministic merge, so reports are bit-identical to
    ``jobs=1``.  ``progress`` receives the per-class coverage and
    timing as soon as each class completes, so long campaigns expose
    early statistics instead of a single final report.

    Batch-path campaigns run through a :class:`CampaignRunner` whose
    context cache amortizes the per-campaign engine state (bit-planes,
    weight tables, fault-free baselines) across every class and chunk;
    the counters land in :attr:`CampaignReport.context_stats`.  Pass a
    *runner* to share that state across **several** campaigns — e.g.
    one per oracle mode over the same session — with persistent worker
    processes; a caller-supplied runner is left open (close it
    yourself) and its engine is used when ``engine`` is not given.

    Sharded execution is fault tolerant: chunks are supervised leases,
    retried per *retry* (a :class:`~repro.engine.RetryPolicy`) when a
    worker crashes, hangs or corrupts a result, and — unless
    ``degrade=False`` — run in-process once retries exhaust, so one
    bad worker degrades throughput, never the report.  *chaos* injects
    deterministic worker faults (tests/benches).  These three apply
    when the campaign owns its runner; a shared *runner* carries its
    own policy.  Whatever supervision did lands in
    :attr:`CampaignReport.fault_tolerance`.

    An :class:`AliasingFlow` yields a *pair-verdict* campaign:
    ``detected`` counts the realistic signature oracle, and every
    :class:`ClassCoverage` additionally carries ``stream_detected`` and
    ``aliased`` counts.  Verdicts are normalized strictly — a bare
    callable returning anything but a bool (e.g. a verdict tuple)
    raises :class:`TypeError` instead of being counted as truthy.
    """
    if runner is not None and engine is None:
        eng = runner.engine
    else:
        eng = get_engine(engine) if engine is not None else None
    if runner is not None and eng is not None and runner.engine is not eng:
        raise ValueError(
            f"shared runner executes engine {runner.engine.name!r} but the "
            f"campaign requested {getattr(eng, 'name', eng)!r}"
        )
    # Structured flows are their own work units (AliasingFlow is a
    # SignatureFlow).
    batched = eng is not None and isinstance(flow, (CompareFlow, SignatureFlow))
    pair_verdicts = isinstance(flow, AliasingFlow)
    # Attribute stats to the backend that actually ran: a bare callable
    # cannot be batched, so the engine is bypassed entirely.
    engine_label = eng.name if batched else "flow"
    owns_runner = False
    if not batched:
        runner = None  # per-fault flows bypass the engine machinery
    elif runner is None:
        runner = CampaignRunner(
            eng, jobs, retry=retry, chaos=chaos, degrade=degrade
        )
        owns_runner = True
    report = CampaignReport(
        flow_name,
        engine=eng.name if batched else None,
        # The runner may demote itself to inline execution (e.g. an
        # unregistered engine instance); report what actually ran.
        jobs=runner.jobs if runner is not None else 1,
    )
    if runner is not None:
        # A no-op when a shared runner already bound this flow and
        # universe (the mixed-mode fast path keeping workers warm).
        runner.bind(flow, universe)
    try:
        for class_name, faults in universe.items():
            started = time.perf_counter()
            detected = 0
            stream_hits = 0
            aliased = 0
            missed: list[Fault] = []
            if runner is not None:
                # Packed end to end: the runner hands back the class's
                # verdict bitset, the counters are popcounts, and only
                # the kept-missed sample (<= keep_undetected) ever
                # materializes a fault object here.
                packed = runner.detect_class_packed(
                    flow, faults, class_name=class_name
                )
                if len(packed) != len(faults):
                    raise RuntimeError(
                        f"class {class_name!r} returned {len(packed)} "
                        f"verdicts for {len(faults)} faults"
                    )
                if not isinstance(packed, PlaneVerdicts) or pair_verdicts != (
                    packed.streams is not None
                ):
                    expected = "(stream, signature) pair" if pair_verdicts else "bool"
                    raise TypeError(
                        f"flow {flow_name!r} produced {type(packed).__name__}; "
                        f"expected packed {expected} verdicts"
                    )
                if pair_verdicts:
                    stream_hits = packed.stream_count()
                    aliased = packed.aliased_count()
                detected = packed.count()
                missed = [
                    faults[i] for i in packed.missed_indices(keep_undetected)
                ]
            else:
                verdicts = [flow(fault) for fault in faults]
                for fault, verdict in zip(faults, verdicts, strict=True):
                    if pair_verdicts:
                        stream, hit = _verdict_as_pair(verdict, flow_name)
                        if stream:
                            stream_hits += 1
                            if not hit:
                                aliased += 1
                    else:
                        hit = _verdict_as_bool(verdict, flow_name)
                    if hit:
                        detected += 1
                    elif len(missed) < keep_undetected:
                        missed.append(fault)
            coverage = ClassCoverage(
                class_name,
                len(faults),
                detected,
                stream_detected=stream_hits if pair_verdicts else None,
                aliased=aliased if pair_verdicts else None,
            )
            stats = ClassStats(
                class_name,
                len(faults),
                time.perf_counter() - started,
                engine_label,
            )
            report.classes[class_name] = coverage
            report.stats[class_name] = stats
            if missed:
                report.undetected[class_name] = missed
            if progress is not None:
                progress(coverage, stats)
    finally:
        if runner is not None:
            # Per-campaign deltas, drained even when the campaign
            # raises — a shared runner must not leak this campaign's
            # counters into the next campaign's attribution.
            report.context_stats = runner.take_stats()
            report.fault_tolerance = runner.take_fault_stats()
            if owns_runner:
                runner.close()
    return report


# ---------------------------------------------------------------------------
# Flow factories
# ---------------------------------------------------------------------------


def _initial_words(
    n_words: int, width: int, initial: Sequence[int] | int | None, seed: int
) -> list[int]:
    mask = (1 << width) - 1
    if initial is None:
        rng = random.Random(seed)
        return [rng.randrange(1 << width) for _ in range(n_words)]
    if isinstance(initial, int):
        return [initial & mask] * n_words
    words = [word & mask for word in initial]
    if len(words) != n_words:
        raise ValueError(
            f"initial content has {len(words)} words but the memory "
            f"holds {n_words}"
        )
    return words


class _ContextKey(tuple):
    """A flow's context key, built once per flow and hashed once, so a
    cache hit neither copies nor re-hashes the words; equal keys of two
    flows still compare element by element."""

    def __new__(cls, items):
        key = super().__new__(cls, items)
        key._hash = tuple.__hash__(key)
        return key

    def __hash__(self) -> int:
        return self._hash


# Flows compare and hash by identity, like any callable; the value
# identity that keys contexts and bindings is ``context_key()``.
@dataclass(frozen=True, eq=False, repr=False)
class CompareFlow:
    """Alias-free compare-oracle flow — and its own campaign work unit.

    Calling it with a fault behaves like the classic closure (fresh
    faulty memory, ``stop_on_mismatch`` march run).  As a frozen,
    picklable value it is also what :func:`run_campaign` hands to
    engines and shards: :meth:`context_key` / :meth:`build_context`
    key and build the amortizable campaign state, and
    :meth:`run_class` answers a whole fault class through the engine's
    packed compare kernel.
    """

    test: MarchTest
    n_words: int
    width: int
    words: list[int]
    derive_writes: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "words", list(self.words))

    def __call__(self, fault: Fault) -> bool:
        memory = FaultyMemory(self.n_words, self.width, [fault])
        memory.load(self.words)
        result = run_march(
            self.test,
            memory,
            stop_on_mismatch=True,
            derive_writes=self.derive_writes,
        )
        return result.detected

    def context_key(self) -> tuple:
        """Cache key of the amortizable campaign state (the engine is
        fixed per cache, completing the ``(test, geometry, words,
        mode, engine)`` key of the context runtime), built once."""
        return self._context_key

    @cached_property
    def _context_key(self) -> tuple:
        return _ContextKey(
            (
                "compare",
                self.test,
                self.n_words,
                self.width,
                tuple(self.words),
                self.derive_writes,
            )
        )

    def build_context(self, engine: Engine) -> object:
        return engine.build_compare_context(
            self.test,
            self.n_words,
            self.width,
            self.words,
            derive_writes=self.derive_writes,
        )

    def run_class(
        self, engine: Engine, faults: Sequence[Fault], context: object = None
    ) -> PlaneVerdicts:
        return engine.detect_class_batch(
            self.test,
            self.n_words,
            self.width,
            self.words,
            faults,
            derive_writes=self.derive_writes,
            context=context,
        )


def compare_flow(
    test: MarchTest,
    n_words: int,
    width: int,
    *,
    initial: Sequence[int] | int | None = None,
    seed: int = 0,
    derive_writes: bool = True,
) -> CompareFlow:
    """Alias-free detection: any read differing from the fault-free
    value counts as detection.

    ``initial`` sets the memory content before injection (an int fills
    uniformly, ``None`` draws random content — the realistic transparent
    scenario).  The reference snapshot for expected values is taken
    *after* injection, exactly what a transparent BIST observes.
    """
    words = _initial_words(n_words, width, initial, seed)
    return CompareFlow(test, n_words, width, words, derive_writes)


@dataclass(frozen=True, eq=False, repr=False)
class SignatureFlow:
    """Realistic two-phase transparent BIST flow (MISR compare,
    aliasing possible) — and its own campaign work unit.

    Calling it with a fault behaves like the classic closure (fresh
    faulty memory, full :class:`TransparentBist` session through
    ``controller``, which validates the test and derives a missing
    ``prediction``).  As a frozen, picklable value it is also what
    :func:`run_campaign` hands to engines and shards, evaluated through
    the engine's batched signature oracle.
    """

    test: MarchTest
    prediction: MarchTest | None
    n_words: int
    width: int
    words: list[int]
    _: KW_ONLY
    misr_width: int = 16
    misr_seed: int = 0
    engine: str | Engine | None = None
    controller: TransparentBist = field(init=False)

    def __post_init__(self) -> None:
        controller = TransparentBist(
            self.test,
            self.prediction,
            misr_width=self.misr_width,
            misr_seed=self.misr_seed,
            engine=self.engine,
        )
        object.__setattr__(self, "controller", controller)
        object.__setattr__(self, "prediction", controller.prediction)
        object.__setattr__(self, "words", list(self.words))

    def __call__(self, fault: Fault) -> bool:
        memory = FaultyMemory(self.n_words, self.width, [fault])
        memory.load(self.words)
        return self.controller.run(memory).detected

    def context_key(self) -> tuple:
        """Deliberately shared with :class:`AliasingFlow`: both oracles
        read the same two-phase session state, so signature- and
        aliasing-mode campaigns of the same session reuse one cached
        context.  Built once, like :meth:`CompareFlow.context_key`."""
        return self._context_key

    @cached_property
    def _context_key(self) -> tuple:
        return _ContextKey(
            (
                "session",
                self.test,
                self.prediction,
                self.n_words,
                self.width,
                tuple(self.words),
                self.misr_width,
                self.misr_seed,
            )
        )

    def build_context(self, engine: Engine) -> object:
        return engine.build_session_context(
            self.test,
            self.prediction,
            self.n_words,
            self.width,
            self.words,
            misr_width=self.misr_width,
            misr_seed=self.misr_seed,
        )

    def run_class(
        self, engine: Engine, faults: Sequence[Fault], context: object = None
    ) -> PlaneVerdicts:
        return engine.detect_class_signature_batch(
            self.test,
            self.prediction,
            self.n_words,
            self.width,
            self.words,
            faults,
            misr_width=self.misr_width,
            misr_seed=self.misr_seed,
            context=context,
        )


def signature_flow(
    test: MarchTest,
    prediction: MarchTest,
    n_words: int,
    width: int,
    *,
    misr_width: int = 16,
    misr_seed: int = 0,
    initial: Sequence[int] | int | None = None,
    seed: int = 0,
    engine: str | Engine | None = None,
) -> SignatureFlow:
    """Realistic two-phase transparent BIST detection (MISR compare,
    aliasing possible)."""
    words = _initial_words(n_words, width, initial, seed)
    return SignatureFlow(
        test,
        prediction,
        n_words,
        width,
        words,
        misr_width=misr_width,
        misr_seed=misr_seed,
        engine=engine,
    )


@dataclass(frozen=True, eq=False, repr=False)
class AliasingFlow(SignatureFlow):
    """Pair-verdict transparent BIST flow: the session of
    :class:`SignatureFlow` (including its context key), reporting
    per-fault ``(stream_detected, signature_detected)`` pairs so
    aliasing events (stream-detected but signature-missed) can be
    counted."""

    def __call__(self, fault: Fault) -> PairVerdict:
        memory = FaultyMemory(self.n_words, self.width, [fault])
        memory.load(self.words)
        outcome = self.controller.run(memory)
        return outcome.stream_detected, outcome.detected

    def run_class(
        self, engine: Engine, faults: Sequence[Fault], context: object = None
    ) -> PlaneVerdicts:
        return engine.detect_class_aliasing_batch(
            self.test,
            self.prediction,
            self.n_words,
            self.width,
            self.words,
            faults,
            misr_width=self.misr_width,
            misr_seed=self.misr_seed,
            context=context,
        )


def aliasing_flow(
    test: MarchTest,
    prediction: MarchTest,
    n_words: int,
    width: int,
    *,
    misr_width: int = 16,
    misr_seed: int = 0,
    initial: Sequence[int] | int | None = None,
    seed: int = 0,
    engine: str | Engine | None = None,
) -> AliasingFlow:
    """Like :func:`signature_flow` but returns ``(stream, signature)``
    detection flags so aliasing events can be counted.  ``misr_seed``
    seeds both MISRs exactly as in :func:`signature_flow`, so aliasing
    and signature sessions can be configured consistently."""
    words = _initial_words(n_words, width, initial, seed)
    return AliasingFlow(
        test,
        prediction,
        n_words,
        width,
        words,
        misr_width=misr_width,
        misr_seed=misr_seed,
        engine=engine,
    )


def compare_reports(
    a: CampaignReport, b: CampaignReport
) -> list[tuple[str, float, float, float]]:
    """Per-class coverage delta between two campaigns.

    Rows are ``(class, a%, b%, a% - b%)`` over the classes the reports
    share; used to check the Section 5 equality claim.
    """
    rows = []
    for name in sorted(set(a.classes) & set(b.classes)):
        pa = a.classes[name].percent
        pb = b.classes[name].percent
        rows.append((name, pa, pb, pa - pb))
    return rows
