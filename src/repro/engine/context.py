"""Campaign-context runtime: keyed, amortized per-campaign engine state.

Every batch oracle pays a *context* cost before the first fault verdict
comes out: compile the program(s), mask the initial words, record the
fault-free read streams, build the MISR weight tables, derive the
fault-free baseline/mismatch sets.  That cost is per ``(test,
geometry, words, mode)`` — not per fault class — so this module makes
context construction an explicit, cached, amortized cost:

* :class:`CampaignContext` — one built context: the cache key, the
  owning engine's name, the engine-specific payload (e.g. the batch
  engine's ``_CampaignContext`` / ``_SignatureContext``), and how long
  it took to build;
* :class:`ContextCache` — a keyed cache of contexts for one engine.
  Keys come from the flows' :meth:`context_key` (test identity,
  geometry, words, mode parameters); the engine is fixed per cache, so
  the effective key is the ``(test, geometry, words, mode, engine)``
  tuple.  Signature- and aliasing-mode flows share one ``"session"``
  key on purpose: both oracles read the same two-phase session state,
  so a mixed-mode run builds it once;
* :class:`ContextStats` — hit/miss/build counters with build seconds,
  so campaigns can *prove* the amortization
  (``CampaignReport.context_stats``, the CLI ``contexts:`` line, and
  the ``context_*`` benchmark columns);
* :class:`CampaignRunner` — the campaign driver's handle on one engine
  and one cache: it evaluates fault classes through flows in-process,
  and a runner shared by several campaigns replays the contexts the
  earlier ones built.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, Sequence, runtime_checkable

from .base import get_engine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..memory.faults import Fault
    from .base import Engine
    from .verdicts import PlaneVerdicts


@runtime_checkable
class ContextWork(Protocol):
    """What a work unit must offer to be context-cacheable."""

    def context_key(self) -> tuple: ...

    def build_context(self, engine: "Engine") -> object: ...


@dataclass
class ContextStats:
    """Counters of one context cache (or a merge of several).

    ``misses`` counts cache lookups that had to construct a context,
    ``builds`` the subset whose engine actually produced a reusable
    payload (an engine with nothing to amortize — e.g. ``reference`` —
    returns ``None`` and builds nothing).  ``build_seconds`` is the
    wall-clock spent constructing, including the ``None`` probes.
    """

    builds: int = 0
    hits: int = 0
    misses: int = 0
    build_seconds: float = 0.0

    def merge(self, other: "ContextStats") -> "ContextStats":
        """Accumulate *other* into this one and return self."""
        self.builds += other.builds
        self.hits += other.hits
        self.misses += other.misses
        self.build_seconds += other.build_seconds
        return self

    def delta(self, earlier: "ContextStats") -> "ContextStats":
        """The counter increments since *earlier* was captured."""
        return ContextStats(
            self.builds - earlier.builds,
            self.hits - earlier.hits,
            self.misses - earlier.misses,
            self.build_seconds - earlier.build_seconds,
        )

    def copy(self) -> "ContextStats":
        return ContextStats(
            self.builds, self.hits, self.misses, self.build_seconds
        )

    def render(self) -> str:
        return (
            f"{self.builds} built ({self.build_seconds:.3f}s), "
            f"{self.hits} hits / {self.misses} misses"
        )


@dataclass(frozen=True)
class CampaignContext:
    """One built campaign context.

    ``payload`` is whatever the engine's builder returned — opaque to
    the runtime, handed back verbatim through the flow's
    ``run_class(engine, faults, context=payload)``.  ``None`` means the
    engine has nothing reusable for this work (the cache still
    remembers that, so the probe is not repeated either).
    """

    key: tuple
    engine: str
    payload: object
    build_seconds: float


class ContextCache:
    """Keyed cache of campaign contexts for one engine.

    Insertion-ordered with FIFO eviction at ``max_contexts`` — campaign
    drivers touch a handful of contexts, so recency bookkeeping would
    cost more than it saves.  Not thread-safe; each
    :class:`CampaignRunner` owns its own instance.
    """

    def __init__(self, engine: "Engine", max_contexts: int = 16) -> None:
        if max_contexts < 1:
            raise ValueError("max_contexts must be >= 1")
        self.engine = engine
        self.max_contexts = max_contexts
        self._contexts: dict[tuple, CampaignContext] = {}
        self._stats = ContextStats()
        self._cursor = ContextStats()

    def __len__(self) -> int:
        return len(self._contexts)

    @property
    def stats(self) -> ContextStats:
        """Lifetime counters of this cache (a defensive copy)."""
        return self._stats.copy()

    def take_stats(self) -> ContextStats:
        """Counter increments since the previous ``take_stats`` call —
        the per-campaign delta the runner reports."""
        delta = self._stats.delta(self._cursor)
        self._cursor = self._stats.copy()
        return delta

    def get(self, work: ContextWork) -> CampaignContext:
        """The cached context for *work*, building it on first touch."""
        key = work.context_key()
        ctx = self._contexts.get(key)
        if ctx is not None:
            self._stats.hits += 1
            return ctx
        self._stats.misses += 1
        started = time.perf_counter()
        payload = work.build_context(self.engine)
        elapsed = time.perf_counter() - started
        self._stats.build_seconds += elapsed
        if payload is not None:
            self._stats.builds += 1
        if len(self._contexts) >= self.max_contexts:
            self._contexts.pop(next(iter(self._contexts)))
        ctx = CampaignContext(key, self.engine.name, payload, elapsed)
        self._contexts[key] = ctx
        return ctx

    def clear(self) -> None:
        """Drop every cached context (counters are kept)."""
        self._contexts.clear()


class CampaignRunner:
    """Evaluates fault classes through flows against one context cache.

    Campaigns run in-process: the packed class kernels answer a whole
    class — a streaming descriptor or a plain fault list — in a few
    lane passes over the campaign context, which is built once per
    runner and key.  A runner is reusable: pass it to several
    ``run_campaign`` calls (e.g. one per oracle mode) via
    ``run_campaign(..., runner=...)`` and the later campaigns replay
    the contexts the earlier ones built.
    """

    def __init__(self, engine: "str | Engine | None" = None, jobs: int = 1) -> None:
        # ``jobs`` is the former worker count, kept as the second
        # positional parameter because the benchmark harness
        # (``perfbench/workloads.py``) still passes ``1`` there.
        if jobs != 1:
            raise ValueError(f"jobs must be 1: campaigns run in-process, got {jobs}")
        self.engine = get_engine(engine)
        self._cache = ContextCache(self.engine)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Drop the cached contexts (counters survive for a final
        :meth:`take_stats`)."""
        self._cache.clear()

    def take_stats(self) -> ContextStats:
        """Context-cache counter increments since the previous call.
        ``run_campaign`` calls this once per campaign, so shared
        runners report per-campaign stats."""
        return self._cache.take_stats()

    def detect_class_packed(self, flow, faults: "Sequence[Fault]") -> "PlaneVerdicts":
        """Packed verdicts of one fault class through *flow*, against
        the flow's cached context."""
        ctx = self._cache.get(flow)
        return flow.run_class(self.engine, faults, context=ctx.payload)
