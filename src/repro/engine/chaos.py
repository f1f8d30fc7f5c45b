"""Deterministic fault injection for the supervised execution fabric.

The repo simulates memory faults; this module injects faults into the
*simulator's own* execution fabric so the supervised runner
(:mod:`repro.engine.parallel`) can be tested — and benchmarked — under
worker loss, hangs and data corruption.  A :class:`FaultPlan` decides,
purely as a function of ``(class name, chunk ordinal, attempt)``,
whether a dispatched chunk is disturbed and how.  The "class name" is
the label of the map the chunk belongs to — ``soak`` for scenario
chunks, the only client of the fabric:

* ``crash`` — the worker process exits hard (``os._exit``) before
  touching the chunk, exactly like an OOM kill or segfault;
* ``hang`` — the worker sleeps far past any sane chunk deadline, so
  only the supervisor's lease timeout can reclaim it;
* ``corrupt`` — the worker returns a result for the *wrong* number of
  items, exercising the parent's per-chunk integrity check;
* ``error`` — the chunk raises inside the worker (a "poisoned" chunk:
  with ``attempt=None`` it fails on every attempt and can only be
  recovered by in-process degradation).

Plans are deterministic by construction — explicit events match on
their fields, and seeded plans hash ``(seed, class, chunk, attempt)``
through CRC-32 rather than Python's per-process-salted ``hash`` — so a
chaos run is reproducible run to run and process to process, and its
recovered reports can be asserted bit-identical to an undisturbed
run.
"""

from __future__ import annotations

import os
import random
import time
import zlib
from dataclasses import dataclass

CHAOS_KINDS = ("crash", "hang", "corrupt", "error")

# How long an injected hang sleeps.  Long enough that only the lease
# deadline (RetryPolicy.timeout) ever reclaims the worker — a finite
# bound so a chaos plan without a timeout wedges one sweep, not the
# interpreter.
HANG_SECONDS = 600.0


def perform(action: str | None) -> None:
    """Carry out a pre-chunk disturbance inside a worker process.

    Only the *pre-execution* kinds are handled here — ``crash`` kills
    the process hard and ``hang`` sleeps past every sane lease
    deadline; ``corrupt`` and ``error`` need the chunk itself and stay
    with the executor.  Centralised so process-kill semantics live in
    exactly one module (the determinism lint forbids ``os._exit``
    anywhere else in the engine)."""
    if action == "crash":
        os._exit(13)
    if action == "hang":
        time.sleep(HANG_SECONDS)


@dataclass(frozen=True)
class ChaosEvent:
    """One planned disturbance of a dispatched chunk.

    ``class_name=None`` matches any map label; ``attempt=None``
    matches every attempt (a chunk poisoned beyond retry), while the
    default ``attempt=1`` disturbs only the first dispatch so the
    retry recovers cleanly.
    """

    kind: str
    class_name: str | None = None
    chunk: int = 0
    attempt: int | None = 1

    def __post_init__(self) -> None:
        if self.kind not in CHAOS_KINDS:
            raise ValueError(
                f"unknown chaos kind {self.kind!r}; expected one of "
                f"{', '.join(CHAOS_KINDS)}"
            )
        if self.chunk < 0:
            raise ValueError("chunk ordinal must be >= 0")
        if self.attempt is not None and self.attempt < 1:
            raise ValueError("attempt must be >= 1 (or None for all)")

    def matches(self, class_name: str | None, chunk: int, attempt: int) -> bool:
        return (
            (self.class_name is None or self.class_name == class_name)
            and self.chunk == chunk
            and (self.attempt is None or self.attempt == attempt)
        )


class FaultPlan:
    """A deterministic schedule of injected execution faults.

    Built from explicit :class:`ChaosEvent` entries, a seeded random
    rate, or both.  ``action_for(class_name, chunk, attempt)`` is the
    single decision point the supervisor consults at every dispatch;
    it is a pure function of its arguments (and the plan), so the same
    plan disturbs the same dispatches in every run.
    """

    def __init__(
        self,
        events: "tuple[ChaosEvent, ...] | list[ChaosEvent]" = (),
        *,
        seed: int | None = None,
        rate: float = 0.0,
        kinds: "tuple[str, ...]" = ("crash",),
    ) -> None:
        self.events = tuple(events)
        if seed is not None and not 0.0 <= rate <= 1.0:
            raise ValueError("seeded chaos rate must be within [0, 1]")
        unknown = [k for k in kinds if k not in CHAOS_KINDS]
        if unknown:
            raise ValueError(
                f"unknown chaos kinds: {', '.join(unknown)} "
                f"(expected a subset of {', '.join(CHAOS_KINDS)})"
            )
        self.seed = seed
        self.rate = rate
        self.kinds = tuple(kinds)

    @classmethod
    def seeded(
        cls,
        seed: int,
        rate: float = 0.1,
        kinds: "tuple[str, ...]" = ("crash",),
    ) -> "FaultPlan":
        """A plan that disturbs roughly ``rate`` of all *first*
        dispatches, choosing kinds uniformly — deterministic per
        ``(seed, class, chunk)``, and never touching retries, so every
        injected fault is recoverable."""
        return cls(seed=seed, rate=rate, kinds=kinds)

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse the CLI chaos syntax.

        ``"crash:soak:0,hang:soak:1"`` — comma-separated
        ``kind:class:chunk[:attempt|*]`` events (``*`` = every attempt,
        i.e. a poisoned chunk); or ``"seeded:SEED:RATE[:kind|kind]"``
        for a seeded random plan.
        """
        spec = spec.strip()
        if not spec:
            raise ValueError("empty chaos spec")
        if spec.startswith("seeded:"):
            parts = spec.split(":")
            if len(parts) not in (3, 4):
                raise ValueError(
                    f"seeded chaos spec {spec!r}; expected "
                    "'seeded:SEED:RATE[:kind|kind]'"
                )
            kinds = tuple(parts[3].split("|")) if len(parts) == 4 else ("crash",)
            try:
                return cls.seeded(int(parts[1]), float(parts[2]), kinds)
            except ValueError as error:
                raise ValueError(f"bad chaos spec {spec!r}: {error}") from None
        events = []
        for item in spec.split(","):
            parts = item.strip().split(":")
            if len(parts) not in (3, 4):
                raise ValueError(
                    f"chaos event {item.strip()!r}; expected "
                    "'kind:class:chunk[:attempt|*]'"
                )
            kind, class_name, chunk = parts[0], parts[1], parts[2]
            attempt: int | None = 1
            if len(parts) == 4:
                attempt = None if parts[3] == "*" else int(parts[3])
            try:
                events.append(
                    ChaosEvent(kind, class_name or None, int(chunk), attempt)
                )
            except ValueError as error:
                raise ValueError(f"bad chaos spec {item!r}: {error}") from None
        return cls(events)

    def action_for(
        self, class_name: str | None, chunk: int, attempt: int
    ) -> str | None:
        """The injected fault kind for this dispatch, or ``None``.

        Explicit events win over the seeded rate; seeded decisions
        hash through CRC-32 (never the salted builtin ``hash``) so
        they are stable across interpreter processes.
        """
        for event in self.events:
            if event.matches(class_name, chunk, attempt):
                return event.kind
        if self.seed is not None and attempt == 1:
            key = f"{self.seed}:{class_name}:{chunk}".encode()
            rng = random.Random(zlib.crc32(key))
            if rng.random() < self.rate:
                return self.kinds[rng.randrange(len(self.kinds))]
        return None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        seeded = (
            f", seed={self.seed}, rate={self.rate}, kinds={self.kinds}"
            if self.seed is not None
            else ""
        )
        return f"FaultPlan(events={self.events!r}{seeded})"
