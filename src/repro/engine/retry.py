"""Retry policy and fault-tolerance accounting for supervised sweeps.

The lease-based runner (:mod:`repro.engine.parallel`) re-dispatches
chunks whose worker crashed, hung past its deadline, or returned a
corrupt result.  :class:`RetryPolicy` bounds that recovery — how many
attempts a chunk gets, how long each attempt may run, and how the
re-dispatch backoff grows — and :class:`FaultToleranceStats` accounts
for everything the supervisor had to do about it, end to end:
``SoakCampaignReport.fault_tolerance``, the soak CLI ``faults:`` line,
and the soak benchmark's chaos leg all read these counters.

Retries are safe by the determinism contract: a chunk is a pure
function of ``(fn, task, start, stop)``, so a re-dispatched attempt
produces the same result bit for bit, and a recovered sweep is
bit-identical to an undisturbed one.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RetryPolicy:
    """Bounds on chunk re-dispatch after a worker fault.

    ``max_attempts`` is the total number of dispatches a chunk gets
    (1 = no retries: the first failure degrades or raises).
    ``base_delay`` seeds the exponential backoff — attempt *k* waits
    ``base_delay * 2**(k-1)`` seconds before re-dispatch.  ``timeout``
    is the per-attempt wall-clock deadline; ``None`` means attempts may
    run forever (a hung worker is then only reclaimed by ``close()``),
    and ``0.0`` expires every attempt immediately — the degenerate
    policy that forces full in-process degradation.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    timeout: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0:
            raise ValueError("base_delay must be >= 0")
        if self.timeout is not None and self.timeout < 0:
            raise ValueError("timeout must be >= 0 (or None)")

    def backoff(self, attempt: int) -> float:
        """Seconds to wait before re-dispatching after failed
        *attempt* (1-based): bounded exponential, capped at 30s so a
        long retry ladder cannot stall a sweep indefinitely."""
        return min(self.base_delay * (2 ** max(0, attempt - 1)), 30.0)

    @property
    def max_retries(self) -> int:
        return self.max_attempts - 1


@dataclass
class FaultToleranceStats:
    """What the supervisor did to keep a sweep alive.

    ``retries`` counts chunk re-dispatches, ``respawns`` replacement
    worker processes, ``degraded_chunks`` chunks that exhausted their
    attempts and ran in-process instead, and ``lost_seconds`` the
    wall-clock burned by failed attempts (dispatch to failure
    detection).  The breakdown counters attribute the failures:
    ``crashes`` (worker death), ``timeouts`` (lease deadline passed),
    ``corrupt_chunks`` (result-count mismatch), ``chunk_errors``
    (worker raised), ``pool_failures`` (a worker or pool could not be
    (re)built), ``chaos_injected`` (faults the chaos plan asked for).
    Mergeable across sweeps exactly like
    :class:`~repro.engine.context.ContextStats`.
    """

    retries: int = 0
    respawns: int = 0
    degraded_chunks: int = 0
    lost_seconds: float = 0.0
    crashes: int = 0
    timeouts: int = 0
    corrupt_chunks: int = 0
    chunk_errors: int = 0
    pool_failures: int = 0
    chaos_injected: int = 0

    @property
    def any(self) -> bool:
        """True when the supervisor had to intervene at all."""
        return any(
            value for key, value in self.as_dict().items()
            if key != "lost_seconds"
        ) or self.lost_seconds > 0

    def merge(self, other: "FaultToleranceStats | dict") -> "FaultToleranceStats":
        """Accumulate *other* (a stats object or its ``as_dict``) into
        this one and return self."""
        if isinstance(other, dict):
            other = FaultToleranceStats(**other)
        for key, value in other.as_dict().items():
            setattr(self, key, getattr(self, key) + value)
        return self

    def copy(self) -> "FaultToleranceStats":
        return FaultToleranceStats(**self.as_dict())

    def reset(self) -> None:
        """Zero every counter in place (the object identity survives,
        so a supervisor holding a reference keeps accounting into it)."""
        for key in self.as_dict():
            setattr(self, key, 0.0 if key == "lost_seconds" else 0)

    def as_dict(self) -> dict:
        """Plain-dict form (picklable / JSON benchmark column)."""
        return {
            "retries": self.retries,
            "respawns": self.respawns,
            "degraded_chunks": self.degraded_chunks,
            "lost_seconds": self.lost_seconds,
            "crashes": self.crashes,
            "timeouts": self.timeouts,
            "corrupt_chunks": self.corrupt_chunks,
            "chunk_errors": self.chunk_errors,
            "pool_failures": self.pool_failures,
            "chaos_injected": self.chaos_injected,
        }

    def render(self) -> str:
        line = (
            f"{self.retries} retries, {self.respawns} respawns, "
            f"{self.degraded_chunks} degraded chunks, "
            f"{self.lost_seconds:.3f}s lost"
        )
        breakdown = [
            f"{value} {label}"
            for label, value in (
                ("crashes", self.crashes),
                ("timeouts", self.timeouts),
                ("corrupt", self.corrupt_chunks),
                ("errors", self.chunk_errors),
                ("pool failures", self.pool_failures),
                ("chaos", self.chaos_injected),
            )
            if value
        ]
        if breakdown:
            line += f" ({', '.join(breakdown)})"
        return line
