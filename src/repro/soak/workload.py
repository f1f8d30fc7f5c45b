"""Streaming LFSR workload generation for soak scenarios.

The SATA BIST idiom (SNIPPETS.md Snippet 3): the traffic generator and
every checker share one seeded pseudo-random register, so nothing is
ever materialized — per cycle the workload draws a handful of bits from
a maximal-length :class:`~repro.bist.lfsr.Lfsr` and decides idle /
read / write, the address, and the write data on the fly.  Like the
SATA scrambler, which advances one data word per clock rather than one
bit, each draw advances the register by all its bits in one table jump
(:meth:`~repro.bist.lfsr.Lfsr.draw`), bit-identical to stepping it.
Errors are likewise counted on the fly by the session stepper's
streaming checker (:class:`~repro.bist.scheduler.SessionStepper` with
``track_stream=True``); no access trace or expected-data buffer scales
with uptime.

The entire generator state is the LFSR register (one integer), so a
checkpointed soak run resumes the traffic stream bit-identically via
:meth:`LfsrWorkload.state` / :meth:`LfsrWorkload.restore`.
"""

from __future__ import annotations

import random

from ..bist.lfsr import Lfsr
from ..memory.traces import AccessEvent

_DECISION_BITS = 10  # idle/write draws resolve to 1/1024 granularity
_SCALE = 1 << _DECISION_BITS


class LfsrWorkload:
    """Seeded streaming workload: ``workload(cycle, rng) -> event``.

    Satisfies the :data:`repro.bist.scheduler.Workload` protocol but
    ignores the scheduler's rng — all randomness comes from the owned
    LFSR, so two runs (or a run and its resumed half) that share the
    seed replay the exact same traffic.

    ``idle_permille`` is the probability (in 1/1000) that a cycle is
    idle; ``write_permille`` the probability that a busy cycle is a
    write rather than a read.
    """

    def __init__(
        self,
        n_words: int,
        width: int,
        *,
        idle_permille: int = 700,
        write_permille: int = 250,
        seed: int = 1,
        lfsr_width: int = 32,
    ) -> None:
        if not 0 <= idle_permille <= 1000:
            raise ValueError("idle_permille must be in [0, 1000]")
        if not 0 <= write_permille <= 1000:
            raise ValueError("write_permille must be in [0, 1000]")
        self.n_words = n_words
        self.width = width
        self.idle_threshold = idle_permille * _SCALE // 1000
        self.write_threshold = write_permille * _SCALE // 1000
        seed = seed & ((1 << lfsr_width) - 1)
        self._lfsr = Lfsr(lfsr_width, seed if seed else 1)

    # -- checkpointing -------------------------------------------------
    @property
    def state(self) -> int:
        """The full generator state (one LFSR register)."""
        return self._lfsr.state

    def restore(self, state: int) -> None:
        """Resume the stream from a previously captured :attr:`state`."""
        self._lfsr = Lfsr(self._lfsr.width, state)

    def spawn_checker(self) -> "Lfsr":
        """An independent register at the current state — the checker
        half of the generator/checker pair for callers that re-derive
        expected data instead of storing it."""
        return self._lfsr.copy()

    # -- the stream ----------------------------------------------------
    def __call__(
        self, cycle: int, rng: random.Random | None = None
    ) -> AccessEvent | None:
        draw = self._lfsr.draw(_DECISION_BITS)
        if draw < self.idle_threshold:
            return None
        addr = self._lfsr.draw(16) % self.n_words
        if self._lfsr.draw(_DECISION_BITS) < self.write_threshold:
            return AccessEvent("w", addr, self._lfsr.draw(self.width))
        return AccessEvent("r", addr, 0)
