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

The soak scheduler takes the traffic a block at a time
(:meth:`LfsrWorkload.events`): since ``draw(a + b) == draw(a) << b |
draw(b)``, the cycles' draws are one bit stream, so the block draws it
a register width at a time and cuts each cycle's fields off its top
with shifts, then sets the register to where per-cycle calls leave it.
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

    # -- state ---------------------------------------------------------
    @property
    def state(self) -> int:
        """The full generator state (one LFSR register)."""
        return self._lfsr.state

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

    def events(self, cycles: int) -> list[tuple[int, str, int, int]]:
        """The busy events of the next *cycles* cycles, as ``(cycle,
        kind, addr, value)`` with the cycle counted from here; leaves
        :attr:`state` exactly where *cycles* calls would."""
        lfsr = self._lfsr
        chunk, draw, start = lfsr.width, lfsr.draw, lfsr.state
        need = 2 * _DECISION_BITS + 16 + self.width
        data_mask = (1 << self.width) - 1
        out = []
        buf = avail = drawn = 0  # avail: drawn bits not yet consumed
        for cycle in range(cycles):
            while avail < need:  # keep `chunk` consumed bits for the end state
                buf = (buf & ((1 << (avail + chunk)) - 1)) << chunk | draw(chunk)
                avail += chunk
                drawn += chunk
            avail -= _DECISION_BITS
            if (buf >> avail) % _SCALE < self.idle_threshold:
                continue
            avail -= 16
            addr = (buf >> avail) % 65536 % self.n_words
            avail -= _DECISION_BITS
            if (buf >> avail) % _SCALE < self.write_threshold:
                avail -= self.width
                out.append((cycle, "w", addr, (buf >> avail) & data_mask))
            else:
                out.append((cycle, "r", addr, 0))
        lfsr.state = ((start << (drawn - avail)) | (buf >> avail)) & lfsr.mask
        return out
