"""Functional model of a word-oriented random-access memory.

The simulator is cycle-less: reads and writes are atomic functional
operations, which is the right abstraction level for March-test theory
(operation counts and functional fault coverage are fully determined by
this model).  Observers can be attached to record access traces; the
fault-injecting variant lives in :mod:`repro.memory.injection`.
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence

from .traces import AccessEvent, Observer


class Memory:
    """An ``n_words`` x ``width`` RAM with observer hooks."""

    def __init__(self, n_words: int, width: int, fill: int = 0) -> None:
        if n_words < 1:
            raise ValueError("memory needs at least one word")
        if width < 1:
            raise ValueError("word width must be >= 1")
        self.n_words = n_words
        self.width = width
        self._mask = (1 << width) - 1
        self._words = [fill & self._mask] * n_words
        self._observers: list[Observer] = []
        self.read_count = 0
        self.write_count = 0

    # -- size ------------------------------------------------------------
    def __len__(self) -> int:
        return self.n_words

    @property
    def word_mask(self) -> int:
        return self._mask

    # -- access ----------------------------------------------------------
    def read(self, addr: int) -> int:
        # Checked inline: every BIST session op comes through here.
        if not 0 <= addr < self.n_words:
            self._check_addr(addr)
        value = self._fetch(addr)
        self.read_count += 1
        if self._observers:
            for obs in self._observers:
                obs.notify(AccessEvent("r", addr, value))
        return value

    def write(self, addr: int, value: int) -> None:
        if not 0 <= addr < self.n_words:
            self._check_addr(addr)
        value &= self._mask
        self._store(addr, value)
        self.write_count += 1
        if self._observers:
            for obs in self._observers:
                obs.notify(AccessEvent("w", addr, value))

    # Internal storage primitives; the fault-injecting subclass overrides
    # these, so observers always see the *requested* access while the
    # stored data reflects fault effects.
    def _fetch(self, addr: int) -> int:
        return self._words[addr]

    def _store(self, addr: int, value: int) -> None:
        self._words[addr] = value

    def _check_addr(self, addr: int) -> None:
        if not 0 <= addr < self.n_words:
            raise IndexError(f"address {addr} out of range [0, {self.n_words})")

    # -- bulk content ------------------------------------------------------
    def load(self, words: Sequence[int]) -> None:
        """Replace the entire content (bypasses fault write semantics,
        then re-applies static fault conditions in faulty subclasses)."""
        if len(words) != self.n_words:
            raise ValueError(
                f"expected {self.n_words} words, got {len(words)}"
            )
        self._words = [w & self._mask for w in words]
        self._after_load()

    def fill(self, value: int) -> None:
        self.load([value] * self.n_words)

    def randomize(self, rng: random.Random) -> None:
        """Fill with pseudo-random content (models arbitrary user data)."""
        self.load([rng.randrange(1 << self.width) for _ in range(self.n_words)])

    def snapshot(self) -> list[int]:
        """A copy of the current content."""
        return list(self._words)

    def _after_load(self) -> None:
        """Hook for subclasses to re-establish static fault conditions."""

    # -- cell-level helpers -------------------------------------------------
    def get_bit(self, addr: int, bit: int) -> int:
        self._check_addr(addr)
        self._check_bit(bit)
        return (self._words[addr] >> bit) & 1

    def _check_bit(self, bit: int) -> None:
        if not 0 <= bit < self.width:
            raise IndexError(f"bit {bit} out of range [0, {self.width})")

    # -- observers -----------------------------------------------------------
    def attach(self, observer: Observer) -> None:
        self._observers.append(observer)

    def detach(self, observer: Observer) -> None:
        self._observers.remove(observer)

    # -- misc ------------------------------------------------------------------
    def reset_counters(self) -> None:
        self.read_count = 0
        self.write_count = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Memory({self.n_words}x{self.width})"


def words_equal(a: Iterable[int], b: Iterable[int]) -> bool:
    """Element-wise equality of two content snapshots."""
    return list(a) == list(b)
