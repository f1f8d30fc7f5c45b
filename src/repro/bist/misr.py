"""Multiple-input signature register (MISR) for test-response compaction.

A transparent BIST session compares the signature produced by the test
phase against the one computed by the signature-prediction phase; the
MISR compacts the read stream into a ``width``-bit signature with an
aliasing probability of about ``2**-width`` for random error patterns.

The register's next-state function is GF(2)-linear in both the state
and the input word (shifts, the tap-parity feedback and the XOR fold
all distribute over XOR).  The batched signature oracle of
:mod:`repro.engine.batch` exploits that linearity: the contribution of
every absorbed input bit to the final signature is a fixed vector, so a
fault's signature can be derived from the fault-free one by XOR-ing the
weights of the read bits it corrupts.  :func:`absorb_weight_table` and
:func:`fold_table` precompute those vectors (:func:`absorb_row_table`
is the transposed table the packed class kernels build their weight
planes from); :func:`signature_of_stream` produces the fault-free
anchor in one optimized pass.
"""

from __future__ import annotations

import functools

from .lfsr import parity, tap_mask


class Misr:
    """A parallel-input signature register over GF(2).

    Input words wider than the register are folded by XOR-ing
    ``width``-bit chunks, which preserves the linearity of the
    compaction (hardware space compactors do the same).
    """

    def __init__(self, width: int = 16, seed: int = 0) -> None:
        if width < 1:
            raise ValueError("MISR width must be >= 1")
        self.width = width
        self.mask = (1 << width) - 1
        self.taps = tap_mask(width)
        self._seed = seed & self.mask
        self.state = self._seed
        self.absorbed = 0

    def fold(self, value: int) -> int:
        """Fold an arbitrarily wide input into ``width`` bits."""
        if value < 0:
            # Interpret a negative input by its two's-complement
            # magnitude bits (the arithmetic shift would never reach 0).
            value &= (1 << max(value.bit_length(), 1)) - 1
        folded = value & self.mask
        value >>= self.width
        while value:
            folded ^= value & self.mask
            value >>= self.width
        return folded

    def absorb(self, value: int) -> None:
        """Clock one input word into the register."""
        feedback = parity(self.state & self.taps)
        self.state = (((self.state << 1) & self.mask) | feedback) ^ self.fold(value)
        self.absorbed += 1

    def absorb_all(self, values) -> None:
        """Clock every word of *values* into the register.

        Semantically ``for v in values: self.absorb(v)``; the attribute
        lookups, the feedback parity and the chunk fold are hoisted into
        locals because signature campaigns push the whole read stream of
        every fault hypothesis through this loop.
        """
        state = self.state
        taps = self.taps
        mask = self.mask
        width = self.width
        count = 0
        for value in values:
            if value < 0:
                value &= (1 << max(value.bit_length(), 1)) - 1
            folded = value & mask
            rest = value >> width
            while rest:
                folded ^= rest & mask
                rest >>= width
            state = (
                ((state << 1) & mask) | ((state & taps).bit_count() & 1)
            ) ^ folded
            count += 1
        self.state = state
        self.absorbed += count

    @property
    def signature(self) -> int:
        return self.state

    def reset(self) -> None:
        self.state = self._seed
        self.absorbed = 0

    def spawn(self) -> "Misr":
        """A fresh register with identical configuration."""
        return Misr(self.width, self._seed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Misr(width={self.width}, signature={self.state:#x})"


def signature_of(values, width: int = 16, seed: int = 0) -> int:
    """Convenience: the signature of an iterable of input words."""
    misr = Misr(width, seed)
    misr.absorb_all(values)
    return misr.signature


def signature_of_stream(
    values, *, width: int = 16, seed: int = 0
) -> tuple[int, int]:
    """Signature *and length* of an input stream in one pass.

    The batched signature oracle needs both: the stream length fixes
    the per-input linear weights (:func:`absorb_weight_table`) that turn
    a fault's read-stream diff into its signature diff.
    """
    misr = Misr(width, seed)
    misr.absorb_all(values)
    return misr.signature, misr.absorbed


@functools.lru_cache(maxsize=128)
def fold_table(input_width: int, width: int) -> tuple[int, ...]:
    """Register bit that input bit ``b`` folds into: ``b % width``.

    Precomputed per ``(input_width, width)`` so per-bit error
    attribution in the batched oracle indexes a tuple instead of
    dividing in its innermost loop.
    """
    if input_width < 1 or width < 1:
        raise ValueError("widths must be >= 1")
    return tuple(b % width for b in range(input_width))


@functools.lru_cache(maxsize=32)
def absorb_weight_table(
    n_inputs: int, width: int
) -> tuple[tuple[int, ...], ...]:
    """Per-input linear weights of an ``n_inputs``-long absorption.

    ``table[k][b]`` is the contribution of bit ``b`` of the *k*-th
    absorbed (already folded) input word to the final signature, i.e.
    ``A**(n_inputs-1-k)`` applied to the unit vector ``1 << b``, where
    ``A`` is the register's autonomous next-state map.  Because the
    register is GF(2)-linear, ``signature(faulty stream) ==
    signature(fault-free stream) XOR table[k][b]`` XOR-accumulated over
    every corrupted input bit ``(k, b)`` — the seed contribution cancels.

    Cached: a signature campaign rebuilds its context per fault class
    (and per shard chunk) with identical stream lengths.
    """
    if n_inputs < 0:
        raise ValueError("n_inputs must be >= 0")
    mask = (1 << width) - 1
    taps = tap_mask(width)
    table: list[tuple[int, ...]] = [()] * n_inputs
    current = tuple(1 << b for b in range(width))  # A**0 == identity
    for k in range(n_inputs - 1, -1, -1):
        table[k] = current
        if k:
            current = tuple(
                ((x << 1) & mask) | ((x & taps).bit_count() & 1)
                for x in current
            )
    return tuple(table)


def absorb_row_table(
    n_inputs: int, width: int
) -> tuple[tuple[int, ...], ...]:
    """The transpose of :func:`absorb_weight_table`.

    ``table[k][m]`` has bit ``b`` set iff bit ``b`` of the *k*-th
    absorbed input flips signature bit *m* (``(table[k][m] >> b) & 1 ==
    (absorb_weight_table(n_inputs, width)[k][b] >> m) & 1``): row *m* of
    ``A**(n_inputs-1-k)``.  Rows step under the transposed map
    ``y -> (y >> 1) ^ (taps if y & 1 else 0)``, so the table costs
    O(n_inputs x width) word operations, with no bit-matrix transposes.
    The packed session kernels of :mod:`repro.engine.batch` build their
    per-read weight planes (cached per geometry) from it.
    """
    if n_inputs < 0:
        raise ValueError("n_inputs must be >= 0")
    taps = tap_mask(width)
    table: list[tuple[int, ...]] = [()] * n_inputs
    current = tuple(1 << m for m in range(width))
    for k in range(n_inputs - 1, -1, -1):
        table[k] = current
        if k:
            current = tuple((y >> 1) ^ (taps if y & 1 else 0) for y in current)
    return tuple(table)
