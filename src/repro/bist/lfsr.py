"""Linear-feedback shift register primitives for the BIST datapath.

The tap table lists one maximal-length (primitive-polynomial) tap set
per register width, following the classic Xilinx XAPP052 table.  These
feed the MISR signature analyser and can also serve as pseudo-random
pattern/address generators in BIST experiments.
"""

from __future__ import annotations

import functools

# width -> tap positions (1-based, tap n is the MSB) of a maximal LFSR.
TAPS: dict[int, tuple[int, ...]] = {
    2: (2, 1),
    3: (3, 2),
    4: (4, 3),
    5: (5, 3),
    6: (6, 5),
    7: (7, 6),
    8: (8, 6, 5, 4),
    9: (9, 5),
    10: (10, 7),
    11: (11, 9),
    12: (12, 6, 4, 1),
    13: (13, 4, 3, 1),
    14: (14, 5, 3, 1),
    15: (15, 14),
    16: (16, 15, 13, 4),
    17: (17, 14),
    18: (18, 11),
    19: (19, 6, 2, 1),
    20: (20, 17),
    21: (21, 19),
    22: (22, 21),
    23: (23, 18),
    24: (24, 23, 22, 17),
    25: (25, 22),
    26: (26, 6, 2, 1),
    27: (27, 5, 2, 1),
    28: (28, 25),
    29: (29, 27),
    30: (30, 6, 4, 1),
    31: (31, 28),
    32: (32, 22, 2, 1),
    33: (33, 20),
    34: (34, 27, 2, 1),
    35: (35, 33),
    36: (36, 25),
    40: (40, 38, 21, 19),
    48: (48, 47, 21, 20),
    56: (56, 55, 35, 34),
    64: (64, 63, 61, 60),
}


def tap_mask(width: int) -> int:
    """Bit mask of the feedback taps for *width* (0-based bit positions)."""
    if width == 1:
        return 1
    if width not in TAPS:
        known = ", ".join(str(w) for w in sorted(TAPS))
        raise ValueError(f"no tap set for width {width}; known widths: 1, {known}")
    mask = 0
    for tap in TAPS[width]:
        mask |= 1 << (tap - 1)
    return mask


def parity(value: int) -> int:
    """Parity (XOR reduction) of an arbitrary-size integer."""
    return value.bit_count() & 1


@functools.lru_cache(maxsize=64)
def jump_tables(width: int, nbits: int) -> tuple[tuple[int, ...], ...]:
    """Byte tables of the *nbits*-step feedback map of a *width*-bit LFSR.

    For ``nbits <= width`` the *nbits* feedback bits an LFSR shifts in
    over *nbits* steps are a GF(2)-linear function of its state, so
    they are the XOR of the images of the state's set bits.  Table *i*
    maps byte *i* of the state (bits ``8i .. 8i+7``) to the XOR of the
    images of its bits; the images are those of the basis states
    ``1 << b``, computed bit-serially once.
    """
    if not 1 <= nbits <= width:
        raise ValueError(f"jump size must be in [1, {width}]")
    mask = (1 << width) - 1
    taps = tap_mask(width)
    images = []
    for bit in range(width):
        state = 1 << bit
        for _ in range(nbits):
            state = ((state << 1) & mask) | ((state & taps).bit_count() & 1)
        images.append(state & ((1 << nbits) - 1))
    tables = []
    for low in range(0, width, 8):
        table = [0] * (1 << min(8, width - low))
        for byte in range(1, len(table)):
            lsb = byte & -byte
            table[byte] = table[byte ^ lsb] ^ images[low + lsb.bit_length() - 1]
        tables.append(tuple(table))
    return tuple(tables)


class Lfsr:
    """A Fibonacci LFSR with a maximal-length tap set."""

    def __init__(self, width: int, seed: int = 1) -> None:
        if width < 1:
            raise ValueError("LFSR width must be >= 1")
        self.width = width
        self.mask = (1 << width) - 1
        self.taps = tap_mask(width)
        seed &= self.mask
        if seed == 0:
            raise ValueError("LFSR seed must be non-zero")
        self.state = seed
        self._jumps: dict[int, tuple[tuple[int, ...], ...]] = {}

    def step(self) -> int:
        """Advance one cycle and return the new state."""
        feedback = parity(self.state & self.taps)
        self.state = ((self.state << 1) & self.mask) | feedback
        return self.state

    def run(self, cycles: int) -> list[int]:
        """The next *cycles* states."""
        return [self.step() for _ in range(cycles)]

    def draw(self, nbits: int) -> int:
        """The next *nbits* pseudo-random bits as one integer.

        A Fibonacci LFSR shifts in exactly one fresh feedback bit per
        step, and the draw is those bits, oldest first — consecutive
        full states are just shifts of each other and must not be
        concatenated.  So for ``k <= width`` the ``k``-bit draw is the
        low ``k`` bits of the state after ``k`` steps, and the register
        advances a whole draw at a time: one :func:`jump_tables` lookup
        per state byte yields the ``k`` new bits, the rest of the new
        state is the old one shifted left by ``k``.  Longer draws split
        off ``width``-bit chunks (``draw(a + b) == draw(a) << b |
        draw(b)``).  Bit-identical to ``nbits`` single :meth:`step`
        calls.  The state is plain data (``self.state``), so a
        checkpointed generator resumes bit-identically by restoring it.
        """
        if nbits < 1:
            raise ValueError("draw needs at least one bit")
        width = self.width
        if nbits > width:
            head = self.draw(nbits - width)
            return (head << width) | self.draw(width)
        tables = self._jumps.get(nbits)
        if tables is None:
            tables = self._jumps[nbits] = jump_tables(width, nbits)
        state = self.state
        bits = 0
        rest = state
        for table in tables:
            bits ^= table[rest & 0xFF]
            rest >>= 8
        self.state = ((state << nbits) & self.mask) | bits
        return bits

    def copy(self) -> "Lfsr":
        """An independent LFSR continuing from the current state."""
        return Lfsr(self.width, self.state)

    def period(self, limit: int | None = None) -> int:
        """Cycle length from the current state (maximal sets give 2^w - 1)."""
        start = self.state
        bound = limit if limit is not None else (1 << self.width)
        for count in range(1, bound + 1):
            if self.step() == start:
                return count
        raise RuntimeError("period not found within limit")
