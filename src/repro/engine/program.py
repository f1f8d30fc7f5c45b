"""Compiled march-program IR.

A :class:`~repro.core.march.MarchTest` is symbolic: data expressions are
width-polymorphic masks, address orders are abstract, and derived-write
data flow is implicit in element structure.  Compiling against a word
width lowers all of that once, so engines never touch :class:`Mask`
resolution or :class:`Op` dispatch in their inner loops:

* every mask is resolved to a concrete integer;
* every address order becomes an ascending/descending descriptor;
* every content-relative write is linked to the read that feeds its
  XOR-derived data (the BIST datapath's data-flow edge), or flagged as
  underivable so engines can fail exactly like the interpreter.

Programs are immutable and cached per ``(test, width)`` — a campaign
re-running the same test over a million faults compiles once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from ..core.element import AddressOrder
from ..core.march import MarchTest
from ..core.ops import Mask


@dataclass(frozen=True)
class ProgramOp:
    """One lowered march operation.

    ``mask`` is the data mask resolved at the program's width.  For a
    read, the expected fault-free value is ``snapshot[addr] ^ mask``
    when ``relative`` else ``mask``.  For a write, the stored value is
    ``mask`` (absolute), ``snapshot[addr] ^ mask`` (relative, oracle
    datapath) or ``last_read_raw ^ last_read_mask ^ mask`` (relative,
    operational derived datapath).  ``derive_from`` is the data-flow
    link of that last case: the index *within the element* of the most
    recent preceding read, or ``None`` when no read precedes (executing
    such a write with derived semantics is an :class:`ExecutionError`).
    """

    index: int
    is_read: bool
    relative: bool
    mask: int
    derive_from: int | None
    label: str

    @property
    def is_write(self) -> bool:
        return not self.is_read


@dataclass(frozen=True)
class ProgramElement:
    """One lowered march element: an address sweep over an op block.

    ``steps`` repeats the op fields as bare tuples
    ``(is_read, relative, mask, derivable)`` — the engines' hot loops
    iterate these to avoid attribute lookups.
    """

    index: int
    descending: bool
    ops: tuple[ProgramOp, ...]
    steps: tuple[tuple[bool, bool, int, bool], ...]

    def addresses(self, n_words: int) -> range:
        if self.descending:
            return range(n_words - 1, -1, -1)
        return range(n_words)

    @functools.cached_property
    def n_reads(self) -> int:
        # Cached in the instance ``__dict__``, outside the dataclass
        # fields, so equality and hashing are unaffected; session
        # replays ask for it once per element per fault.
        return sum(1 for op in self.ops if op.is_read)

    def __len__(self) -> int:
        return len(self.ops)


@dataclass(frozen=True)
class MarchProgram:
    """A march test lowered against a concrete word width."""

    name: str
    width: int
    word_mask: int
    elements: tuple[ProgramElement, ...]

    def __iter__(self) -> Iterator[ProgramElement]:
        return iter(self.elements)

    @property
    def op_count(self) -> int:
        """Operations applied per address (the ``N`` of complexity
        formulas)."""
        return sum(len(e) for e in self.elements)

    @property
    def n_reads(self) -> int:
        return sum(e.n_reads for e in self.elements)

    @property
    def derivable(self) -> bool:
        """True when every relative write has a feeding read, i.e. the
        program is executable with the operational derived-write
        datapath."""
        return all(
            op.derive_from is not None
            for e in self.elements
            for op in e.ops
            if op.is_write and op.relative
        )


def _compile(test: MarchTest, width: int) -> MarchProgram:
    elements = []
    for ei, element in enumerate(test.elements):
        ops = []
        steps = []
        last_read: int | None = None
        for oi, op in enumerate(element.ops):
            mask = op.data.mask.resolve(width)
            if op.is_read:
                derive_from: int | None = None
                last_read = oi
            else:
                derive_from = last_read
            ops.append(
                ProgramOp(oi, op.is_read, op.is_relative, mask, derive_from, str(op))
            )
            derivable = op.is_read or not op.is_relative or derive_from is not None
            steps.append((op.is_read, op.is_relative, mask, derivable))
        elements.append(
            ProgramElement(
                ei,
                element.order is AddressOrder.DOWN,
                tuple(ops),
                tuple(steps),
            )
        )
    return MarchProgram(test.name, width, (1 << width) - 1, tuple(elements))


@functools.lru_cache(maxsize=512)
def _compile_cached(test: MarchTest, width: int) -> MarchProgram:
    return _compile(test, width)


def compile_march(test: MarchTest, width: int) -> MarchProgram:
    """Lower *test* to a :class:`MarchProgram` at *width* (cached)."""
    if width < 1:
        raise ValueError("width must be >= 1")
    return _compile_cached(test, width)


# ---------------------------------------------------------------------------
# Symbolic (width-unresolved) programs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymbolicElement:
    """One march element with *unresolved* data masks.

    ``steps`` mirrors :attr:`ProgramElement.steps` except that the data
    mask stays a width-polymorphic :class:`~repro.core.ops.Mask`:
    ``(is_read, relative, mask, derivable)``.
    """

    index: int
    descending: bool
    steps: tuple[tuple[bool, bool, Mask, bool], ...]

    @functools.cached_property
    def n_reads(self) -> int:
        return sum(1 for is_read, _, _, _ in self.steps if is_read)

    def __len__(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class SymbolicProgram:
    """A march test lowered against *no* width at all.

    The IR the width-generic symbolic engine consumes: the element /
    derive-link structure of :class:`MarchProgram`, with every data
    mask kept as a :class:`~repro.core.ops.Mask` whose per-bit values
    are width-independent (``Mask.bit_at``).  ``at_width`` recovers the
    ordinary concrete program for cross-checking.
    """

    name: str
    elements: tuple[SymbolicElement, ...]
    test: MarchTest = field(compare=False)

    def __iter__(self) -> Iterator[SymbolicElement]:
        return iter(self.elements)

    @property
    def op_count(self) -> int:
        return sum(len(e) for e in self.elements)

    @property
    def n_reads(self) -> int:
        return sum(e.n_reads for e in self.elements)

    @property
    def derivable(self) -> bool:
        """True when every relative write has a feeding read (same
        contract as :attr:`MarchProgram.derivable`)."""
        return all(
            derivable for e in self.elements for _, _, _, derivable in e.steps
        )

    @property
    def min_width(self) -> int:
        """Smallest word width every mask of the program resolves at
        (``bit(j)`` patterns need ``width > j``; everything else fits
        any width)."""
        return max(
            (mask.min_width for e in self.elements for _, _, mask, _ in e.steps),
            default=1,
        )

    def at_width(self, width: int) -> MarchProgram:
        """The concrete :class:`MarchProgram` of the same test."""
        return compile_march(self.test, width)

    def bit_plan(
        self, position: int
    ) -> tuple[tuple[tuple[bool, bool, int, bool], ...], ...]:
        """Per-element step tuples with the mask reduced to its bit at
        *position* — the width-generic single-bit view of the program
        (cached per position)."""
        return _bit_plan(self, position)

    def bit_signature(self, position: int) -> tuple[int, ...]:
        """The flattened tuple of every step mask's bit at *position*.

        Two positions with equal signatures are indistinguishable to
        the program, so any per-bit fault evaluation can be shared
        between them (cached per position).
        """
        return _bit_signature(self, position)


@functools.lru_cache(maxsize=4096)
def _bit_plan(program: SymbolicProgram, position: int):
    return tuple(
        tuple(
            (is_read, relative, mask.bit_at(position), derivable)
            for is_read, relative, mask, derivable in element.steps
        )
        for element in program.elements
    )


@functools.lru_cache(maxsize=4096)
def _bit_signature(program: SymbolicProgram, position: int) -> tuple[int, ...]:
    return tuple(
        mask.bit_at(position)
        for element in program.elements
        for _, _, mask, _ in element.steps
    )


@functools.lru_cache(maxsize=256)
def compile_symbolic(test: MarchTest) -> SymbolicProgram:
    """Lower *test* to a :class:`SymbolicProgram` (cached).

    The lowering mirrors :func:`compile_march` — address orders become
    descriptors and derived writes get their data-flow link — but the
    data masks stay symbolic, so the one program stands for every word
    width at once.
    """
    elements = []
    for ei, element in enumerate(test.elements):
        steps = []
        saw_read = False
        for op in element.ops:
            if op.is_read:
                saw_read = True
            derivable = op.is_read or not op.is_relative or saw_read
            steps.append((op.is_read, op.is_relative, op.data.mask, derivable))
        elements.append(
            SymbolicElement(ei, element.order is AddressOrder.DOWN, tuple(steps))
        )
    return SymbolicProgram(test.name, tuple(elements), test)


def pack_words(words: Sequence[int], width: int) -> int:
    """Pack a word list into one big integer, address-major.

    Bit ``addr * width + bit`` of the result is bit ``bit`` of
    ``words[addr]`` — the bit-plane layout the batch engine's
    word-parallel evaluation operates on.

    Combined pairwise (divide and conquer) so megaword memories pack in
    O(n log n) big-int bit work; the naive ``|= word << (addr*width)``
    accumulation re-touches the whole accumulator per word, which is
    quadratic and dominates context construction at n_words >= 2**20.
    """
    chunks = list(words)
    if not chunks:
        return 0
    span = width
    while len(chunks) > 1:
        paired = [
            chunks[i] | (chunks[i + 1] << span)
            for i in range(0, len(chunks) - 1, 2)
        ]
        if len(chunks) % 2:
            paired.append(chunks[-1])
        chunks = paired
        span *= 2
    return chunks[0]


def replicate_mask(mask: int, n_words: int, width: int) -> int:
    """Replicate a *width*-bit mask across *n_words* packed lanes."""
    if n_words == 1:
        return mask
    repunit = ((1 << (n_words * width)) - 1) // ((1 << width) - 1)
    return mask * repunit
