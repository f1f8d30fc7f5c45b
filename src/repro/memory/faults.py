"""Functional fault models of Section 2 of the paper.

The model set is the classic one (Dekker et al. [4, 5], van de Goor
[14]): stuck-at faults, transition faults, and the three coupling-fault
flavours (state, idempotent, inversion), each of which may be
*intra-word* (aggressor and victim bits inside the same word) or
*inter-word* (different addresses).

Semantics implemented here, under the single-fault assumption:

``SAF(cell, v)``
    the cell always stores ``v``; any write of the opposite value is
    ineffective and the stored (thus read) value stays ``v``.

``TF(cell, rising)``
    the cell cannot make the 0->1 transition (``rising=True``) or the
    1->0 transition; a write attempting the failed transition leaves
    the old value.

``CFst <y; x>``
    whenever the aggressor holds ``y``, the victim is forced to ``x``;
    the forcing is continuous — writes to the victim while the
    condition holds are overridden, and writes that put the aggressor
    into ``y`` immediately force the victim.

``CFid <t; x>``
    a write that makes the aggressor undergo transition ``t`` forces
    the victim to ``x``.

``CFin <t>``
    a write that makes the aggressor undergo transition ``t`` inverts
    the victim.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True, slots=True)
class Cell:
    """A single bit cell: word address plus bit position."""

    addr: int
    bit: int

    def __str__(self) -> str:
        return f"({self.addr},{self.bit})"


class Fault:
    """Base class for functional memory faults."""

    @property
    def cells(self) -> tuple[Cell, ...]:
        raise NotImplementedError

    @property
    def kind(self) -> str:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def validate(self, n_words: int, width: int) -> None:
        for cell in self.cells:
            if not 0 <= cell.addr < n_words:
                raise ValueError(f"{self.describe()}: address {cell.addr} out of range")
            if not 0 <= cell.bit < width:
                raise ValueError(f"{self.describe()}: bit {cell.bit} out of range")

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.describe()


@dataclass(frozen=True)
class StuckAtFault(Fault):
    """SAF: *cell* permanently holds *value*."""

    cell: Cell
    value: int

    def __post_init__(self) -> None:
        if self.value not in (0, 1):
            raise ValueError("stuck-at value must be 0 or 1")

    @property
    def cells(self) -> tuple[Cell, ...]:
        return (self.cell,)

    @property
    def kind(self) -> str:
        return "SAF"

    def describe(self) -> str:
        return f"SAF{self.value}@{self.cell}"


@dataclass(frozen=True)
class TransitionFault(Fault):
    """TF: *cell* fails its 0->1 (``rising``) or 1->0 transition."""

    cell: Cell
    rising: bool

    @property
    def cells(self) -> tuple[Cell, ...]:
        return (self.cell,)

    @property
    def kind(self) -> str:
        return "TF"

    def describe(self) -> str:
        arrow = "0->1" if self.rising else "1->0"
        return f"TF({arrow})@{self.cell}"


@dataclass(frozen=True)
class CouplingFault(Fault):
    """Base of the two-cell coupling faults."""

    aggressor: Cell
    victim: Cell

    def __post_init__(self) -> None:
        if self.aggressor == self.victim:
            raise ValueError("aggressor and victim must be distinct cells")

    @property
    def cells(self) -> tuple[Cell, ...]:
        return (self.aggressor, self.victim)

    @property
    def intra_word(self) -> bool:
        """True when aggressor and victim share a word address."""
        return self.aggressor.addr == self.victim.addr


@dataclass(frozen=True)
class StateCouplingFault(CouplingFault):
    """CFst: while aggressor holds ``aggressor_value``, victim is forced."""

    aggressor_value: int = 0
    forced_value: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.aggressor_value not in (0, 1) or self.forced_value not in (0, 1):
            raise ValueError("CFst values must be 0 or 1")

    @property
    def kind(self) -> str:
        return "CFst"

    def describe(self) -> str:
        where = "intra" if self.intra_word else "inter"
        return (
            f"CFst<{self.aggressor_value};{self.forced_value}>"
            f"{self.aggressor}->{self.victim}[{where}]"
        )


@dataclass(frozen=True)
class IdempotentCouplingFault(CouplingFault):
    """CFid: aggressor transition forces the victim to ``forced_value``."""

    rising: bool = True
    forced_value: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.forced_value not in (0, 1):
            raise ValueError("CFid forced value must be 0 or 1")

    @property
    def kind(self) -> str:
        return "CFid"

    def describe(self) -> str:
        arrow = "up" if self.rising else "down"
        where = "intra" if self.intra_word else "inter"
        return (
            f"CFid<{arrow};{self.forced_value}>"
            f"{self.aggressor}->{self.victim}[{where}]"
        )


@dataclass(frozen=True)
class InversionCouplingFault(CouplingFault):
    """CFin: aggressor transition inverts the victim."""

    rising: bool = True

    @property
    def kind(self) -> str:
        return "CFin"

    def describe(self) -> str:
        arrow = "up" if self.rising else "down"
        where = "intra" if self.intra_word else "inter"
        return f"CFin<{arrow}>{self.aggressor}->{self.victim}[{where}]"


@dataclass(frozen=True)
class ReadDisturbFault(Fault):
    """RDF/DRDF: a read of the cell flips its content.

    With ``deceptive=False`` (plain RDF) the read also *returns* the
    flipped value; with ``deceptive=True`` (DRDF) the read returns the
    correct value and only the stored content flips — classically
    detectable only by a second consecutive read (March SS / March RAW
    style ``r, r`` pairs).
    """

    cell: Cell
    deceptive: bool = False

    @property
    def cells(self) -> tuple[Cell, ...]:
        return (self.cell,)

    @property
    def kind(self) -> str:
        return "DRDF" if self.deceptive else "RDF"

    def describe(self) -> str:
        return f"{self.kind}@{self.cell}"


@dataclass(frozen=True)
class AddressDecoderFault(Fault):
    """AF: a defect in the address decoder (van de Goor's AF classes).

    ``kind_code`` selects the behaviour for accesses to ``addr``:

    * ``"none"``  — no cell is accessed: writes are lost, reads return
      the floating-line value ``float_value`` (AF-1);
    * ``"other"`` — accesses land on ``other_addr`` instead (AF-2; with
      the roles swapped this also models AF-4, two addresses sharing
      one cell);
    * ``"multi"`` — accesses hit both ``addr`` and ``other_addr``:
      writes update both words, reads return the wired-AND (or
      wired-OR) of the two (AF-3).
    """

    addr: int = 0
    kind_code: str = "none"
    other_addr: int | None = None
    float_value: int = 0
    wired_or: bool = False

    _KINDS = ("none", "other", "multi")

    def __post_init__(self) -> None:
        if self.kind_code not in self._KINDS:
            raise ValueError(f"unknown address-fault kind {self.kind_code!r}")
        if self.kind_code in ("other", "multi") and self.other_addr is None:
            raise ValueError(f"AF kind {self.kind_code!r} needs other_addr")
        if self.other_addr is not None and self.other_addr == self.addr:
            raise ValueError("other_addr must differ from addr")

    @property
    def cells(self) -> tuple[Cell, ...]:
        return ()

    @property
    def kind(self) -> str:
        return "AF"

    def validate(self, n_words: int, width: int) -> None:
        if not 0 <= self.addr < n_words:
            raise ValueError(f"{self.describe()}: address out of range")
        if self.other_addr is not None and not 0 <= self.other_addr < n_words:
            raise ValueError(f"{self.describe()}: other address out of range")

    def describe(self) -> str:
        if self.kind_code == "none":
            return f"AF-none@{self.addr}"
        wiring = "or" if self.wired_or else "and"
        if self.kind_code == "multi":
            return f"AF-multi({wiring})@{self.addr}+{self.other_addr}"
        return f"AF-other@{self.addr}->{self.other_addr}"


FAULT_KINDS = ("SAF", "TF", "CFst", "CFid", "CFin", "RDF", "DRDF", "AF")
