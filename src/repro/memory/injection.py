"""Fault injection: a memory that honours injected functional faults,
plus exhaustive/sampled fault-universe enumerators for campaigns.
"""

from __future__ import annotations

import functools
import itertools
import random
from typing import Iterable, Iterator, Sequence

from .faults import (
    AddressDecoderFault,
    Cell,
    CouplingFault,
    Fault,
    IdempotentCouplingFault,
    InversionCouplingFault,
    ReadDisturbFault,
    StateCouplingFault,
    StuckAtFault,
    TransitionFault,
)
from .model import Memory


class FaultyMemory(Memory):
    """A :class:`Memory` whose storage obeys injected fault semantics.

    Faults can be supplied at construction or injected later; static
    conditions (stuck-at values, CFst forcing) are re-established after
    every bulk load so that the *initial* content already reflects the
    defect, as in real silicon.

    Accesses to words no fault touches take a fast path straight to the
    stored words.  The *hot* addresses are every fault cell's word plus
    every address fault's ``addr``; a read elsewhere sees no fault, and
    a write elsewhere changes no fault cell, so the static conditions
    re-established after it would be a no-op — provided they already
    hold (``_settled``).  They do after every re-establishment, unless
    one CFst's victim is another's aggressor (then a second pass can
    move further along the chain), and they may not after a
    :meth:`remove`; in both cases writes take the full path until it
    settles them again.
    """

    def __init__(
        self,
        n_words: int,
        width: int,
        faults: Iterable[Fault] = (),
        fill: int = 0,
    ) -> None:
        self._faults: list[Fault] = []
        self._hot: frozenset[int] = frozenset()
        self._chained = False
        self._settled = True
        super().__init__(n_words, width, fill)
        for fault in faults:
            self.inject(fault)

    # -- fault management ------------------------------------------------
    @property
    def faults(self) -> tuple[Fault, ...]:
        return tuple(self._faults)

    def inject(self, fault: Fault) -> None:
        fault.validate(self.n_words, self.width)
        self._faults.append(fault)
        self._faults_changed()
        self._enforce_static()

    def clear_faults(self) -> None:
        self._faults.clear()
        self._faults_changed()

    def remove(self, fault: Fault) -> None:
        """Withdraw one injected fault (time-varying injection).

        The stored content is left exactly as the fault last forced it:
        a transient stuck-at that disappears leaves the stuck value in
        the cell until something overwrites it, as in real silicon.
        Faults compare by value, so removing one occurrence of a
        duplicate episode withdraws a single injection.
        """
        try:
            self._faults.remove(fault)
        except ValueError:
            raise ValueError(f"fault not injected: {fault.describe()}") from None
        self._faults_changed()

    def _faults_changed(self) -> None:
        """Rebuild the fast-path bookkeeping from the fault list."""
        hot = set()
        aggressors = set()
        victims = set()
        for fault in self._faults:
            if isinstance(fault, AddressDecoderFault):
                hot.add(fault.addr)
            hot.update(cell.addr for cell in fault.cells)
            if isinstance(fault, StateCouplingFault):
                aggressors.add(fault.aggressor)
                victims.add(fault.victim)
        self._hot = frozenset(hot)
        self._chained = not aggressors.isdisjoint(victims)
        # After a removal the content may break a condition the removed
        # fault overrode (a CFst forcing a stuck-at cell): unsettled
        # until the next full-path write re-establishes the conditions.
        self._settled = not self._faults

    # -- storage semantics -------------------------------------------------
    def _address_fault(self, addr: int) -> AddressDecoderFault | None:
        for fault in self._faults:
            if isinstance(fault, AddressDecoderFault) and fault.addr == addr:
                return fault
        return None

    def _store(self, addr: int, value: int) -> None:
        if self._settled and addr not in self._hot:
            self._words[addr] = value
        else:
            self._store_faulty(addr, value)

    def _fetch(self, addr: int) -> int:
        if addr in self._hot:
            return self._fetch_faulty(addr)
        return self._words[addr]

    def _store_faulty(self, addr: int, value: int) -> None:
        af = self._address_fault(addr)
        if af is None:
            self._store_word(addr, value)
        elif af.kind_code == "none":
            return  # write lost: no cell selected
        elif af.kind_code == "other":
            self._store_word(af.other_addr, value)
        else:  # multi
            self._store_word(addr, value)
            self._store_word(af.other_addr, value)

    def _fetch_faulty(self, addr: int) -> int:
        af = self._address_fault(addr)
        if af is None:
            return self._read_word(addr)
        if af.kind_code == "none":
            return af.float_value & self._mask
        if af.kind_code == "other":
            return self._read_word(af.other_addr)
        a = self._read_word(addr)
        b = self._read_word(af.other_addr)
        return (a | b) if af.wired_or else (a & b)

    def _read_word(self, addr: int) -> int:
        """Fetch one physical word, applying read-disturb effects."""
        value = self._words[addr]
        returned = value
        disturbed = False
        for fault in self._faults:
            if isinstance(fault, ReadDisturbFault) and fault.cell.addr == addr:
                mask = 1 << fault.cell.bit
                self._words[addr] ^= mask
                disturbed = True
                if not fault.deceptive:
                    returned ^= mask
        if disturbed:
            self._enforce_static()
        return returned

    def _store_word(self, addr: int, value: int) -> None:
        old = self._words[addr]
        new = value
        # Per-cell write faults on the target word (SAF force, TF block).
        for fault in self._faults:
            if isinstance(fault, StuckAtFault) and fault.cell.addr == addr:
                bit = fault.cell.bit
                new = (new & ~(1 << bit)) | (fault.value << bit)
            elif isinstance(fault, TransitionFault) and fault.cell.addr == addr:
                bit = fault.cell.bit
                old_b = (old >> bit) & 1
                new_b = (new >> bit) & 1
                blocked = (
                    (fault.rising and old_b == 0 and new_b == 1)
                    or (not fault.rising and old_b == 1 and new_b == 0)
                )
                if blocked:
                    new = (new & ~(1 << bit)) | (old_b << bit)
        self._words[addr] = new

        # Coupling effects triggered by aggressor transitions in this word.
        for fault in self._faults:
            if not isinstance(fault, CouplingFault):
                continue
            aggr = fault.aggressor
            if aggr.addr != addr:
                continue
            a_old = (old >> aggr.bit) & 1
            a_new = (self._words[addr] >> aggr.bit) & 1
            if a_old == a_new:
                continue
            rising = a_new == 1
            if isinstance(fault, IdempotentCouplingFault):
                if rising == fault.rising:
                    self._set_cell(fault.victim, fault.forced_value)
            elif isinstance(fault, InversionCouplingFault):
                if rising == fault.rising:
                    self._set_cell(
                        fault.victim, 1 - self._cell(fault.victim)
                    )
        self._enforce_static()

    def _after_load(self) -> None:
        self._enforce_static()

    def _enforce_static(self) -> None:
        """Re-apply state-holding fault conditions to the stored data."""
        for fault in self._faults:
            if isinstance(fault, StuckAtFault):
                self._set_cell(fault.cell, fault.value)
        for fault in self._faults:
            if isinstance(fault, StateCouplingFault):
                if self._cell(fault.aggressor) == fault.aggressor_value:
                    self._set_cell(fault.victim, fault.forced_value)
        self._settled = not self._chained

    # -- raw cell helpers (bypass access counting) ---------------------------
    def _cell(self, cell: Cell) -> int:
        return (self._words[cell.addr] >> cell.bit) & 1

    def _set_cell(self, cell: Cell, value: int) -> None:
        word = self._words[cell.addr]
        self._words[cell.addr] = (word & ~(1 << cell.bit)) | (value << cell.bit)


# ---------------------------------------------------------------------------
# Fault-universe enumeration
# ---------------------------------------------------------------------------


def all_cells(n_words: int, width: int) -> Iterator[Cell]:
    for addr in range(n_words):
        for bit in range(width):
            yield Cell(addr, bit)


def enumerate_stuck_at(n_words: int, width: int) -> Iterator[StuckAtFault]:
    """Both SAF polarities for every cell (``2 * n * b`` faults)."""
    for cell in all_cells(n_words, width):
        yield StuckAtFault(cell, 0)
        yield StuckAtFault(cell, 1)


def enumerate_transition(n_words: int, width: int) -> Iterator[TransitionFault]:
    """Both TF directions for every cell (``2 * n * b`` faults)."""
    for cell in all_cells(n_words, width):
        yield TransitionFault(cell, rising=True)
        yield TransitionFault(cell, rising=False)


def enumerate_read_disturb(
    n_words: int, width: int, *, deceptive: bool | None = None
) -> Iterator[ReadDisturbFault]:
    """RDF and/or DRDF for every cell.

    ``deceptive=None`` yields both flavours; ``True``/``False``
    restricts to DRDF/RDF respectively.
    """
    flavours = (False, True) if deceptive is None else (deceptive,)
    for cell in all_cells(n_words, width):
        for flavour in flavours:
            yield ReadDisturbFault(cell, deceptive=flavour)


def enumerate_address_faults(
    n_words: int, *, wired_or: bool = False
) -> Iterator[AddressDecoderFault]:
    """The AF universe: one AF-1 per address plus AF-2/AF-3 for every
    ordered address pair (``n + 2 * n * (n-1)`` faults)."""
    for addr in range(n_words):
        yield AddressDecoderFault(addr, "none")
    for addr, other in itertools.permutations(range(n_words), 2):
        yield AddressDecoderFault(addr, "other", other)
        yield AddressDecoderFault(addr, "multi", other, wired_or=wired_or)


def _coupling_variants(
    aggressor: Cell, victim: Cell, kinds: Sequence[str]
) -> Iterator[CouplingFault]:
    if "CFst" in kinds:
        for y, x in itertools.product((0, 1), repeat=2):
            yield StateCouplingFault(aggressor, victim, y, x)
    if "CFid" in kinds:
        for rising, x in itertools.product((True, False), (0, 1)):
            yield IdempotentCouplingFault(aggressor, victim, rising, x)
    if "CFin" in kinds:
        for rising in (True, False):
            yield InversionCouplingFault(aggressor, victim, rising)


_CF_KINDS = ("CFst", "CFid", "CFin")


def enumerate_intra_word_cf(
    n_words: int,
    width: int,
    kinds: Sequence[str] = _CF_KINDS,
    addresses: Iterable[int] | None = None,
) -> Iterator[CouplingFault]:
    """All ordered intra-word bit pairs with the requested CF kinds."""
    addr_range = range(n_words) if addresses is None else addresses
    for addr in addr_range:
        for a_bit, v_bit in itertools.permutations(range(width), 2):
            yield from _coupling_variants(
                Cell(addr, a_bit), Cell(addr, v_bit), kinds
            )


def enumerate_inter_word_cf(
    n_words: int,
    width: int,
    kinds: Sequence[str] = _CF_KINDS,
    *,
    same_bit_only: bool = True,
    max_pairs: int | None = None,
    rng: random.Random | None = None,
) -> Iterator[CouplingFault]:
    """Inter-word coupling faults.

    The full cross product is quartic in memory size; by default the
    classic bit-oriented assumption is used (aggressor and victim share
    the bit position, as cells in one physical column/row), optionally
    down-sampled to *max_pairs* ordered cell pairs with *rng*.
    """
    pairs: list[tuple[Cell, Cell]] = []
    for a_addr, v_addr in itertools.permutations(range(n_words), 2):
        if same_bit_only:
            for a_bit in range(width):
                pairs.append((Cell(a_addr, a_bit), Cell(v_addr, a_bit)))
        else:
            for a_bit, v_bit in itertools.product(range(width), repeat=2):
                pairs.append((Cell(a_addr, a_bit), Cell(v_addr, v_bit)))
    if max_pairs is not None and len(pairs) > max_pairs:
        rng = rng if rng is not None else random.Random(0)
        pairs = rng.sample(pairs, max_pairs)
    for aggressor, victim in pairs:
        yield from _coupling_variants(aggressor, victim, kinds)


# ---------------------------------------------------------------------------
# Streaming fault classes
# ---------------------------------------------------------------------------


class FaultClass(Sequence):
    """A whole fault class as an index-addressable descriptor.

    Behaves like the materialized fault list it replaces — same length,
    same ordering, same elements — but holds only the enumeration
    parameters: ``len`` is O(1), ``cls[i]`` materializes exactly one
    :class:`Fault`, and iteration yields faults one at a time, so a
    megaword campaign never holds millions of fault objects at once.
    Slicing materializes a plain list (slices are only taken for small
    windows: kept-missed samples, test fixtures).

    The class-level batch kernels dispatch on the concrete subclass and
    read the enumeration parameters directly; equality and hashing are
    by those parameters.
    """

    kind = "?"

    def __init__(self, n_words: int, width: int) -> None:
        self.n_words = n_words
        self.width = width

    # subclasses set self._length in __init__ and implement _fault_at
    def _fault_at(self, index: int) -> Fault:
        raise NotImplementedError

    def _spec(self) -> tuple:
        return (type(self).__name__, self.n_words, self.width)

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._fault_at(i) for i in range(*index.indices(self._length))]
        if index < 0:
            index += self._length
        if not 0 <= index < self._length:
            raise IndexError("fault index out of range")
        return self._fault_at(index)

    def __iter__(self) -> Iterator[Fault]:
        for i in range(self._length):
            yield self._fault_at(i)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FaultClass):
            return NotImplemented
        return self._spec() == other._spec()

    def __hash__(self) -> int:
        return hash(self._spec())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"{type(self).__name__}(n_words={self.n_words}, "
            f"width={self.width}, len={self._length})"
        )


def _second_of_pair(rem: int, first: int) -> int:
    """Decode the second element of an ``itertools.permutations(..., 2)``
    block: values in ascending order with *first* skipped."""
    return rem if rem < first else rem + 1


class StuckAtClass(FaultClass):
    """``enumerate_stuck_at`` order: cell-major, value 0 then 1."""

    kind = "SAF"
    variants = 2

    def __init__(self, n_words: int, width: int) -> None:
        super().__init__(n_words, width)
        self._length = 2 * n_words * width

    def _fault_at(self, index: int) -> StuckAtFault:
        cell_index, value = divmod(index, 2)
        addr, bit = divmod(cell_index, self.width)
        return StuckAtFault(Cell(addr, bit), value)


class TransitionClass(FaultClass):
    """``enumerate_transition`` order: cell-major, rising then falling."""

    kind = "TF"
    variants = 2

    def __init__(self, n_words: int, width: int) -> None:
        super().__init__(n_words, width)
        self._length = 2 * n_words * width

    def _fault_at(self, index: int) -> TransitionFault:
        cell_index, which = divmod(index, 2)
        addr, bit = divmod(cell_index, self.width)
        return TransitionFault(Cell(addr, bit), rising=which == 0)


class ReadDisturbClass(FaultClass):
    """``enumerate_read_disturb`` order for one flavour: cell-major."""

    variants = 1

    def __init__(self, n_words: int, width: int, *, deceptive: bool) -> None:
        super().__init__(n_words, width)
        self.deceptive = deceptive
        self._length = n_words * width

    @property
    def kind(self) -> str:
        return "DRDF" if self.deceptive else "RDF"

    def _spec(self) -> tuple:
        return (type(self).__name__, self.n_words, self.width, self.deceptive)

    def _fault_at(self, index: int) -> ReadDisturbFault:
        addr, bit = divmod(index, self.width)
        return ReadDisturbFault(Cell(addr, bit), deceptive=self.deceptive)


_CF_VARIANTS = {"CFst": 4, "CFid": 4, "CFin": 2}


def _cf_variant(
    cf_kind: str, aggressor: Cell, victim: Cell, variant: int
) -> CouplingFault:
    """Variant *variant* of ``_coupling_variants`` for one cell pair."""
    if cf_kind == "CFst":
        y, x = divmod(variant, 2)
        return StateCouplingFault(aggressor, victim, y, x)
    if cf_kind == "CFid":
        half, x = divmod(variant, 2)
        return IdempotentCouplingFault(aggressor, victim, half == 0, x)
    return InversionCouplingFault(aggressor, victim, variant == 0)


class IntraWordCFClass(FaultClass):
    """``enumerate_intra_word_cf`` order for one CF kind: address-major,
    then ordered bit pairs (``permutations(range(width), 2)``), then the
    kind's parameter variants."""

    def __init__(self, n_words: int, width: int, cf_kind: str) -> None:
        super().__init__(n_words, width)
        if cf_kind not in _CF_VARIANTS:
            raise ValueError(f"unknown coupling kind {cf_kind!r}")
        self.cf_kind = cf_kind
        self.variants = _CF_VARIANTS[cf_kind]
        self.n_pairs = width * (width - 1)
        self._length = n_words * self.n_pairs * self.variants

    @property
    def kind(self) -> str:
        return self.cf_kind

    def _spec(self) -> tuple:
        return (type(self).__name__, self.n_words, self.width, self.cf_kind)

    def pair_bits(self, pair_index: int) -> tuple[int, int]:
        a_bit, rem = divmod(pair_index, self.width - 1)
        return a_bit, _second_of_pair(rem, a_bit)

    def _fault_at(self, index: int) -> CouplingFault:
        addr, rem = divmod(index, self.n_pairs * self.variants)
        pair_index, variant = divmod(rem, self.variants)
        a_bit, v_bit = self.pair_bits(pair_index)
        return _cf_variant(
            self.cf_kind, Cell(addr, a_bit), Cell(addr, v_bit), variant
        )


class InterWordCFClass(FaultClass):
    """``enumerate_inter_word_cf`` order for one CF kind.

    Cell pairs follow ``permutations(range(n_words), 2)`` crossed with
    bit positions; when the pair count exceeds *max_pairs* the same
    down-sampling as the eager enumerator is applied, drawing pair
    *indices* from *rng* at construction time — ``random.Random.sample``
    selects positions independently of element values, so the selection
    is bit-identical to sampling the materialized pair list, and the
    shared campaign RNG is consumed in the same order as before.
    """

    def __init__(
        self,
        n_words: int,
        width: int,
        cf_kind: str,
        *,
        same_bit_only: bool = True,
        max_pairs: int | None = None,
        rng: random.Random | None = None,
    ) -> None:
        super().__init__(n_words, width)
        if cf_kind not in _CF_VARIANTS:
            raise ValueError(f"unknown coupling kind {cf_kind!r}")
        self.cf_kind = cf_kind
        self.variants = _CF_VARIANTS[cf_kind]
        self.same_bit_only = same_bit_only
        bits = width if same_bit_only else width * width
        total_pairs = n_words * (n_words - 1) * bits
        self.pair_indices: tuple[int, ...] | None = None
        if max_pairs is not None and total_pairs > max_pairs:
            rng = rng if rng is not None else random.Random(0)
            self.pair_indices = tuple(rng.sample(range(total_pairs), max_pairs))
            self.n_pairs = max_pairs
        else:
            self.n_pairs = total_pairs
        self._length = self.n_pairs * self.variants

    @property
    def kind(self) -> str:
        return self.cf_kind

    def _spec(self) -> tuple:
        return (
            type(self).__name__,
            self.n_words,
            self.width,
            self.cf_kind,
            self.same_bit_only,
            self.pair_indices,
        )

    def pair_cells(self, pair_pos: int) -> tuple[Cell, Cell]:
        flat = (
            self.pair_indices[pair_pos]
            if self.pair_indices is not None
            else pair_pos
        )
        if self.same_bit_only:
            perm, a_bit = divmod(flat, self.width)
            v_bit = a_bit
        else:
            perm, rem = divmod(flat, self.width * self.width)
            a_bit, v_bit = divmod(rem, self.width)
        a_addr, rem = divmod(perm, self.n_words - 1)
        v_addr = _second_of_pair(rem, a_addr)
        return Cell(a_addr, a_bit), Cell(v_addr, v_bit)

    @functools.cached_property
    def cells(self) -> tuple[tuple[Cell, Cell], ...]:
        """Every cell pair in class order (:meth:`pair_cells`), built
        once per instance for the pair-lane kernels; left out of the
        pickled state, which stays the enumeration parameters."""
        return tuple(map(self.pair_cells, range(self.n_pairs)))

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("cells", None)
        return state

    def _fault_at(self, index: int) -> CouplingFault:
        pair_pos, variant = divmod(index, self.variants)
        aggressor, victim = self.pair_cells(pair_pos)
        return _cf_variant(self.cf_kind, aggressor, victim, variant)


class AddressFaultClass(FaultClass):
    """``enumerate_address_faults`` order: the ``n`` AF-1 faults, then
    AF-2/AF-3 for every ordered address pair."""

    kind = "AF"

    def __init__(self, n_words: int, *, wired_or: bool = False) -> None:
        super().__init__(n_words, 1)
        self.wired_or = wired_or
        self._length = n_words + 2 * n_words * (n_words - 1)

    def _spec(self) -> tuple:
        return (type(self).__name__, self.n_words, self.wired_or)

    def _fault_at(self, index: int) -> AddressDecoderFault:
        if index < self.n_words:
            return AddressDecoderFault(index, "none")
        perm, which = divmod(index - self.n_words, 2)
        addr, rem = divmod(perm, self.n_words - 1)
        other = _second_of_pair(rem, addr)
        if which == 0:
            return AddressDecoderFault(addr, "other", other)
        return AddressDecoderFault(addr, "multi", other, wired_or=self.wired_or)


def standard_fault_universe(
    n_words: int,
    width: int,
    *,
    max_inter_pairs: int | None = None,
    rng: random.Random | None = None,
    include_rdf: bool = False,
    include_af: bool = False,
    streaming: bool = True,
) -> dict[str, Sequence[Fault]]:
    """The Section 2 fault universe grouped by class name.

    Keys: ``SAF``, ``TF``, ``CFst-intra``, ``CFid-intra``, ``CFin-intra``,
    ``CFst-inter``, ``CFid-inter``, ``CFin-inter``; with
    ``include_rdf`` also ``RDF`` and ``DRDF``, with ``include_af`` also
    ``AF`` (the extension classes of benchmark E8 — off by default so
    the Section 5 equality experiments keep their historical class
    set).

    By default the values are streaming :class:`FaultClass` descriptors
    (O(1) ``len``, per-index fault materialization) in the exact order
    of the eager enumerators; ``streaming=False`` restores materialized
    lists.  Both forms consume *rng* identically — the inter-word CF
    classes draw their down-sample at construction, in dict order — so
    a given seed selects the same sampled pairs either way.
    """
    if streaming:
        universe: dict[str, Sequence[Fault]] = {
            "SAF": StuckAtClass(n_words, width),
            "TF": TransitionClass(n_words, width),
        }
        for kind in _CF_KINDS:
            universe[f"{kind}-intra"] = IntraWordCFClass(n_words, width, kind)
            universe[f"{kind}-inter"] = InterWordCFClass(
                n_words, width, kind, max_pairs=max_inter_pairs, rng=rng
            )
        if include_rdf:
            universe["RDF"] = ReadDisturbClass(n_words, width, deceptive=False)
            universe["DRDF"] = ReadDisturbClass(n_words, width, deceptive=True)
        if include_af:
            universe["AF"] = AddressFaultClass(n_words)
        return universe

    universe = {
        "SAF": list(enumerate_stuck_at(n_words, width)),
        "TF": list(enumerate_transition(n_words, width)),
    }
    for kind in _CF_KINDS:
        universe[f"{kind}-intra"] = list(
            enumerate_intra_word_cf(n_words, width, (kind,))
        )
        universe[f"{kind}-inter"] = list(
            enumerate_inter_word_cf(
                n_words, width, (kind,), max_pairs=max_inter_pairs, rng=rng
            )
        )
    if include_rdf:
        universe["RDF"] = list(
            enumerate_read_disturb(n_words, width, deceptive=False)
        )
        universe["DRDF"] = list(
            enumerate_read_disturb(n_words, width, deceptive=True)
        )
    if include_af:
        universe["AF"] = list(enumerate_address_faults(n_words))
    return universe
