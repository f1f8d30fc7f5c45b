"""Plane verdicts: the class-level result container.

A campaign's per-class result is one detection bit per fault (in
aliasing mode, a ``(stream_hit, signature_hit)`` pair).  The class
kernels compute those bits as whole packed planes, and
:class:`PlaneVerdicts` keeps the planes exactly as a kernel hands them
over, together with a layout that places every fault on one bit:

* a class enumerates as ``slot``-major runs of ``stride`` variants, so
  fault ``i`` is variant ``j = i % stride`` of slot ``i // stride``;
* ``places[j] = (p_j, o_j)`` names variant ``j``'s plane and its offset
  inside a slot's ``slot_stride`` bits (``stride = len(places)``);
* the verdict of fault ``i`` is bit ``slot * slot_stride + o_j`` of
  ``planes[p_j]``.

The optional slot→lane map ``lanes`` (an :class:`array.array` of
unsigned lane indices, one per slot) lets many slots share one lane:
slot ``s`` then reads lane ``lanes[s]`` of the planes, at bit ``lanes[s]
* slot_stride + o_j``.  Without it, slot = lane.

The compare kernels of single-word faults (TF, RDF/DRDF, intra-word CF)
run over *content lanes*, one lane per distinct initial word value, and
hand over one plane per variant (TF, RDF) or per (aggressor bit ``a``,
variant) pass (intra-word CF) with the map from address to lane: slot =
address, ``slot_stride = width``, and the cell's (victim's) bit is the
offset.  SAF planes and the session kernels' word lanes are per cell:
one plane per variant, offset 0, one bit per cell.  The pair-lane
kernels (AF, inter-word CF) hand over one plane with each lane's
verdict at its bit 0, ``slot_stride`` = the lane stride.  The pair form
carries a second plane set, ``streams``, in the same layout beside the
signature planes.

A kernel must hand over planes with no bit outside the layout of its
lanes; nothing is re-masked here.  Counting is then one ``bit_count``
per plane, or with a map one per plane and bit ``j`` of the lanes'
multiplicities (``sum_j popcount(plane & M_j) << j``, ``M_j`` the lanes
that bit ``j`` of their slot count selects).  Transport (pickling to
the pool parent) ships the planes and the map as they are.  The
undetected-fault sample for reports inverts each plane against its own
valid bits in a low window of slots, or with a map in every lane and
then finds the slots of the missing lanes in address order.  Indexing
decodes on demand from bytes of the planes, made once; nothing else
iterates.
"""

from __future__ import annotations

import functools
from array import array
from collections import Counter
from typing import Iterable, Iterator, Sequence

from .program import pack_words


def _valid_mask(slots: int, slot_stride: int) -> int:
    """Bits ``slot * slot_stride`` for ``slot in range(slots)``."""
    if slots == 0:
        return 0
    if slot_stride == 1:
        return (1 << slots) - 1
    return ((1 << (slots * slot_stride)) - 1) // ((1 << slot_stride) - 1)


def _lowest_bits(value: int, limit: int) -> list[int]:
    """Positions of the *limit* lowest set bits of *value*."""
    out: list[int] = []
    while value and len(out) < limit:
        low = value & -value
        out.append(low.bit_length() - 1)
        value ^= low
    return out


# Both caches are keyed by a slot→lane map's bytes and typecode, so the
# classes of one campaign, which share one map, count it once.


@functools.lru_cache(maxsize=8)
def _slot_counts(lanes: bytes, typecode: str) -> tuple[int, ...]:
    """How many slots read each lane of a map."""
    counts = Counter(memoryview(lanes).cast(typecode))
    return tuple(counts[lane] for lane in range(max(counts, default=-1) + 1))


@functools.lru_cache(maxsize=8)
def _multiplicity_masks(
    lanes: bytes, typecode: str, slot_stride: int
) -> tuple[int, ...]:
    """``M_j`` of a map: every ``slot_stride`` bits of the lanes whose
    slot count has bit ``j`` set."""
    per_lane = _slot_counts(lanes, typecode)
    spread = (1 << slot_stride) - 1
    return tuple(
        pack_words([(c >> j) & 1 for c in per_lane], slot_stride) * spread
        for j in range(max(per_lane, default=0).bit_length())
    )


class PlaneVerdicts(Sequence):
    """Verdicts of one fault class: kernel planes plus their layout.

    Item access yields a bool, or a ``(stream_hit, signature_hit)``
    tuple in the pair form (``streams`` set); the counters and
    :meth:`missed_indices` follow the signature planes.  *lanes*, when
    given, maps each slot to the lane of the planes it reads."""

    __slots__ = (
        "n", "planes", "places", "slot_stride", "streams", "lanes", "_bytes"
    )

    def __init__(
        self,
        n: int,
        planes: Sequence[int],
        places: Sequence[tuple[int, int]] | None = None,
        slot_stride: int = 1,
        streams: Sequence[int] | None = None,
        lanes: array | None = None,
    ) -> None:
        self.planes = tuple(planes)
        self.places = (
            tuple((p, 0) for p in range(len(self.planes)))
            if places is None
            else tuple(places)
        )
        if n % len(self.places):
            raise ValueError("fault count must be a multiple of the layout stride")
        if streams is not None and len(streams) != len(self.planes):
            raise ValueError("stream and signature planes must pair up")
        if lanes is not None and len(lanes) != n // len(self.places):
            raise ValueError("the lane map must hold one lane per slot")
        self.n = n
        self.slot_stride = slot_stride
        self.streams = None if streams is None else tuple(streams)
        self.lanes = lanes
        self._bytes: tuple[list[bytes], list[bytes]] | None = None

    @classmethod
    def from_bools(cls, verdicts: Iterable[object]) -> "PlaneVerdicts":
        """Pack a per-fault bool list (strict: rejects non-bool verdicts,
        preserving the tuple-truthiness guard of the list pipeline)."""
        packed = 0
        n = 0
        for verdict in verdicts:
            if not isinstance(verdict, bool):
                raise TypeError(
                    "expected a bool verdict, got "
                    f"{type(verdict).__name__}: {verdict!r}"
                )
            packed |= verdict << n
            n += 1
        return cls(n, (packed,))

    @classmethod
    def from_pairs(cls, verdicts: Iterable[object]) -> "PlaneVerdicts":
        """Pack per-fault ``(stream_hit, signature_hit)`` tuples into the
        pair form (strict, mirroring the list pipeline's validation)."""
        stream = 0
        signature = 0
        n = 0
        for verdict in verdicts:
            if (
                not isinstance(verdict, tuple)
                or len(verdict) != 2
                or not isinstance(verdict[0], bool)
                or not isinstance(verdict[1], bool)
            ):
                raise TypeError(
                    "expected a (stream_hit, signature_hit) bool pair, got "
                    f"{type(verdict).__name__}: {verdict!r}"
                )
            stream |= verdict[0] << n
            signature |= verdict[1] << n
            n += 1
        return cls(n, (signature,), streams=(stream,))

    @classmethod
    def concat(cls, parts: Sequence["PlaneVerdicts"]) -> "PlaneVerdicts":
        """Join flat (stride 1, one bit per fault) chunk results back
        into one class result."""
        signature = stream = offset = 0
        for part in parts:
            if (
                part.places != ((0, 0),)
                or part.slot_stride != 1
                or part.lanes is not None
            ):
                raise ValueError("concat only supports flat (stride 1) chunks")
            signature |= part.planes[0] << offset
            if part.streams is not None:
                stream |= part.streams[0] << offset
            offset += part.n
        paired = bool(parts) and parts[0].streams is not None
        return cls(offset, (signature,), streams=(stream,) if paired else None)

    @property
    def signature(self) -> "PlaneVerdicts":
        """The bool verdicts of the signature planes alone."""
        return PlaneVerdicts(
            self.n, self.planes, self.places, self.slot_stride, lanes=self.lanes
        )

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(self.n))]
        if index < 0:
            index += self.n
        if not 0 <= index < self.n:
            raise IndexError("verdict index out of range")
        return self.select((index,))[0]

    def __iter__(self) -> Iterator:
        return iter(self.tolist())

    def _lane_count(self) -> int:
        """Lanes of the planes: one per slot, or the map's largest + 1."""
        if self.lanes is None:
            return self.n // len(self.places)
        return len(_slot_counts(self.lanes.tobytes(), self.lanes.typecode))

    def select(self, indices: Iterable[int]) -> list:
        """The verdicts of the faults at *indices*.  The planes are
        turned into bytes on the first call and kept, so a bit test
        costs O(1) instead of a shift of the whole plane."""
        stride = len(self.places)
        if self._bytes is None:
            size = self._lane_count() * self.slot_stride // 8 + 1
            self._bytes = tuple(
                [plane.to_bytes(size, "little") for plane in planes]
                for planes in (self.planes, self.streams or ())
            )
        signature, streams = self._bytes
        lanes = self.lanes
        out = []
        for index in indices:
            slot, j = divmod(index, stride)
            if lanes is not None:
                slot = lanes[slot]
            plane, offset = self.places[j]
            byte, shift = divmod(slot * self.slot_stride + offset, 8)
            hit = bool((signature[plane][byte] >> shift) & 1)
            out.append((bool((streams[plane][byte] >> shift) & 1), hit) if streams else hit)
        return out

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PlaneVerdicts):
            return self.n == other.n and self.tolist() == other.tolist()
        if isinstance(other, list):
            return self.tolist() == other
        return NotImplemented

    def __hash__(self) -> None:  # pragma: no cover - mutable-equality type
        raise TypeError("PlaneVerdicts is unhashable")

    def __reduce__(self):
        return (
            PlaneVerdicts,
            (
                self.n, self.planes, self.places, self.slot_stride,
                self.streams, self.lanes,
            ),
        )

    def _popcount(self, planes: Iterable[int]) -> int:
        """Set layout bits of *planes*, each lane weighted by its slot
        count under a map."""
        if self.lanes is None:
            return sum(plane.bit_count() for plane in planes)
        masks = _multiplicity_masks(
            self.lanes.tobytes(), self.lanes.typecode, self.slot_stride
        )
        return sum(
            (plane & mask).bit_count() << j
            for plane in planes
            for j, mask in enumerate(masks)
        )

    def count(self) -> int:
        """Detected faults: one popcount per (signature) plane, and per
        multiplicity bit under a map."""
        return self._popcount(self.planes)

    def stream_count(self) -> int:
        """Stream-caught faults (pair form)."""
        return self._popcount(self.streams)

    def aliased_count(self) -> int:
        """Stream-caught faults whose MISR signature still matched."""
        return self._popcount(
            stream & ~signature
            for stream, signature in zip(self.streams, self.planes)
        )

    def missed_indices(self, limit: int | None = None) -> list[int]:
        """Fault indices with a False (signature) verdict, ascending,
        capped at *limit*.

        The first *limit* misses in (slot, variant) order lie in the
        lowest slots, so only a low window of slots is scanned: it
        starts at ``ceil(limit / stride)`` slots and grows 4x until it
        holds *limit* misses or covers every slot.  Each plane is
        inverted against its own valid offsets in the window only (an
        intra-word CF plane never carries its aggressor bit).  Bit order
        in a plane follows fault order across slots but not inside one,
        so a plane with ``k`` offsets yields its ``limit + k - 1`` lowest
        misses, which hold its first *limit* in fault order; they map
        back to fault indices and the planes' candidates merge in
        sorted order."""
        limit = self.n if limit is None else min(limit, self.n)
        if limit <= 0:
            return []
        stride = len(self.places)
        slots = self.n // stride
        offsets: dict[int, int] = {}
        for plane, offset in self.places:
            offsets[plane] = offsets.get(plane, 0) | (1 << offset)
        if self.lanes is not None:
            return self._missed_through_lanes(limit, offsets)
        variant = {place: j for j, place in enumerate(self.places)}
        window = -(-limit // stride)
        while True:
            window = min(window, slots)
            low = _valid_mask(window, self.slot_stride)
            out = []
            for plane, mask in offsets.items():
                valid = low * mask
                missed = (self.planes[plane] & valid) ^ valid
                for bit in _lowest_bits(missed, limit + mask.bit_count() - 1):
                    slot, offset = divmod(bit, self.slot_stride)
                    out.append(slot * stride + variant[plane, offset])
            if len(out) >= limit or window == slots:
                return sorted(out)[:limit]
            window *= 4

    def _missed_through_lanes(
        self, limit: int, offsets: dict[int, int]
    ) -> list[int]:
        """:meth:`missed_indices` under a map.  Every lane's misses (the
        planes inverted against their valid offsets) fold onto one flag
        per lane; the map turns the flags into one byte per slot (a
        table lookup), and only the flagged slots, in ascending order,
        are decoded until *limit* misses are out."""
        stride = len(self.places)
        width = self.slot_stride
        n_lanes = self._lane_count()
        valid = _valid_mask(n_lanes, width)
        missed = 0
        for plane, mask in offsets.items():
            missed |= (self.planes[plane] & valid * mask) ^ valid * mask
        if not missed:
            return []
        folded = missed
        for shift in range(1, width):
            folded |= missed >> shift
        # Bit lane*width of *folded* flags the lane: '1' per lane below.
        flags = format(folded, "b")[::-1].ljust(n_lanes * width, "0")[::width]
        table = flags.encode()
        if self.lanes.typecode == "B":
            per_slot = self.lanes.tobytes().translate(table.ljust(256, b"0"))
        else:
            per_slot = bytes(map(table.__getitem__, self.lanes))
        signature = self if self.streams is None else self.signature
        out: list[int] = []
        slot = per_slot.find(b"1")
        while slot != -1 and len(out) < limit:
            first = slot * stride
            hits = signature.select(range(first, first + stride))
            out.extend(first + j for j, hit in enumerate(hits) if not hit)
            slot = per_slot.find(b"1", slot + 1)
        return out[:limit]

    def tolist(self) -> list:
        return self.select(range(self.n))
