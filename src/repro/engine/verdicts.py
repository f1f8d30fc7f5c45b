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

Word lanes (SAF/TF/RDF) hand over one plane per variant, offset 0, one
bit per cell.  The broadcast intra-word CF kernels hand over one plane
per (aggressor bit ``a``, variant) pass: slot = address, ``slot_stride
= width``, and the victim bit is the offset.  The pair-lane kernels (AF,
inter-word CF) hand over one plane with each lane's verdict at its bit
0, ``slot_stride`` = the lane stride.  The pair form carries a second
plane set, ``streams``, in the same layout beside the signature planes.

A kernel must hand over planes with no bit outside the layout; nothing
is re-masked here.  Counting is then one ``bit_count`` per plane,
transport (pickling to the pool parent) ships the planes as they are,
and the undetected-fault sample for reports inverts each plane against
its own valid bits in a low window of slots.  Indexing decodes on
demand from bytes of the planes, made once; nothing else iterates.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence


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


class PlaneVerdicts(Sequence):
    """Verdicts of one fault class: kernel planes plus their layout.

    Item access yields a bool, or a ``(stream_hit, signature_hit)``
    tuple in the pair form (``streams`` set); the counters and
    :meth:`missed_indices` follow the signature planes."""

    __slots__ = ("n", "planes", "places", "slot_stride", "streams", "_bytes")

    def __init__(
        self,
        n: int,
        planes: Sequence[int],
        places: Sequence[tuple[int, int]] | None = None,
        slot_stride: int = 1,
        streams: Sequence[int] | None = None,
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
        self.n = n
        self.slot_stride = slot_stride
        self.streams = None if streams is None else tuple(streams)
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
            if part.places != ((0, 0),) or part.slot_stride != 1:
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
        return PlaneVerdicts(self.n, self.planes, self.places, self.slot_stride)

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

    def select(self, indices: Iterable[int]) -> list:
        """The verdicts of the faults at *indices*.  The planes are
        turned into bytes on the first call and kept, so a bit test
        costs O(1) instead of a shift of the whole plane."""
        stride = len(self.places)
        if self._bytes is None:
            size = (self.n // stride) * self.slot_stride // 8 + 1
            self._bytes = tuple(
                [plane.to_bytes(size, "little") for plane in planes]
                for planes in (self.planes, self.streams or ())
            )
        signature, streams = self._bytes
        out = []
        for index in indices:
            slot, j = divmod(index, stride)
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
            (self.n, self.planes, self.places, self.slot_stride, self.streams),
        )

    def count(self) -> int:
        """Detected faults: one popcount per (signature) plane."""
        return sum(plane.bit_count() for plane in self.planes)

    def stream_count(self) -> int:
        """Stream-caught faults (pair form)."""
        return sum(plane.bit_count() for plane in self.streams)

    def aliased_count(self) -> int:
        """Stream-caught faults whose MISR signature still matched."""
        return sum(
            (stream & ~signature).bit_count()
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

    def tolist(self) -> list:
        return self.select(range(self.n))
