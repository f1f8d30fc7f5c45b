"""Packed verdict bitsets: the class-level result containers.

A campaign's per-class result used to be a Python list of one bool (or
``(stream_hit, signature_hit)`` tuple) per fault — linear Python-object
work to build, transport, and count.  The containers here store the
same verdicts as a handful of big integers:

* :class:`PackedVerdicts` — one detection bit per fault;
* :class:`PackedPairVerdicts` — the aliasing-mode pair of bit planes.

Layout.  A fault class enumerates as ``slot``-major runs of ``stride``
parameter variants (e.g. SAF: cell-major, value 0 then 1 → stride 2).
The verdict of fault ``i`` lives at bit ``(i // stride) * slot_stride``
of ``vectors[i % stride]`` — one vector per variant, one (possibly
spaced) bit per slot.  ``slot_stride`` lets a kernel hand over its
natural geometry without recompaction: the intra-word coupling passes
produce one detection bit per *word lane* (slot = address, spacing =
word width), which plugs in directly as ``slot_stride = width``.

Counting is ``int.bit_count`` over the vectors, transport (pickling to
the pool parent) is a few bytes per 8 faults, and the undetected-fault
sample needed for reports is recovered with lowest-set-bit extraction
on the inverted vectors — no per-fault iteration anywhere.
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


class PackedVerdicts(Sequence):
    """Boolean verdicts of one fault class as packed bit vectors."""

    __slots__ = ("n", "stride", "slot_stride", "vectors")

    def __init__(
        self,
        n: int,
        vectors: Sequence[int],
        *,
        stride: int = 1,
        slot_stride: int = 1,
    ) -> None:
        if stride < 1 or slot_stride < 1:
            raise ValueError("stride and slot_stride must be >= 1")
        if len(vectors) != stride:
            raise ValueError("need exactly one vector per stride variant")
        if n % stride:
            raise ValueError("fault count must be a multiple of stride")
        valid = _valid_mask(n // stride, slot_stride)
        self.n = n
        self.stride = stride
        self.slot_stride = slot_stride
        self.vectors = tuple(v & valid for v in vectors)

    @classmethod
    def from_bools(cls, verdicts: Iterable[object]) -> "PackedVerdicts":
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
            if verdict:
                packed |= 1 << n
            n += 1
        return cls(n, (packed,))

    @classmethod
    def concat(cls, parts: Sequence["PackedVerdicts"]) -> "PackedVerdicts":
        """Join stride-1 chunk results back into one class vector."""
        packed = 0
        offset = 0
        for part in parts:
            if part.stride != 1 or part.slot_stride != 1:
                raise ValueError("concat only supports flat (stride 1) chunks")
            packed |= part.vectors[0] << offset
            offset += part.n
        return cls(offset, (packed,))

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(self.n))]
        if index < 0:
            index += self.n
        if not 0 <= index < self.n:
            raise IndexError("verdict index out of range")
        slot, variant = divmod(index, self.stride)
        return bool((self.vectors[variant] >> (slot * self.slot_stride)) & 1)

    def __iter__(self) -> Iterator[bool]:
        if self.stride == 1 and self.slot_stride == 1:
            vector = self.vectors[0]
            for i in range(self.n):
                yield bool((vector >> i) & 1)
            return
        for i in range(self.n):
            yield self[i]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PackedVerdicts):
            return self.n == other.n and self.tolist() == other.tolist()
        if isinstance(other, list):
            return self.tolist() == other
        return NotImplemented

    def __hash__(self) -> None:  # pragma: no cover - mutable-equality type
        raise TypeError("PackedVerdicts is unhashable")

    def __reduce__(self):
        return (
            _rebuild_verdicts,
            (self.n, self.vectors, self.stride, self.slot_stride),
        )

    def count(self) -> int:
        """Number of detected faults (popcount over the vectors)."""
        return sum(v.bit_count() for v in self.vectors)

    def missed_indices(self, limit: int | None = None) -> list[int]:
        """Fault indices with a False verdict, ascending, capped at
        *limit*.

        The first *limit* misses in (slot, variant) order lie in the
        lowest slots, so only a low window of slots is scanned: it
        starts at ``ceil(limit / stride)`` slots and grows 4x until it
        holds *limit* misses or covers every slot.  Each vector is cut
        to the window before it is inverted, so the cost follows the
        window, not the class size."""
        limit = self.n if limit is None else min(limit, self.n)
        if limit <= 0:
            return []
        slots = self.n // self.stride
        window = -(-limit // self.stride)
        while True:
            window = min(window, slots)
            out = self._missed_in(_valid_mask(window, self.slot_stride), limit)
            if len(out) == limit or window == slots:
                return out
            window *= 4

    def _missed_in(self, low: int, limit: int) -> list[int]:
        """The first *limit* misses among the slots set in *low*."""
        out: list[int] = []
        per_variant = [
            _lowest_bits((vector & low) ^ low, limit) for vector in self.vectors
        ]
        cursors = [0] * self.stride
        while len(out) < limit:
            best = None
            for variant, bits in enumerate(per_variant):
                cursor = cursors[variant]
                if cursor >= len(bits):
                    continue
                slot = bits[cursor] // self.slot_stride
                if best is None or (slot, variant) < best[:2]:
                    best = (slot, variant)
            if best is None:
                break
            slot, variant = best
            cursors[variant] += 1
            out.append(slot * self.stride + variant)
        return out

    def tolist(self) -> list[bool]:
        return list(self)


def _rebuild_verdicts(n, vectors, stride, slot_stride):
    return PackedVerdicts(n, vectors, stride=stride, slot_stride=slot_stride)


class PackedPairVerdicts(Sequence):
    """Aliasing-mode ``(stream_hit, signature_hit)`` verdicts, packed.

    Two parallel :class:`PackedVerdicts`-layout vector sets share one
    geometry; item access recovers the legacy tuple form, while the
    campaign counters come straight off the planes — in particular the
    aliased count is ``popcount(stream & ~signature)`` per vector.
    """

    __slots__ = ("stream", "signature")

    def __init__(self, stream: PackedVerdicts, signature: PackedVerdicts) -> None:
        if (
            stream.n != signature.n
            or stream.stride != signature.stride
            or stream.slot_stride != signature.slot_stride
        ):
            raise ValueError("stream/signature planes must share geometry")
        self.stream = stream
        self.signature = signature

    @classmethod
    def from_pairs(cls, verdicts: Iterable[object]) -> "PackedPairVerdicts":
        """Pack per-fault ``(stream_hit, signature_hit)`` tuples
        (strict, mirroring the list pipeline's verdict validation)."""
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
            if verdict[0]:
                stream |= 1 << n
            if verdict[1]:
                signature |= 1 << n
            n += 1
        return cls(PackedVerdicts(n, (stream,)), PackedVerdicts(n, (signature,)))

    @classmethod
    def concat(cls, parts: Sequence["PackedPairVerdicts"]) -> "PackedPairVerdicts":
        return cls(
            PackedVerdicts.concat([part.stream for part in parts]),
            PackedVerdicts.concat([part.signature for part in parts]),
        )

    @property
    def n(self) -> int:
        return self.stream.n

    def __len__(self) -> int:
        return self.stream.n

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(self.n))]
        return (self.stream[index], self.signature[index])

    def __iter__(self) -> Iterator[tuple[bool, bool]]:
        return iter(zip(self.stream, self.signature, strict=True))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PackedPairVerdicts):
            return self.tolist() == other.tolist()
        if isinstance(other, list):
            return self.tolist() == other
        return NotImplemented

    def __hash__(self) -> None:  # pragma: no cover - mutable-equality type
        raise TypeError("PackedPairVerdicts is unhashable")

    def __reduce__(self):
        return (PackedPairVerdicts, (self.stream, self.signature))

    def count(self) -> int:
        """Detected faults — signature-visible hits, matching the list
        pipeline's use of the pair's second component."""
        return self.signature.count()

    def stream_count(self) -> int:
        return self.stream.count()

    def aliased_count(self) -> int:
        """Stream-caught faults whose MISR signature still matched."""
        return sum(
            (s & ~g).bit_count()
            for s, g in zip(self.stream.vectors, self.signature.vectors)
        )

    def missed_indices(self, limit: int | None = None) -> list[int]:
        """Indices missed by the *signature* verdict (report semantics)."""
        return self.signature.missed_indices(limit)

    def tolist(self) -> list[tuple[bool, bool]]:
        return list(self)
