"""Fault diagnosis from transparent-test read logs.

The paper's introduction positions BIST as a vehicle for embedded
memory "testing and diagnosis"; this module provides the diagnosis
half: given the mismatching reads of a test session (the alias-free
compare oracle's records), localize the defect and classify its likely
fault model.

The classifier is heuristic but grounded in the models' signatures:

* a **SAF** cell fails in one polarity only — every mismatching read of
  the cell observed the same wrong value;
* a **TF** cell holds a stale value right after the blocked transition,
  i.e. mismatches appear only on reads expecting one polarity and the
  first failing read of a visit follows a write;
* a **coupling** defect shows one failing victim cell whose errors
  correlate with operations elsewhere (or, intra-word, with writes to
  the same word);
* **address-decoder** faults smear mismatches across whole words or
  multiple addresses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..bist.executor import ReadRecord, RunResult, run_march
from ..core.march import MarchTest
from ..memory.model import Memory


@dataclass
class CellObservation:
    """Mismatch statistics for one cell (word address, bit position)."""

    addr: int
    bit: int
    errors: int = 0
    wrong_zero: int = 0  # read 0 where 1 expected
    wrong_one: int = 0  # read 1 where 0 expected
    clean_zero: int = 0  # read 0 where 0 expected
    clean_one: int = 0  # read 1 where 1 expected

    @property
    def always_reads_zero(self) -> bool:
        """Consistent with a cell pinned at 0: every read returned 0."""
        return self.wrong_zero > 0 and self.wrong_one == 0 and self.clean_one == 0

    @property
    def always_reads_one(self) -> bool:
        """Consistent with a cell pinned at 1: every read returned 1."""
        return self.wrong_one > 0 and self.wrong_zero == 0 and self.clean_zero == 0


@dataclass
class Diagnosis:
    """Outcome of analysing a faulty session's read records."""

    suspects: list[CellObservation] = field(default_factory=list)
    failing_addresses: list[int] = field(default_factory=list)
    classification: str = "no-fault"
    detail: str = ""

    @property
    def detected(self) -> bool:
        return bool(self.suspects)

    def suspect_cells(self) -> set[tuple[int, int]]:
        return {(s.addr, s.bit) for s in self.suspects}

    def render(self) -> str:
        if not self.detected:
            return "diagnosis: no fault observed"
        lines = [f"diagnosis: {self.classification} — {self.detail}"]
        for s in self.suspects:
            lines.append(
                f"  cell ({s.addr},{s.bit}): {s.errors} failing reads "
                f"({s.wrong_zero}x read-0-expected-1, "
                f"{s.wrong_one}x read-1-expected-0)"
            )
        return "\n".join(lines)


def analyse_records(records: list[ReadRecord], width: int) -> Diagnosis:
    """Build a :class:`Diagnosis` from collected read records."""
    # Pass 1: find the failing cells.
    failing: set[tuple[int, int]] = set()
    for record in records:
        delta = record.raw ^ record.expected
        bit = 0
        while delta:
            if delta & 1:
                failing.add((record.addr, bit))
            delta >>= 1
            bit += 1

    # Pass 2: full statistics for every failing cell (including clean
    # reads that happened before the first observed error).
    cells: dict[tuple[int, int], CellObservation] = {
        key: CellObservation(*key) for key in failing
    }
    for record in records:
        delta = record.raw ^ record.expected
        for addr, bit in failing:
            if addr != record.addr:
                continue
            got = (record.raw >> bit) & 1
            obs = cells[(addr, bit)]
            if (delta >> bit) & 1:
                obs.errors += 1
                if got:
                    obs.wrong_one += 1
                else:
                    obs.wrong_zero += 1
            else:
                if got:
                    obs.clean_one += 1
                else:
                    obs.clean_zero += 1

    suspects = sorted(
        (o for o in cells.values() if o.errors),
        key=lambda o: (-o.errors, o.addr, o.bit),
    )
    diagnosis = Diagnosis(suspects=suspects)
    diagnosis.failing_addresses = sorted({o.addr for o in suspects})
    if not suspects:
        return diagnosis
    diagnosis.classification, diagnosis.detail = _classify(suspects, width)
    return diagnosis


def _classify(
    suspects: list[CellObservation], width: int
) -> tuple[str, str]:
    addrs = {s.addr for s in suspects}
    if len(suspects) == 1:
        s = suspects[0]
        if s.always_reads_zero:
            return "stuck-at-0", f"cell ({s.addr},{s.bit}) only ever reads 0"
        if s.always_reads_one:
            return "stuck-at-1", f"cell ({s.addr},{s.bit}) only ever reads 1"
        if s.wrong_zero > 0 and s.wrong_one == 0:
            return (
                "transition-or-state",
                f"cell ({s.addr},{s.bit}) intermittently holds 0 "
                "(transition fault or coupled victim)",
            )
        if s.wrong_one > 0 and s.wrong_zero == 0:
            return (
                "transition-or-state",
                f"cell ({s.addr},{s.bit}) intermittently holds 1 "
                "(transition fault or coupled victim)",
            )
        return (
            "coupled-victim",
            f"cell ({s.addr},{s.bit}) fails in both polarities "
            "(inversion coupling or disturb)",
        )
    if len(addrs) == 1:
        addr = next(iter(addrs))
        if len(suspects) >= max(2, width // 2):
            return (
                "address-or-word",
                f"word {addr} fails across {len(suspects)} bit positions",
            )
        return (
            "intra-word-coupling",
            f"{len(suspects)} cells of word {addr} fail",
        )
    if len(addrs) >= 2 and all(
        s.bit == suspects[0].bit for s in suspects
    ):
        return (
            "inter-word-coupling-or-column",
            f"bit {suspects[0].bit} fails at addresses {sorted(addrs)}",
        )
    return (
        "address-decoder",
        f"{len(suspects)} cells across addresses {sorted(addrs)} fail",
    )


def diagnose_memory(
    test: MarchTest, memory: Memory, *, derive_writes: bool = True
) -> Diagnosis:
    """Run *test* on *memory* with full record collection and analyse."""
    result: RunResult = run_march(
        test, memory, collect=True, derive_writes=derive_writes
    )
    return analyse_records(result.records, memory.width)
