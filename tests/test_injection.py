"""Tests for fault-injection semantics and fault-universe enumeration."""

import random

import pytest

from repro.memory.faults import (
    AddressDecoderFault,
    Cell,
    IdempotentCouplingFault,
    InversionCouplingFault,
    ReadDisturbFault,
    StateCouplingFault,
    StuckAtFault,
    TransitionFault,
)
from repro.memory.injection import (
    FaultyMemory,
    enumerate_inter_word_cf,
    enumerate_intra_word_cf,
    enumerate_stuck_at,
    enumerate_transition,
    standard_fault_universe,
)


class TestStuckAtSemantics:
    def test_write_cannot_change_stuck_cell(self):
        m = FaultyMemory(2, 4, [StuckAtFault(Cell(0, 1), 0)])
        m.write(0, 0b1111)
        assert m.read(0) == 0b1101

    def test_stuck_at_one(self):
        m = FaultyMemory(2, 4, [StuckAtFault(Cell(0, 2), 1)])
        m.write(0, 0b0000)
        assert m.read(0) == 0b0100

    def test_load_enforces_stuck_value(self):
        m = FaultyMemory(2, 4, [StuckAtFault(Cell(1, 0), 1)])
        m.load([0b0000, 0b0000])
        assert m.read(1) == 0b0001

    def test_other_cells_unaffected(self):
        m = FaultyMemory(2, 4, [StuckAtFault(Cell(0, 0), 0)])
        m.write(1, 0b1111)
        assert m.read(1) == 0b1111

    def test_inject_after_construction(self):
        m = FaultyMemory(2, 4)
        m.fill(0b1111)
        m.inject(StuckAtFault(Cell(0, 3), 0))
        assert m.read(0) == 0b0111  # enforcement applies immediately


class TestTransitionSemantics:
    def test_rising_blocked(self):
        m = FaultyMemory(1, 4, [TransitionFault(Cell(0, 0), rising=True)])
        m.write(0, 0b0001)
        assert m.read(0) == 0b0000

    def test_rising_fault_allows_falling(self):
        m = FaultyMemory(1, 4, [TransitionFault(Cell(0, 0), rising=True)])
        m.load([0b0001])
        m.write(0, 0b0000)
        assert m.read(0) == 0b0000

    def test_falling_blocked(self):
        m = FaultyMemory(1, 4, [TransitionFault(Cell(0, 1), rising=False)])
        m.load([0b0010])
        m.write(0, 0b0000)
        assert m.read(0) == 0b0010

    def test_same_value_write_unaffected(self):
        m = FaultyMemory(1, 4, [TransitionFault(Cell(0, 1), rising=True)])
        m.load([0b0010])
        m.write(0, 0b0010)
        assert m.read(0) == 0b0010

    def test_load_bypasses_transition_fault(self):
        # Bulk loads model pre-existing content, not write operations.
        m = FaultyMemory(1, 4, [TransitionFault(Cell(0, 0), rising=True)])
        m.load([0b0001])
        assert m.read(0) == 0b0001


class TestStateCouplingSemantics:
    def test_forcing_on_aggressor_entry(self):
        # CFst<1;0>: aggressor (0,0) at 1 forces victim (1,0) to 0.
        f = StateCouplingFault(Cell(0, 0), Cell(1, 0), 1, 0)
        m = FaultyMemory(2, 4, [f])
        m.load([0, 0b0001])
        m.write(0, 0b0001)  # aggressor goes to 1
        assert m.read(1) == 0b0000

    def test_forcing_overrides_victim_write(self):
        f = StateCouplingFault(Cell(0, 0), Cell(1, 0), 1, 0)
        m = FaultyMemory(2, 4, [f])
        m.write(0, 1)  # condition active
        m.write(1, 1)  # write 1 to victim: forced back to 0
        assert m.read(1) == 0

    def test_no_forcing_when_condition_off(self):
        f = StateCouplingFault(Cell(0, 0), Cell(1, 0), 1, 0)
        m = FaultyMemory(2, 4, [f])
        m.write(0, 0)  # aggressor at 0: inactive
        m.write(1, 1)
        assert m.read(1) == 1

    def test_victim_keeps_value_after_condition_clears(self):
        f = StateCouplingFault(Cell(0, 0), Cell(1, 0), 1, 0)
        m = FaultyMemory(2, 4, [f])
        m.write(0, 1)
        m.write(1, 1)  # forced to 0
        m.write(0, 0)  # condition clears; victim stays 0
        assert m.read(1) == 0

    def test_load_enforces_condition(self):
        f = StateCouplingFault(Cell(0, 0), Cell(1, 0), 0, 1)
        m = FaultyMemory(2, 4, [f])
        m.load([0, 0])
        assert m.read(1) == 1

    def test_intra_word_forcing(self):
        # Within one word: aggressor bit 0 at 0 forces bit 1 to 1.
        f = StateCouplingFault(Cell(0, 0), Cell(0, 1), 0, 1)
        m = FaultyMemory(1, 4, [f])
        m.write(0, 0b0000)
        assert m.read(0) == 0b0010


class TestIdempotentCouplingSemantics:
    def test_up_transition_forces(self):
        f = IdempotentCouplingFault(Cell(0, 0), Cell(1, 0), rising=True, forced_value=1)
        m = FaultyMemory(2, 4, [f])
        m.write(0, 1)
        assert m.read(1) == 1

    def test_down_transition_ignored_by_up_fault(self):
        f = IdempotentCouplingFault(Cell(0, 0), Cell(1, 0), rising=True, forced_value=1)
        m = FaultyMemory(2, 4, [f])
        m.load([1, 0])
        m.write(0, 0)
        assert m.read(1) == 0

    def test_no_transition_no_effect(self):
        f = IdempotentCouplingFault(Cell(0, 0), Cell(1, 0), rising=True, forced_value=1)
        m = FaultyMemory(2, 4, [f])
        m.write(0, 0)  # 0 -> 0
        assert m.read(1) == 0

    def test_victim_can_recover(self):
        f = IdempotentCouplingFault(Cell(0, 0), Cell(1, 0), rising=True, forced_value=1)
        m = FaultyMemory(2, 4, [f])
        m.write(0, 1)  # victim forced to 1
        m.write(1, 0)  # no condition holding it: back to 0
        assert m.read(1) == 0

    def test_intra_word_simultaneous_write(self):
        # Writing the word flips the aggressor and the victim together;
        # the fault effect lands after the write.
        f = IdempotentCouplingFault(Cell(0, 0), Cell(0, 1), rising=True, forced_value=0)
        m = FaultyMemory(1, 4, [f])
        m.write(0, 0b0011)  # aggr bit0 up; victim bit1 forced to 0
        assert m.read(0) == 0b0001


class TestInversionCouplingSemantics:
    def test_inverts_on_up(self):
        f = InversionCouplingFault(Cell(0, 0), Cell(1, 0), rising=True)
        m = FaultyMemory(2, 4, [f])
        m.write(0, 1)
        assert m.read(1) == 1
        m.write(0, 0)  # falling: no effect for rising fault
        assert m.read(1) == 1

    def test_inverts_on_down(self):
        f = InversionCouplingFault(Cell(0, 0), Cell(1, 0), rising=False)
        m = FaultyMemory(2, 4, [f])
        m.load([1, 1])
        m.write(0, 0)
        assert m.read(1) == 0

    def test_double_activation_round_trips(self):
        f = InversionCouplingFault(Cell(0, 0), Cell(1, 0), rising=True)
        m = FaultyMemory(2, 4, [f])
        m.write(0, 1)
        m.write(0, 0)
        m.write(0, 1)
        assert m.read(1) == 0  # inverted twice


class TestFaultManagement:
    def test_faults_property_and_clear(self):
        f = StuckAtFault(Cell(0, 0), 1)
        m = FaultyMemory(2, 4, [f])
        assert m.faults == (f,)
        m.clear_faults()
        assert m.faults == ()
        m.write(0, 0)
        assert m.read(0) == 0

    def test_inject_validates_range(self):
        m = FaultyMemory(2, 4)
        with pytest.raises(ValueError):
            m.inject(StuckAtFault(Cell(9, 0), 1))


class FullScanMemory(FaultyMemory):
    """Oracle: every access scans the fault list (no fast path)."""

    def _fetch(self, addr):
        return self._fetch_faulty(addr)

    def _store(self, addr, value):
        self._store_faulty(addr, value)


# The static kinds (SAF, CFst) are drawn three times as often.
FUZZ_KINDS = 3 * ("SAF", "CFst") + ("TF", "RDF", "CFid", "CFin")
FUZZ_KINDS += ("AF-none", "AF-other", "AF-multi")


def random_fault(rng, n_words, width):
    """One fault of any kind.  Cells sit in the first three words, so
    faults overlap and chain (a CFst victim that is another CFst's
    aggressor) while the other words stay fault-free."""

    def cell():
        return Cell(rng.randrange(3), rng.randrange(width))

    def cell_pair():
        aggressor = cell()
        victim_addr = (aggressor.addr + rng.randrange(1, 3)) % 3
        return aggressor, Cell(victim_addr, rng.randrange(width))

    kind = rng.choice(FUZZ_KINDS)
    if kind == "SAF":
        return StuckAtFault(cell(), rng.randrange(2))
    if kind == "TF":
        return TransitionFault(cell(), rising=rng.random() < 0.5)
    if kind == "RDF":
        return ReadDisturbFault(cell(), deceptive=rng.random() < 0.5)
    if kind == "CFst":
        return StateCouplingFault(*cell_pair(), rng.randrange(2), rng.randrange(2))
    if kind == "CFid":
        return IdempotentCouplingFault(
            *cell_pair(), rng.random() < 0.5, rng.randrange(2)
        )
    if kind == "CFin":
        return InversionCouplingFault(*cell_pair(), rng.random() < 0.5)
    addr = rng.randrange(n_words)
    if kind == "AF-none":
        return AddressDecoderFault(addr, "none", float_value=rng.randrange(1 << width))
    other = (addr + rng.randrange(1, n_words)) % n_words
    return AddressDecoderFault(addr, kind[3:], other, wired_or=rng.random() < 0.5)


class TestFastPath:
    """Accesses to words no fault touches skip the fault scan; every
    interleaving must match the full-scan path read for read."""

    def test_transient_stuck_at_leaves_forced_value(self):
        saf = StuckAtFault(Cell(0, 1), 1)
        fast = FaultyMemory(4, 4)
        fast.inject(saf)
        fast.remove(saf)
        assert fast.read(0) & 0b10
        fast.write(2, 0b1111)  # fault-free word, fault-free memory
        assert fast.snapshot() == [0b10, 0, 0b1111, 0]

    def test_removal_unsettles_an_overridden_condition(self):
        # The CFst forces the stuck-at cell to 1; once it is withdrawn
        # the stuck-at must win again on the next write anywhere.
        saf = StuckAtFault(Cell(0, 0), 0)
        cfst = StateCouplingFault(Cell(1, 0), Cell(0, 0), 1, 1)
        memories = [cls(3, 2) for cls in (FaultyMemory, FullScanMemory)]
        for memory in memories:
            memory.load([0, 1, 0])
            memory.inject(saf)
            memory.inject(cfst)
            assert memory.snapshot() == [1, 1, 0]
            memory.remove(cfst)
            memory.write(2, 3)
        assert memories[0].snapshot() == memories[1].snapshot() == [0, 1, 3]

    def test_chained_state_coupling_takes_the_full_path(self):
        # cf_bc is listed before cf_ab, so one pass of the static
        # conditions forces B but not yet C; every later write (to any
        # word) runs another pass and moves the chain on.
        cf_bc = StateCouplingFault(Cell(1, 0), Cell(2, 0), 1, 1)
        cf_ab = StateCouplingFault(Cell(0, 0), Cell(1, 0), 1, 1)
        memories = [cls(4, 1) for cls in (FaultyMemory, FullScanMemory)]
        for memory in memories:
            memory.load([1, 0, 0, 0])
            memory.inject(cf_bc)
            memory.inject(cf_ab)
            assert memory.snapshot() == [1, 1, 0, 0]
            memory.write(3, 1)
        assert memories[0].snapshot() == memories[1].snapshot() == [1, 1, 1, 1]

    @pytest.mark.parametrize("seed", range(40))
    def test_random_interleavings_match_full_scan(self, seed):
        rng = random.Random(seed)
        n_words, width = rng.choice(((4, 1), (5, 2), (6, 1)))
        fast = FaultyMemory(n_words, width)
        full = FullScanMemory(n_words, width)
        injected = []
        for _ in range(300):
            action = rng.random()
            if action < 0.12:
                fault = random_fault(rng, n_words, width)
                injected.append(fault)
                for memory in (fast, full):
                    memory.inject(fault)
            elif action < 0.2 and injected:
                fault = injected.pop(rng.randrange(len(injected)))
                for memory in (fast, full):
                    memory.remove(fault)
            elif action < 0.22:
                injected.clear()
                for memory in (fast, full):
                    memory.clear_faults()
            elif action < 0.26:
                words = [rng.randrange(1 << width) for _ in range(n_words)]
                for memory in (fast, full):
                    memory.load(words)
            elif action < 0.6:
                addr = rng.randrange(n_words)
                assert fast.read(addr) == full.read(addr)
            else:
                addr = rng.randrange(n_words)
                value = rng.randrange(1 << width)
                for memory in (fast, full):
                    memory.write(addr, value)
            assert fast.snapshot() == full.snapshot()
            assert fast.faults == full.faults


class TestEnumeration:
    def test_stuck_at_count(self):
        assert len(list(enumerate_stuck_at(4, 8))) == 2 * 4 * 8

    def test_transition_count(self):
        assert len(list(enumerate_transition(3, 4))) == 2 * 3 * 4

    def test_intra_word_counts(self):
        # Ordered pairs: b*(b-1); CFst 4 variants, CFid 4, CFin 2.
        n, b = 2, 4
        pairs = b * (b - 1)
        assert len(list(enumerate_intra_word_cf(n, b, ("CFst",)))) == 4 * pairs * n
        assert len(list(enumerate_intra_word_cf(n, b, ("CFid",)))) == 4 * pairs * n
        assert len(list(enumerate_intra_word_cf(n, b, ("CFin",)))) == 2 * pairs * n

    def test_intra_word_faults_are_intra(self):
        for f in enumerate_intra_word_cf(2, 4):
            assert f.intra_word

    def test_inter_word_same_bit(self):
        faults = list(enumerate_inter_word_cf(3, 2, ("CFin",)))
        assert all(not f.intra_word for f in faults)
        assert all(f.aggressor.bit == f.victim.bit for f in faults)
        # 3*2 ordered address pairs * 2 bits * 2 CFin variants.
        assert len(faults) == 6 * 2 * 2

    def test_inter_word_sampling(self):
        faults = list(
            enumerate_inter_word_cf(
                8, 8, ("CFst",), max_pairs=10, rng=random.Random(0)
            )
        )
        assert len(faults) == 10 * 4

    def test_inter_word_all_bits(self):
        faults = list(
            enumerate_inter_word_cf(2, 2, ("CFin",), same_bit_only=False)
        )
        # 2 ordered address pairs * 4 bit combinations * 2 variants.
        assert len(faults) == 2 * 4 * 2

    def test_standard_universe_keys(self):
        uni = standard_fault_universe(2, 2, max_inter_pairs=4)
        assert set(uni) == {
            "SAF",
            "TF",
            "CFst-intra",
            "CFst-inter",
            "CFid-intra",
            "CFid-inter",
            "CFin-intra",
            "CFin-inter",
        }
        assert all(len(v) > 0 for v in uni.values())

    def test_enumeration_is_deterministic(self):
        a = [f.describe() for f in enumerate_intra_word_cf(2, 4)]
        b = [f.describe() for f in enumerate_intra_word_cf(2, 4)]
        assert a == b
