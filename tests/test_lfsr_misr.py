"""Tests for the LFSR/MISR signature datapath."""

import random

import pytest

from repro.bist.lfsr import TAPS, Lfsr, jump_tables, parity, tap_mask
from repro.bist.misr import Misr, signature_of
from repro.soak.workload import LfsrWorkload


class TestParity:
    def test_values(self):
        assert parity(0) == 0
        assert parity(1) == 1
        assert parity(0b1010) == 0
        assert parity(0b1110) == 1


class TestTapMask:
    def test_width1(self):
        assert tap_mask(1) == 1

    def test_width8(self):
        # Taps (8, 6, 5, 4) -> bits 7, 5, 4, 3.
        assert tap_mask(8) == (1 << 7) | (1 << 5) | (1 << 4) | (1 << 3)

    def test_unknown_width(self):
        with pytest.raises(ValueError, match="tap set"):
            tap_mask(37)


class TestLfsr:
    @pytest.mark.parametrize("width", [2, 3, 4, 5, 6, 7, 8, 10])
    def test_maximal_period(self, width):
        lfsr = Lfsr(width, seed=1)
        assert lfsr.period() == (1 << width) - 1

    def test_zero_seed_rejected(self):
        with pytest.raises(ValueError):
            Lfsr(8, seed=0)

    def test_seed_masked_then_checked(self):
        with pytest.raises(ValueError):
            Lfsr(4, seed=0x10)  # masks to zero

    def test_run_returns_states(self):
        lfsr = Lfsr(4, seed=1)
        states = lfsr.run(5)
        assert len(states) == 5
        assert all(0 < s < 16 for s in states)

    def test_deterministic(self):
        assert Lfsr(8, seed=3).run(20) == Lfsr(8, seed=3).run(20)

    def test_width_validation(self):
        with pytest.raises(ValueError):
            Lfsr(0)


def serial_draw(state, width, nbits):
    """Oracle: *nbits* single feedback steps, collecting each new LSB."""
    mask = (1 << width) - 1
    taps = tap_mask(width)
    value = 0
    for _ in range(nbits):
        state = ((state << 1) & mask) | parity(state & taps)
        value = (value << 1) | (state & 1)
    return value, state


class TestWordDraw:
    """``Lfsr.draw`` jumps a whole draw at a time; it must equal the
    bit-serial register bit for bit, including chunked long draws."""

    @pytest.mark.parametrize("width", [1, *sorted(TAPS)])
    def test_draw_matches_bit_serial_steps(self, width):
        rng = random.Random(width)
        for _ in range(2):
            lfsr = Lfsr(width, rng.randrange(1, 1 << width) if width > 1 else 1)
            state = lfsr.state
            for nbits in range(1, 3 * width + 3):
                value, state = serial_draw(state, width, nbits)
                assert lfsr.draw(nbits) == value
                assert lfsr.state == state

    def test_draw_matches_step(self):
        a, b = Lfsr(16, 0xACE1), Lfsr(16, 0xACE1)
        assert a.draw(5) == int("".join(str(b.step() & 1) for _ in range(5)), 2)
        assert a.state == b.state

    def test_jump_table_bounds(self):
        assert len(jump_tables(12, 5)) == 2  # bytes 0-7 and bits 8-11
        assert len(jump_tables(12, 5)[1]) == 16
        with pytest.raises(ValueError):
            jump_tables(8, 9)
        with pytest.raises(ValueError):
            Lfsr(8).draw(0)


class TestLfsrWorkloadGolden:
    """The soak traffic stream at seed 1, fixed before ``draw`` became
    a table jump; a checkpoint/restore mid-stream must not move it."""

    # fmt: off
    PREFIX = [
        ("r", 2, 0), ("r", 4, 0), None, None, None, ("w", 2, 199), None,
        None, None, None, None, ("r", 5, 0), None, ("w", 4, 229), None,
        ("w", 8, 70), None, ("r", 9, 0), ("w", 8, 130), None,
        ("w", 2, 155), ("r", 0, 0), ("r", 11, 0), ("r", 13, 0), None,
        ("r", 9, 0), ("w", 13, 41), None, ("w", 7, 197), ("r", 14, 0),
    ]
    # fmt: on

    @staticmethod
    def events(workload, cycles):
        return [
            None if e is None else (e.kind, e.addr, e.value)
            for e in (workload(cycle) for cycle in range(cycles))
        ]

    def test_prefix_and_restore_round_trip(self):
        def make(seed):
            return LfsrWorkload(
                16, 8, idle_permille=500, write_permille=400, seed=seed
            )

        workload = make(1)
        head = self.events(workload, 12)
        # The state is the whole generator: reseeding with it resumes.
        resumed = make(workload.state)
        tail = self.events(workload, 18)
        assert head + tail == self.PREFIX
        assert self.events(resumed, 18) == tail
        assert workload.state == resumed.state == 56343323
        self.events(workload, 2000)
        assert workload.state == 3254341605

    def test_wide_write_data_is_chunked(self):
        # 33-bit write data is wider than the 32-bit register.
        workload = LfsrWorkload(16, 33, seed=1)
        self.events(workload, 1000)
        assert workload.state == 1411491409
        writes = [e for e in self.events(workload, 40) if e and e[0] == "w"]
        assert writes[:3] == [
            ("w", 2, 6868549336),
            ("w", 4, 6702895898),
            ("w", 2, 8004158727),
        ]


class TestMisr:
    def test_deterministic(self):
        assert signature_of([1, 2, 3], 16) == signature_of([1, 2, 3], 16)

    def test_order_sensitive(self):
        assert signature_of([1, 2], 16) != signature_of([2, 1], 16)

    def test_value_sensitive(self):
        assert signature_of([0, 0, 0], 16) != signature_of([0, 1, 0], 16)

    def test_single_bit_flip_changes_signature(self):
        base = [0xAAAA, 0x5555, 0x1234]
        for i in range(len(base)):
            for bit in range(4):
                mutated = list(base)
                mutated[i] ^= 1 << bit
                assert signature_of(mutated, 16) != signature_of(base, 16)

    def test_fold_wide_input(self):
        misr = Misr(8)
        assert misr.fold(0x1FF) == (0xFF ^ 0x01)
        assert misr.fold(0xAB) == 0xAB

    def test_absorb_counts(self):
        misr = Misr(8)
        misr.absorb_all([1, 2, 3])
        assert misr.absorbed == 3

    def test_reset(self):
        misr = Misr(8, seed=5)
        misr.absorb(0xFF)
        misr.reset()
        assert misr.signature == 5
        assert misr.absorbed == 0

    def test_spawn_matches_configuration(self):
        misr = Misr(8, seed=5)
        clone = misr.spawn()
        misr.absorb(1)
        clone.absorb(1)
        assert misr.signature == clone.signature

    def test_width_validation(self):
        with pytest.raises(ValueError):
            Misr(0)

    def test_empty_signature_is_seed(self):
        assert Misr(16, seed=0xBEEF).signature == 0xBEEF

    def test_wide_words_accumulate(self):
        # 32-bit reads into a 16-bit register still distinguish streams.
        a = signature_of([0xDEADBEEF, 0x12345678], 16)
        b = signature_of([0xDEADBEEF, 0x12345679], 16)
        assert a != b

    def test_shift_distinguishes_xor_equal_streams(self):
        # Streams with equal XOR-sum but different order/content.
        a = signature_of([0b01, 0b10], 4)
        b = signature_of([0b11, 0b00], 4)
        assert a != b
